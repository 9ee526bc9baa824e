#include "src/core/decoder.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "src/common/random.h"
#include "src/core/features.h"
#include "src/tensor/fusion.h"
#include "src/obs/stage_profiler.h"
#include "src/traj/resample.h"

namespace rntraj {

namespace {

/// Additive logit for segments outside the constraint set. Finite (rather
/// than -inf) so that a ground-truth segment that falls outside the mask
/// (possible with heavy GPS noise) yields a large-but-bounded loss instead of
/// a numerical blow-up. Must sit below the smallest allowed weight
/// log(omega) = -(mask_radius/beta)^2 ~= -44, which the Decoder constructor
/// checks (mask_radius < ~116 m at beta = 15).
constexpr float kForbiddenLogit = -60.0f;

/// SplitMix64-style mix of the scheduled-sampling epoch and sample uid into
/// a per-call engine seed: deterministic for a given (epoch, sample) however
/// the batch is threaded or ordered.
uint64_t SamplingSeed(uint64_t epoch, int64_t uid) {
  uint64_t z = 0x9E3779B97F4A7C15ull * (epoch + 1) + static_cast<uint64_t>(uid);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// Lanes of the argmax kernel: the widest float vector the target has, as in
// ops_matmul.cc.
#if defined(__AVX512F__)
constexpr int kLanes = 16;
#elif defined(__AVX__)
constexpr int kLanes = 8;
#else
constexpr int kLanes = 4;
#endif
using FloatLanes = float __attribute__((vector_size(kLanes * sizeof(float))));
using IndexLanes =
    int32_t __attribute__((vector_size(kLanes * sizeof(int32_t))));

/// MaskedArgmax's kernel. Every listed value is above the floor, so a
/// listed entry scores at least its floor score and the dense pass can run
/// over the floor alone. Lane l keeps the first max over v = l (mod kLanes)
/// under a strict `>`; the lanes, the tail and the listed entries then meet
/// in one order-free reduction where a higher value wins and an equal one
/// wins at a lower index. Index -1 stands for "nothing above -inf".
template <bool kBias>
int FirstMaxKernel(const float* y, const float* b, float floor, const int* ids,
                   const float* vals, int nnz, int n) {
  const auto score = [&](int v) { return kBias ? y[v] + b[v] : y[v]; };
  // The scan keeps a NaN at index 0 as its best for good.
  if (std::isnan(score(0) + (nnz > 0 && ids[0] == 0 ? vals[0] : floor))) {
    return 0;
  }
  constexpr float kMinusInf = -std::numeric_limits<float>::infinity();
  FloatLanes best;
  IndexLanes at;
  IndexLanes lane_v;
  for (int l = 0; l < kLanes; ++l) {
    best[l] = kMinusInf;
    at[l] = -1;
    lane_v[l] = l;
  }
  int v = 0;
  for (; v + kLanes <= n; v += kLanes) {
    FloatLanes x;
    std::memcpy(&x, y + v, sizeof(x));
    if constexpr (kBias) {
      FloatLanes bv;
      std::memcpy(&bv, b + v, sizeof(bv));
      x = x + bv;
    }
    x = x + floor;
    const IndexLanes gt = x > best;
    best = gt ? x : best;
    at = gt ? lane_v : at;
    lane_v += kLanes;
  }
  int index = -1;
  float value = kMinusInf;
  const auto offer = [&](int i, float x) {
    if (x > value || (x == value && i < index)) {
      index = i;
      value = x;
    }
  };
  for (int l = 0; l < kLanes; ++l) offer(at[l], best[l]);
  for (; v < n; ++v) offer(v, score(v) + floor);
  for (int k = 0; k < nnz; ++k) offer(ids[k], score(ids[k]) + vals[k]);
  return std::max(index, 0);
}

}  // namespace

int MaskedArgmax(const float* y, const float* b, float floor, const int* ids,
                 const float* vals, int nnz, int n) {
  return b ? FirstMaxKernel<true>(y, b, floor, ids, vals, nnz, n)
           : FirstMaxKernel<false>(y, b, floor, ids, vals, nnz, n);
}

Decoder::Decoder(const DecoderConfig& config, const ModelContext* ctx)
    : cfg_(config),
      ctx_(ctx),
      seg_emb_(ctx->rn->num_segments(), config.dim),
      attn_(config.dim),
      gru_(2 * config.dim + 4, config.dim),
      id_head_(config.dim, ctx->rn->num_segments()),
      rate_head_(2 * config.dim, 1) {
  // Every allowed hard-mask weight, as the float the mask stores, must sit
  // above the forbidden logit (MaskedArgmax's fast path relies on it), and
  // the prior must fall off from 0 to a negative floor (the relation that
  // sizes spatial_prior_radius).
  const double edge_z = config.mask_radius / config.beta;
  RNTRAJ_CHECK_MSG(static_cast<float>(-edge_z * edge_z) > kForbiddenLogit,
                   "decoder: mask_radius " << config.mask_radius
                       << " m at beta " << config.beta
                       << " puts allowed segments below the forbidden logit");
  RNTRAJ_CHECK_MSG(config.spatial_prior_sigma > 0.0f,
                   "decoder: spatial_prior_sigma must be positive");
  RNTRAJ_CHECK_MSG(config.spatial_prior_floor < 0.0f,
                   "decoder: spatial_prior_floor must be negative");
  RegisterChild("seg_emb", &seg_emb_);
  RegisterChild("attn", &attn_);
  RegisterChild("gru", &gru_);
  RegisterChild("id_head", &id_head_);
  RegisterChild("rate_head", &rate_head_);

  // Geometry-informed init: segment embeddings (and the matching id-head
  // columns) start from a spatial coordinate system instead of noise; see
  // GeometricSegmentTable.
  Tensor geo = GeometricSegmentTable(*ctx->rn, config.dim);
  seg_emb_.mutable_table().data() = geo.data();
  id_head_.weight().data() = Transpose(geo).data();
}

Decoder::SampleCache Decoder::BuildSampleCache(
    const TrajectorySample& sample) const {
  obs::ScopedStage stage(obs::Stage::kConstraintMask);
  SampleCache c;
  const int len = sample.truth.size();
  // Dead-reckoned positions per step (from the raw input only).
  std::vector<double> times;
  times.reserve(len);
  for (const auto& p : sample.truth.points) times.push_back(p.t);
  RawTrajectory interp = LinearInterpolate(sample.input, times);

  std::vector<int> observed_pos(len, -1);  ///< step -> index in input
  for (size_t i = 0; i < sample.input_indices.size(); ++i) {
    observed_pos[sample.input_indices[i]] = static_cast<int>(i);
  }

  // Radius queries, one per step: the observation at mask_radius for
  // observed steps, the dead-reckoned position at spatial_prior_radius for
  // the rest. With a query source installed (serving) each goes through the
  // shared cache; otherwise the two radius groups run through the batched
  // R-tree path.
  std::vector<std::vector<NearbySegment>> near(len);
  if (seg_source_ != nullptr) {
    for (int j = 0; j < len; ++j) {
      near[j] = observed_pos[j] >= 0
                    ? seg_source_->WithinRadius(
                          sample.input.points[observed_pos[j]].pos,
                          cfg_.mask_radius)
                    : seg_source_->WithinRadius(interp.points[j].pos,
                                                cfg_.spatial_prior_radius);
    }
  } else {
    std::vector<Vec2> obs_pts;
    std::vector<int> obs_steps;
    std::vector<Vec2> prior_pts;
    std::vector<int> prior_steps;
    for (int j = 0; j < len; ++j) {
      if (observed_pos[j] >= 0) {
        obs_pts.push_back(sample.input.points[observed_pos[j]].pos);
        obs_steps.push_back(j);
      } else {
        prior_pts.push_back(interp.points[j].pos);
        prior_steps.push_back(j);
      }
    }
    auto obs_near = BatchSegmentsWithinRadius(*ctx_->rn, *ctx_->rtree, obs_pts,
                                              cfg_.mask_radius);
    auto prior_near = BatchSegmentsWithinRadius(
        *ctx_->rn, *ctx_->rtree, prior_pts, cfg_.spatial_prior_radius);
    for (size_t i = 0; i < obs_steps.size(); ++i) {
      near[obs_steps[i]] = std::move(obs_near[i]);
    }
    for (size_t i = 0; i < prior_steps.size(); ++i) {
      near[prior_steps[i]] = std::move(prior_near[i]);
    }
  }

  // Constraint masks at observed steps; soft spatial prior elsewhere. Each
  // step stores only its listed segments, in ascending id order (a cache hit
  // lists them so already), over a constant floor. Every stored weight is
  // above the floor, as MaskedArgmax requires: a weight at or below it is
  // dropped (an unlisted segment scores the floor anyway).
  SampleCache::SparseMasks& m = c.masks;
  m.floor.reserve(len);
  m.offsets.reserve(len + 1);
  m.offsets.push_back(0);
  std::vector<std::pair<int, float>> row;
  const double r = cfg_.mask_radius;
  for (int j = 0; j < len; ++j) {
    const bool observed = observed_pos[j] >= 0;
    const float floor = observed ? kForbiddenLogit : cfg_.spatial_prior_floor;
    // An observed point with no road within mask_radius widens its radius
    // query. Its weights -(r^2 + d^2 - d0^2) / beta^2 (d0: the nearest
    // listed distance) rank the listed roads by distance as log omega does,
    // and put the nearest at the edge weight -(r/beta)^2, which the
    // constructor keeps above the floor.
    double d0 = 0.0;
    if (observed) {
      d0 = std::numeric_limits<double>::infinity();
      for (const auto& ns : near[j]) d0 = std::min(d0, ns.projection.distance);
    }
    row.clear();
    for (const auto& ns : near[j]) {
      const double d = ns.projection.distance;
      float w;
      if (!observed) {
        const double z = d / cfg_.spatial_prior_sigma;
        w = static_cast<float>(-z * z);
      } else if (d0 > r) {
        w = static_cast<float>(-(r * r + (d * d - d0 * d0)) /
                               (cfg_.beta * cfg_.beta));
      } else {
        const double z = d / cfg_.beta;
        w = static_cast<float>(-z * z);  // log omega
      }
      if (w > floor) row.push_back({ns.seg_id, w});
    }
    std::sort(row.begin(), row.end());
    for (size_t k = 0; k < row.size(); ++k) {
      // Radius queries list each segment once; the fused argmax relies on it.
      RNTRAJ_CHECK(k == 0 || row[k].first != row[k - 1].first);
      m.ids.push_back(row[k].first);
      m.vals.push_back(row[k].second);
    }
    m.floor.push_back(floor);
    m.offsets.push_back(static_cast<int>(m.ids.size()));
  }

  const BBox& b = ctx_->rn->bounds();
  std::vector<float> feat(static_cast<size_t>(len) * 3);
  for (int j = 0; j < len; ++j) {
    feat[3 * j] = static_cast<float>(j) / std::max(1, len - 1);
    feat[3 * j + 1] = static_cast<float>(
        (interp.points[j].pos.x - b.min_x) / std::max(1.0, b.width()));
    feat[3 * j + 2] = static_cast<float>(
        (interp.points[j].pos.y - b.min_y) / std::max(1.0, b.height()));
  }
  c.step_features = Tensor::FromVector({len, 3}, feat);
  return c;
}

Decoder::BatchPlan Decoder::BuildBatchPlan(
    const std::vector<Tensor>& enc_outputs, const std::vector<Tensor>& traj_hs,
    const std::vector<const TrajectorySample*>& samples,
    std::vector<SampleCache>* scratch) const {
  const int batch = static_cast<int>(samples.size());
  scratch->resize(batch);
  BatchPlan plan;
  plan.order.resize(batch);
  for (int i = 0; i < batch; ++i) plan.order[i] = i;
  // Descending target length (stable: equal-length lanes keep batch order),
  // so the active lanes at any step are a prefix of the lane array.
  std::stable_sort(plan.order.begin(), plan.order.end(), [&](int a, int b) {
    return samples[a]->truth.size() > samples[b]->truth.size();
  });

  plan.samples.reserve(batch);
  plan.caches.reserve(batch);
  plan.tgt_lens.reserve(batch);
  std::vector<Tensor> enc_sorted;
  std::vector<int> enc_lens;
  std::vector<Tensor> h0_rows;
  std::vector<Tensor> feat_rows;
  enc_sorted.reserve(batch);
  enc_lens.reserve(batch);
  h0_rows.reserve(batch);
  feat_rows.reserve(batch);
  for (int p = 0; p < batch; ++p) {
    const int i = plan.order[p];
    plan.samples.push_back(samples[i]);
    plan.caches.push_back(&ResolveCache(*samples[i], &(*scratch)[i]));
    plan.tgt_lens.push_back(samples[i]->truth.size());
    enc_sorted.push_back(enc_outputs[i]);
    enc_lens.push_back(enc_outputs[i].dim(0));
    h0_rows.push_back(traj_hs[i]);
    feat_rows.push_back(plan.caches.back()->step_features);
  }
  plan.max_len = plan.tgt_lens.front();

  // Key-side work shared by every step: pad the encoder outputs into
  // (B*pad, d) blocks and project them through W_h as one fat GEMM.
  Tensor enc_flat =
      enc_sorted.size() == 1 ? enc_sorted[0] : ConcatRows(enc_sorted);
  plan.keys = attn_.PrecomputeBatch(PaddedBatch::FromFlat(enc_flat, enc_lens));

  // Per-step input features, padded to (B*max_len, 3) so step j of the
  // active lanes is one row gather (constants: no autograd traffic).
  Tensor feat_flat =
      feat_rows.size() == 1 ? feat_rows[0] : ConcatRows(feat_rows);
  plan.step_features = PadRows(feat_flat, plan.tgt_lens, plan.max_len);

  plan.h0 = h0_rows.size() == 1 ? h0_rows[0] : ConcatRows(h0_rows);
  return plan;
}

namespace {

/// The cached keys restricted to the first `active` blocks. Called only when
/// the active set shrinks (at most B-1 times per pass), so steady-state
/// decoder steps reuse the same key tensors without per-step slice copies.
AdditiveAttention::CachedKeysBatch SliceCachedKeys(
    const AdditiveAttention::CachedKeysBatch& full, int active) {
  if (active * full.pad_len >= full.kw.dim(0)) return full;
  return {SliceRows(full.keys, 0, active * full.pad_len),
          SliceRows(full.kw, 0, active * full.pad_len),
          std::vector<int>(full.lengths.begin(), full.lengths.begin() + active),
          full.pad_len};
}

}  // namespace

Tensor Decoder::StepBatch(const BatchPlan& plan,
                          const AdditiveAttention::CachedKeysBatch& keys,
                          int active, const Tensor& h_prev,
                          const Tensor& x_prev, const Tensor& r_prev,
                          int j) const {
  std::vector<int> idx(active);
  for (int p = 0; p < active; ++p) idx[p] = p * plan.max_len + j;
  Tensor step_rows = GatherRows(plan.step_features, idx);  // (active, 3)
  Tensor a = attn_.ForwardBatched(h_prev, keys).context;   // (active, d)
  Tensor input = ConcatCols({x_prev, r_prev, step_rows, a});
  return gru_.Forward(input, h_prev);
}

Tensor Decoder::MaskStack(const BatchPlan& plan, int active, int j) const {
  const int num_segs = ctx_->rn->num_segments();
  Tensor out = Tensor::Zeros({active, num_segs});
  for (int p = 0; p < active; ++p) {
    const SampleCache::SparseMasks& m = plan.caches[p]->masks;
    float* row = out.data().data() + static_cast<size_t>(p) * num_segs;
    std::fill(row, row + num_segs, m.floor[j]);
    for (int k = m.offsets[j]; k < m.offsets[j + 1]; ++k) {
      row[m.ids[k]] = m.vals[k];
    }
  }
  return out;
}

std::vector<Tensor> Decoder::TrainLossBatch(
    const std::vector<Tensor>& enc_outputs, const std::vector<Tensor>& traj_hs,
    const std::vector<const TrajectorySample*>& samples) const {
  const int batch = static_cast<int>(samples.size());
  if (batch == 0) return {};
  std::vector<SampleCache> scratch;
  BatchPlan plan = BuildBatchPlan(enc_outputs, traj_hs, samples, &scratch);
  // kDecoder covers the autoregressive pass; mask/prior construction in
  // BuildBatchPlan bills to kConstraintMask inside BuildSampleCache.
  obs::ScopedStage stage(obs::Stage::kDecoder);
  // One scheduled-sampling engine per lane, seeded by (epoch, uid): lane p
  // draws once per step in step order, so its flip sequence is the same
  // regardless of batch composition or lane order.
  const uint64_t epoch = sampling_epoch_.load(std::memory_order_relaxed);
  std::vector<Rng> rngs;
  rngs.reserve(batch);
  for (int p = 0; p < batch; ++p) {
    rngs.emplace_back(SamplingSeed(epoch, plan.samples[p]->uid));
  }

  Tensor h = plan.h0;
  Tensor x_prev = Tensor::Zeros({batch, cfg_.dim});
  std::vector<float> r_vals(batch, 0.0f);
  // Per-step loss terms in lane order; lane p's step-j term sits at offset
  // offsets[j] + p of the concatenation (the per-lane means below gather it).
  std::vector<Tensor> id_steps;
  std::vector<Tensor> rate_steps;
  std::vector<int> offsets(plan.max_len, 0);
  id_steps.reserve(plan.max_len);
  rate_steps.reserve(plan.max_len);
  int total = 0;
  int active = batch;
  AdditiveAttention::CachedKeysBatch keys = plan.keys;
  for (int j = 0; j < plan.max_len; ++j) {
    // Early-finish compaction: lanes whose target ended leave the GEMMs.
    while (plan.tgt_lens[active - 1] <= j) --active;
    if (h.dim(0) > active) {
      h = SliceRows(h, 0, active);
      x_prev = SliceRows(x_prev, 0, active);
      keys = SliceCachedKeys(plan.keys, active);
    }
    Tensor r_prev = Tensor::FromVector(
        {active, 1}, std::vector<float>(r_vals.begin(), r_vals.begin() + active));
    h = StepBatch(plan, keys, active, h, x_prev, r_prev, j);
    Tensor logits = Add(id_head_.Forward(h), MaskStack(plan, active, j));
    Tensor lsm = LogSoftmaxRows(logits);
    std::vector<int> targets(active);
    for (int p = 0; p < active; ++p) {
      targets[p] = plan.samples[p]->truth.points[j].seg_id;
    }
    id_steps.push_back(Neg(GatherElems(lsm, targets)));  // (active)
    offsets[j] = total;
    total += active;

    // Scheduled sampling per lane: feed the truth or the lane's own argmax.
    std::vector<int> fed(active);
    std::vector<char> force(active);
    for (int p = 0; p < active; ++p) {
      force[p] = rngs[p].Bernoulli(cfg_.teacher_forcing) ? 1 : 0;
      const float* row =
          logits.data().data() + static_cast<size_t>(p) * logits.cols();
      fed[p] = force[p] ? targets[p]
                        : MaskedArgmax(row, nullptr, 0.0f, nullptr, nullptr, 0,
                                       logits.cols());
    }
    Tensor x_j = seg_emb_.Forward(fed);  // (active, d)
    Tensor r_pred =
        rate_head_.ForwardAct(ConcatCols({x_j, h}), fusion::Act::kSigmoid);
    std::vector<float> r_true(active);
    for (int p = 0; p < active; ++p) {
      r_true[p] = static_cast<float>(plan.samples[p]->truth.points[j].ratio);
    }
    rate_steps.push_back(
        Square(Sub(r_pred, Tensor::FromVector({active, 1}, r_true))));
    for (int p = 0; p < active; ++p) {
      r_vals[p] = force[p] ? r_true[p]
                           : std::clamp(r_pred.at(p, 0), 0.0f, 1.0f);
    }
    x_prev = x_j;
  }

  // Per-lane means over the lane's own step terms, in step order.
  Tensor id_all = Reshape(ConcatVec(id_steps), {total, 1});
  Tensor rate_all =
      rate_steps.size() == 1 ? rate_steps[0] : ConcatRows(rate_steps);
  std::vector<Tensor> losses(batch);
  for (int p = 0; p < batch; ++p) {
    std::vector<int> idx(plan.tgt_lens[p]);
    for (int j = 0; j < plan.tgt_lens[p]; ++j) idx[j] = offsets[j] + p;
    Tensor id_loss = MeanAll(GatherRows(id_all, idx));
    Tensor rate_loss = MeanAll(GatherRows(rate_all, idx));
    losses[plan.order[p]] = Add(id_loss, MulScalar(rate_loss, cfg_.lambda_rate));
  }
  return losses;
}

std::vector<MatchedTrajectory> Decoder::DecodeBatch(
    const std::vector<Tensor>& enc_outputs, const std::vector<Tensor>& traj_hs,
    const std::vector<const TrajectorySample*>& samples) const {
  const int batch = static_cast<int>(samples.size());
  if (batch == 0) return {};
  const double eps = ctx_->eps_rho;
  std::vector<SampleCache> scratch;
  BatchPlan plan = BuildBatchPlan(enc_outputs, traj_hs, samples, &scratch);
  obs::ScopedStage stage(obs::Stage::kDecoder);
  const int num_segs = ctx_->rn->num_segments();
  const float* bias = id_head_.bias().data().data();

  std::vector<MatchedTrajectory> sorted_out(batch);
  for (int p = 0; p < batch; ++p) {
    sorted_out[p].points.reserve(plan.tgt_lens[p]);
  }
  Tensor h = plan.h0;
  Tensor x_prev = Tensor::Zeros({batch, cfg_.dim});
  std::vector<float> r_vals(batch, 0.0f);
  int active = batch;
  AdditiveAttention::CachedKeysBatch keys = plan.keys;
  for (int j = 0; j < plan.max_len; ++j) {
    while (plan.tgt_lens[active - 1] <= j) --active;
    if (h.dim(0) > active) {
      h = SliceRows(h, 0, active);
      x_prev = SliceRows(x_prev, 0, active);
      keys = SliceCachedKeys(plan.keys, active);
    }
    Tensor r_prev = Tensor::FromVector(
        {active, 1}, std::vector<float>(r_vals.begin(), r_vals.begin() + active));
    h = StepBatch(plan, keys, active, h, x_prev, r_prev, j);
    // Id head fused with its bias, the sparse mask and the argmax: one GEMM,
    // then one pass per lane over the raw scores.
    Tensor scores = Matmul(h, id_head_.weight());  // (active, |V|)
    std::vector<int> best(active);
    for (int p = 0; p < active; ++p) {
      const SampleCache::SparseMasks& m = plan.caches[p]->masks;
      const int begin = m.offsets[j];
      best[p] = MaskedArgmax(
          scores.data().data() + static_cast<size_t>(p) * num_segs, bias,
          m.floor[j], m.ids.data() + begin, m.vals.data() + begin,
          m.offsets[j + 1] - begin, num_segs);
    }
    Tensor x_j = seg_emb_.Forward(best);
    Tensor r_pred =
        rate_head_.ForwardAct(ConcatCols({x_j, h}), fusion::Act::kSigmoid);
    for (int p = 0; p < active; ++p) {
      const double ratio = std::clamp<double>(r_pred.at(p, 0), 0.0, 0.999);
      const double t0 = plan.samples[p]->truth.points.front().t;
      sorted_out[p].points.push_back({best[p], ratio, t0 + j * eps});
      r_vals[p] = static_cast<float>(ratio);
    }
    x_prev = x_j;
  }

  std::vector<MatchedTrajectory> out(batch);
  for (int p = 0; p < batch; ++p) {
    out[plan.order[p]] = std::move(sorted_out[p]);
  }
  return out;
}

}  // namespace rntraj
