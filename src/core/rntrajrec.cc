#include "src/core/rntrajrec.h"

#include <cmath>

#include "src/nn/init.h"
#include "src/obs/stage_profiler.h"

namespace rntraj {

RnTrajRec::RnTrajRec(RnTrajRecConfig config, const ModelContext& ctx)
    // Sync() before any sub-module is built: sub-configs inherit `dim`
    // whether or not the caller remembered to call it (it is idempotent, so
    // an already-synced config passes through unchanged).
    : cfg_([&config] {
        config.Sync();
        return config;
      }()),
      ctx_(ctx),
      gridgnn_(cfg_.gridgnn, ctx.rn, ctx.grid),
      input_proj_(cfg_.dim + 3, cfg_.dim),
      gpsformer_(cfg_.gpsformer),
      traj_proj_(cfg_.dim + kEnvFeatureDim, cfg_.dim),
      decoder_(cfg_.decoder, &ctx_) {
  RegisterChild("gridgnn", &gridgnn_);
  RegisterChild("input_proj", &input_proj_);
  RegisterChild("gpsformer", &gpsformer_);
  RegisterChild("traj_proj", &traj_proj_);
  RegisterChild("decoder", &decoder_);
  gcl_w_ = RegisterParameter("gcl_w", XavierUniform(cfg_.dim, 1));
}

RnTrajRec::PointContexts RnTrajRec::BuildPointContexts(
    const TrajectorySample& sample) const {
  obs::ScopedStage stage(obs::Stage::kSubgraph);
  PointContexts pts;
  pts.reserve(sample.input.size());
  for (const auto& rp : sample.input.points) {
    PointContext cp;
    cp.sg = seg_source_ != nullptr
                ? ExtractPointSubGraph(*ctx_.rn, *seg_source_, rp.pos,
                                       cfg_.delta, cfg_.gamma,
                                       cfg_.max_subgraph_nodes)
                : ExtractPointSubGraph(*ctx_.rn, *ctx_.rtree, rp.pos,
                                       cfg_.delta, cfg_.gamma,
                                       cfg_.max_subgraph_nodes);
    const int n = cp.sg.size();
    // Eq. (6) pooling weights omega_i / sum(omega), with every omega divided
    // by the nearest segment's: exp(z0^2 - z_i^2), z = distance / gamma.
    // Undivided, all omega underflow to 0 once a point is ~820 m off-road
    // and the quotient is 0/0.
    const double z0 = cp.sg.distances[0] / cfg_.gamma;
    std::vector<double> scaled(n);
    double total = 0.0;
    for (int i = 0; i < n; ++i) {
      const double z = cp.sg.distances[i] / cfg_.gamma;
      scaled[i] = std::exp(z0 * z0 - z * z);
      total += scaled[i];
    }
    std::vector<float> pool(n);
    std::vector<float> logw(n);
    for (int i = 0; i < n; ++i) {
      pool[i] = static_cast<float>(scaled[i] / total);
      logw[i] = static_cast<float>(std::log(std::max(cp.sg.weights[i], 1e-20)));
    }
    cp.pool_weights = Tensor::FromVector({1, n}, pool);
    cp.log_weights = Tensor::FromVector({1, n}, logw);
    pts.push_back(std::move(cp));
  }
  return pts;
}

void RnTrajRec::BeginBatch() {
  xroad_ = gridgnn_.Forward();
  decoder_.AdvanceSamplingEpoch();
}

void RnTrajRec::BeginInference() {
  NoGradGuard guard;
  xroad_ = gridgnn_.Forward();
}

Tensor RnTrajRec::GraphClassificationLoss(const Encoded& e,
                                          const TrajectorySample& sample) const {
  // Eq. (18): constraint-masked softmax over each final sub-graph's nodes,
  // supervised by the true segment at the input timestamps.
  std::vector<Tensor> terms;
  for (size_t i = 0; i < e.z.size(); ++i) {
    const PointContext& cp = (*e.points)[i];
    const int truth_seg =
        sample.truth.points[sample.input_indices[i]].seg_id;
    const int local = cp.sg.LocalIndexOf(truth_seg);
    if (local < 0) continue;  // true segment outside the receptive field
    Tensor logits = Reshape(Matmul(e.z[i], gcl_w_), {1, cp.sg.size()});
    Tensor lsm = LogSoftmaxRows(Add(logits, cp.log_weights));
    terms.push_back(Neg(GatherElems(lsm, {local})));
  }
  if (terms.empty()) return Tensor::Zeros({1});
  return MeanAll(ConcatVec(terms));
}

std::vector<RnTrajRec::Encoded> RnTrajRec::EncodeBatch(
    const std::vector<const TrajectorySample*>& samples,
    const std::vector<const PointContexts*>& pts) {
  RNTRAJ_CHECK_MSG(xroad_.defined(), "call BeginBatch()/BeginInference() first");
  RNTRAJ_CHECK(samples.size() == pts.size());
  const int batch = static_cast<int>(samples.size());

  // Sub-Graph Generation across the batch: all sub-graphs flat (samples in
  // order, timesteps in order) as the components of one graph, per-sample
  // feature blocks stacked so the input projection is one (sum of lengths,
  // d+3) GEMM.
  std::vector<int> lengths(batch);
  std::vector<Tensor> env_rows;
  Tensor h0;
  Tensor z0;
  CsrGraph graphs;
  {
    obs::ScopedStage stage(obs::Stage::kSubgraph);
    std::vector<Tensor> z0_parts;
    std::vector<Tensor> feat_parts;
    CsrGraphBuilder builder;
    feat_parts.reserve(batch);
    env_rows.reserve(batch);
    for (int s = 0; s < batch; ++s) {
      const TrajectorySample& sample = *samples[s];
      lengths[s] = sample.input.size();
      std::vector<Tensor> gp_rows;
      gp_rows.reserve(lengths[s]);
      for (const PointContext& cp : *pts[s]) {
        Tensor zi = GatherRows(xroad_, cp.sg.seg_ids);   // (n_i, d)
        gp_rows.push_back(Matmul(cp.pool_weights, zi));  // (1, d), Eq. (6)
        z0_parts.push_back(std::move(zi));
        builder.Add(cp.sg.size(), cp.sg.local_edges);
      }
      feat_parts.push_back(ConcatCols({ConcatRows(gp_rows),
                                       InputTimeColumn(sample),
                                       InputGridCoords(ctx_, sample)}));
      env_rows.push_back(EnvContext(sample));
    }
    h0 = input_proj_.Forward(
        feat_parts.size() == 1 ? feat_parts[0] : ConcatRows(feat_parts));
    z0 = z0_parts.size() == 1 ? z0_parts[0] : ConcatRows(z0_parts);
    graphs = builder.Build();
  }

  GpsFormer::BatchOutput out =
      gpsformer_.ForwardBatch(h0, lengths, z0, graphs);

  // Trajectory-level representations: masked mean-pool per sample, then one
  // (batch, d + f_t) projection GEMM for the whole batch.
  Tensor pooled = SegmentMeanRows(out.h, lengths);
  Tensor traj = traj_proj_.Forward(ConcatCols(
      {pooled, env_rows.size() == 1 ? env_rows[0] : ConcatRows(env_rows)}));

  // Per-sample views for the batched decoder's lane plan and the GCL loss.
  std::vector<Encoded> encoded;
  encoded.reserve(batch);
  int row = 0;
  int g = 0;
  int node = 0;
  for (int s = 0; s < batch; ++s) {
    Encoded e;
    e.enc = SliceRows(out.h, row, lengths[s]);
    e.traj_h = SliceRows(traj, s, 1);
    e.z.reserve(lengths[s]);
    for (int t = 0; t < lengths[s]; ++t) {
      e.z.push_back(SliceRows(out.z, node, graphs.sizes[g]));
      node += graphs.sizes[g];
      ++g;
    }
    e.points = pts[s];
    row += lengths[s];
    encoded.push_back(std::move(e));
  }
  return encoded;
}

void RnTrajRec::SplitEncoded(const std::vector<Encoded>& encoded,
                             std::vector<Tensor>* enc,
                             std::vector<Tensor>* traj) {
  enc->reserve(encoded.size());
  traj->reserve(encoded.size());
  for (const Encoded& e : encoded) {
    enc->push_back(e.enc);
    traj->push_back(e.traj_h);
  }
}

std::vector<const RnTrajRec::PointContexts*> RnTrajRec::ResolveAllPoints(
    const std::vector<const TrajectorySample*>& samples,
    std::vector<PointContexts>* scratch) const {
  scratch->resize(samples.size());
  std::vector<const PointContexts*> pts;
  pts.reserve(samples.size());
  for (size_t i = 0; i < samples.size(); ++i) {
    pts.push_back(&ResolvePoints(*samples[i], &(*scratch)[i]));
  }
  return pts;
}

Tensor RnTrajRec::TrainLoss(const TrajectorySample& sample) {
  return TrainLossBatch({&sample}).front();
}

std::vector<Tensor> RnTrajRec::TrainLossBatch(
    const std::vector<const TrajectorySample*>& samples) {
  if (samples.empty()) return {};
  std::vector<PointContexts> scratch;
  std::vector<Encoded> encoded =
      EncodeBatch(samples, ResolveAllPoints(samples, &scratch));
  // One fat GRU/attention/head step per target timestep for the whole
  // mini-batch. The GCL term (Eq. (18)) stays per sample — it reads ragged
  // sub-graph logits.
  std::vector<Tensor> enc;
  std::vector<Tensor> traj;
  SplitEncoded(encoded, &enc, &traj);
  std::vector<Tensor> losses = decoder_.TrainLossBatch(enc, traj, samples);
  if (cfg_.use_gcl && cfg_.gpsformer.use_grl) {
    for (size_t i = 0; i < samples.size(); ++i) {
      losses[i] = Add(losses[i],
                      MulScalar(GraphClassificationLoss(encoded[i], *samples[i]),
                                cfg_.lambda_gcl));
    }
  }
  return losses;
}

MatchedTrajectory RnTrajRec::Recover(const TrajectorySample& sample) {
  return RecoverBatch({&sample}).front();
}

std::vector<MatchedTrajectory> RnTrajRec::RecoverBatch(
    const std::vector<const TrajectorySample*>& samples) {
  if (samples.empty()) return {};
  NoGradGuard guard;
  std::vector<PointContexts> scratch;
  std::vector<Encoded> encoded =
      EncodeBatch(samples, ResolveAllPoints(samples, &scratch));
  // A serving micro-batch costs one padded encoder pass and one fat decoder
  // step per target timestep (early-finishing lanes drop out of the GEMMs as
  // their targets end).
  std::vector<Tensor> enc;
  std::vector<Tensor> traj;
  SplitEncoded(encoded, &enc, &traj);
  return decoder_.DecodeBatch(enc, traj, samples);
}

}  // namespace rntraj
