#ifndef RNTRAJ_CORE_DECODER_H_
#define RNTRAJ_CORE_DECODER_H_

#include <atomic>
#include <vector>

#include "src/common/memo_cache.h"

#include "src/core/model_api.h"
#include "src/nn/attention.h"
#include "src/nn/linear.h"
#include "src/nn/rnn.h"
#include "src/tensor/ops.h"

/// \file decoder.h
/// The multi-task attention-GRU decoder of MTrajRec [11], reused by the
/// paper as the decoder of every end-to-end method (paper §IV-G and §V):
/// per target timestep it attends over encoder outputs, steps a GRU on
/// [x_{j-1} || r_{j-1} || a_j], predicts the road segment through a
/// constraint-masked softmax (Eq. (16)) and the moving ratio through a
/// sigmoid regression head (Eq. (17)).

namespace rntraj {

/// Decoder hyper-parameters.
struct DecoderConfig {
  int dim = 32;                ///< Hidden size d.
  float beta = 15.0f;          ///< Constraint-mask scale (paper: 15 m).
  double mask_radius = 100.0;  ///< Max GPS error for observed steps (paper: 100 m).
  float lambda_rate = 10.0f;   ///< Loss weight lambda_1 (paper: 10).
  /// Scheduled-sampling: probability of feeding the ground truth (vs the
  /// model's own argmax) forward during training. MTrajRec trains with
  /// partial teacher forcing to control exposure bias; critical for
  /// free-running decode quality.
  double teacher_forcing = 0.5;
  /// Soft spatial prior at unobserved steps: segments near the dead-reckoned
  /// (linearly interpolated) position receive an additive logit
  /// -(d/sigma)^2, floored at `spatial_prior_floor` so the learned logits
  /// can always override it. At paper scale (d=512, 100k+ trajectories) the
  /// decoder learns this spatial plausibility itself; at CPU scale we supply
  /// it as a prior to every method equally (DESIGN.md substitutions).
  float spatial_prior_sigma = 55.0f;
  /// Query radius of the prior: sigma * sqrt(-floor) = 55 * 4 m. Wider is
  /// dead work: a segment at d >= sigma * sqrt(-floor) has -(d/sigma)^2 <=
  /// floor, so it gets exactly the floor, the same logit as a segment the
  /// query never lists. Narrower would change answers.
  double spatial_prior_radius = 220.0;
  float spatial_prior_floor = -16.0f;
};

/// The decoder's greedy choice: the index a strict-`>` scan from v = 0 picks
/// over x[v] = (y[v] + b[v]) + m[v], v in [0, n), n >= 1. The additive mask
/// m is vals[k] at the ascending ids[k] (k < nnz) and `floor` elsewhere; a
/// null `b` reads as zeros, so (row, nullptr, 0, nullptr, nullptr, 0, n) is
/// the argmax of a dense row. Hence ties (-0 against +0 included) go to the
/// lowest index, a NaN is never picked, and a NaN x[0] or a row with nothing
/// above -inf gives 0. The float expression and its evaluation order are
/// those of the dense Add(Add(y, b), mask), so the index is the one a scan
/// of the dense logits picks, without materialising them: one vector pass
/// over (y + b) + floor, then a merge of the listed entries. Every vals[k]
/// must be above `floor` (BuildSampleCache stores no other), so a listed
/// entry never scores below its floor score.
int MaskedArgmax(const float* y, const float* b, float floor, const int* ids,
                 const float* vals, int nnz, int n);

/// Shared decoder; one instance per model.
class Decoder : public Module {
 public:
  Decoder(const DecoderConfig& config, const ModelContext* ctx);

  /// Teacher-forced training losses L_id + lambda_1 L_rate, one scalar per
  /// sample (order preserved). `enc_outputs[i]`/`traj_hs[i]` are sample i's
  /// (l_i, d) encoder states and (1, d) initial GRU state (the
  /// trajectory-level representation); a single sample is a batch of one.
  ///
  /// Per target timestep the whole micro-batch advances through
  /// ONE fat GRU step ((B_active, d) GEMMs), one batched additive-attention
  /// pass over the padded encoder outputs, and one batched constraint-mask
  /// softmax + rate head; lanes whose target is exhausted drop out of the
  /// GEMMs (lanes are sorted by target length so the active set stays a
  /// prefix). Scheduled-sampling coin flips come from per-lane engines
  /// seeded by (epoch, uid), so they are independent of lane order and batch
  /// composition. Batch-composition invariant: a sample's loss does not
  /// depend on which other samples share the batch, up to float rounding
  /// (~1e-6; same-weight GEMMs at different batch heights).
  std::vector<Tensor> TrainLossBatch(
      const std::vector<Tensor>& enc_outputs,
      const std::vector<Tensor>& traj_hs,
      const std::vector<const TrajectorySample*>& samples) const;

  /// Greedy decoding of the full target trajectories (order preserved): the
  /// inference counterpart of TrainLossBatch, one fat GRU/attention/head
  /// step per target timestep with the same early-finish lane compaction.
  /// Batch-composition invariant within float rounding (same segments;
  /// ratios to ~1e-6).
  std::vector<MatchedTrajectory> DecodeBatch(
      const std::vector<Tensor>& enc_outputs,
      const std::vector<Tensor>& traj_hs,
      const std::vector<const TrajectorySample*>& samples) const;

  /// The road-segment embedding table (shared with the id head input x_j).
  const Embedding& seg_embedding() const { return seg_emb_; }

  /// Scheduled-sampling probability (see DecoderConfig::teacher_forcing).
  void set_teacher_forcing(double prob) { cfg_.teacher_forcing = prob; }

  /// Advances the scheduled-sampling stream (call once per optimiser step).
  /// Coin flips are drawn from per-lane engines seeded by (epoch, sample
  /// uid), so concurrent forwards are race-free and a batch's flips do not
  /// depend on the order its samples are processed in.
  void AdvanceSamplingEpoch() {
    sampling_epoch_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Checkpoint hooks: the stream position is the number of advances so
  /// far; restoring it lets a resumed run draw the exact coin flips the
  /// uninterrupted run would have (see RecoveryModel::TrainingSteps).
  uint64_t sampling_epoch() const {
    return sampling_epoch_.load(std::memory_order_relaxed);
  }
  void set_sampling_epoch(uint64_t epoch) {
    sampling_epoch_.store(epoch, std::memory_order_relaxed);
  }

  /// Answers road-network radius queries through `source` instead of the
  /// direct R-tree (see RecoveryModel::SetSegmentQuerySource).
  void set_segment_query_source(const SegmentQuerySource* source) {
    seg_source_ = source;
  }

 private:
  /// Constant per-sample decoding context, memoised across epochs for
  /// dataset samples (uid >= 0) and computed into per-call scratch for
  /// ephemeral serving samples (uid < 0).
  struct SampleCache {
    /// Constraint log-masks plus the soft spatial prior, stored sparsely:
    /// step j's additive logit is vals[k] for v == ids[k] with k in
    /// [offsets[j], offsets[j+1]), and floor[j] for every other segment.
    /// Ids ascend within a step. The floor is kForbiddenLogit at observed
    /// steps and spatial_prior_floor elsewhere.
    struct SparseMasks {
      std::vector<float> floor;  ///< Per step.
      std::vector<int> offsets;  ///< len + 1 entries into ids/vals.
      std::vector<int> ids;
      std::vector<float> vals;
    } masks;
    /// (len, 3) per-step input features derivable from the raw input alone:
    /// normalised target time plus the linearly interpolated observed
    /// position. At paper scale the decoder learns this dead-reckoning
    /// internally (d=512); at CPU scale we provide it as an input channel to
    /// every method equally (see DESIGN.md substitutions).
    Tensor step_features;
  };

  /// Computes one sample's decoding context (pure: no shared state touched
  /// beyond read-only parameters and the query source).
  SampleCache BuildSampleCache(const TrajectorySample& sample) const;

  /// Memoised lookup: returns the cached context for dataset samples,
  /// `*scratch` filled by BuildSampleCache for ephemeral ones (see
  /// UidMemoCache for the re-entrancy invariant).
  const SampleCache& ResolveCache(const TrajectorySample& sample,
                                  SampleCache* scratch) const {
    return cache_.ResolveOrBuild(sample.uid, scratch,
                                 [&] { return BuildSampleCache(sample); });
  }

  /// Shared constant state of one batched decode/train pass. Lanes are the
  /// batch samples reordered by descending target length, so the lanes still
  /// active at step j always form the prefix [0, active_j) and finished
  /// lanes drop out of every GEMM by row slicing alone.
  struct BatchPlan {
    std::vector<int> order;                        ///< Lane -> original index.
    std::vector<const TrajectorySample*> samples;  ///< In lane order.
    std::vector<const SampleCache*> caches;        ///< In lane order.
    std::vector<int> tgt_lens;                     ///< Descending.
    int max_len = 0;
    /// Padded encoder outputs + their W_h projection, shared by every step.
    AdditiveAttention::CachedKeysBatch keys;
    Tensor step_features;  ///< (B*max_len, 3) padded per-step constants.
    Tensor h0;             ///< (B, d) initial GRU states in lane order.
  };

  /// Sorts the lanes, resolves the per-sample caches (into `*scratch` for
  /// ephemeral samples) and precomputes the padded attention keys and step
  /// features. `scratch` must outlive the plan.
  BatchPlan BuildBatchPlan(
      const std::vector<Tensor>& enc_outputs,
      const std::vector<Tensor>& traj_hs,
      const std::vector<const TrajectorySample*>& samples,
      std::vector<SampleCache>* scratch) const;

  /// One fat GRU step for the first `active` lanes: batched additive
  /// attention over `keys` (plan.keys pre-sliced to the active prefix — the
  /// caller re-slices only when the active set shrinks, so steady-state
  /// steps pay no key copies), then a (active, 2d+4) x GRU update.
  /// `h_prev`/`x_prev` are (active, d), `r_prev` is (active, 1).
  Tensor StepBatch(const BatchPlan& plan,
                   const AdditiveAttention::CachedKeysBatch& keys, int active,
                   const Tensor& h_prev, const Tensor& x_prev,
                   const Tensor& r_prev, int j) const;

  /// Expands the step-j constraint masks of the first `active` lanes into one
  /// dense (active, |V|) additive-logit tensor (floor fill + scatter); the
  /// training loss needs every logit for its softmax.
  Tensor MaskStack(const BatchPlan& plan, int active, int j) const;

  DecoderConfig cfg_;
  const ModelContext* ctx_;
  const SegmentQuerySource* seg_source_ = nullptr;
  Embedding seg_emb_;
  AdditiveAttention attn_;
  GruCell gru_;
  Linear id_head_;
  Linear rate_head_;
  UidMemoCache<SampleCache> cache_;
  /// Scheduled-sampling epoch: seeds the per-call coin-flip engine together
  /// with the sample uid (see AdvanceSamplingEpoch).
  std::atomic<uint64_t> sampling_epoch_{0};
};

}  // namespace rntraj

#endif  // RNTRAJ_CORE_DECODER_H_
