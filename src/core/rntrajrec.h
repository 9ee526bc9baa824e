#ifndef RNTRAJ_CORE_RNTRAJREC_H_
#define RNTRAJ_CORE_RNTRAJREC_H_

#include <string>
#include <vector>

#include "src/common/memo_cache.h"
#include "src/core/decoder.h"
#include "src/core/features.h"
#include "src/core/gpsformer.h"
#include "src/core/gridgnn.h"
#include "src/core/model_api.h"
#include "src/roadnet/subgraph.h"

/// \file rntrajrec.h
/// RNTrajRec (paper §IV-§V), the primary contribution: GridGNN road
/// representation + Sub-Graph Generation + GPSFormer encoder + the
/// multi-task constraint-mask decoder, trained with
/// L = L_id + lambda_1 L_rate + lambda_2 L_enc (Eq. (19)).

namespace rntraj {

/// Full model hyper-parameters (paper defaults annotated).
struct RnTrajRecConfig {
  int dim = 32;             ///< Hidden size d (paper: 512/256).
  double delta = 300.0;     ///< Receptive field delta in meters (paper: 400).
  double gamma = 30.0;      ///< Sub-graph weight scale gamma (paper: 30).
  int max_subgraph_nodes = 32;  ///< CPU cap on sub-graph size.
  float lambda_gcl = 0.1f;  ///< lambda_2 (paper: 0.1).
  bool use_gcl = true;      ///< Table V "w/o GCL" switch.
  GridGnnConfig gridgnn;    ///< M=2 GAT layers (paper).
  GpsFormerConfig gpsformer;  ///< N=2 blocks, P=1 GRL GAT layer (paper).
  DecoderConfig decoder;
  std::string name_suffix;  ///< Display suffix for ablation variants.

  /// Propagates `dim` into the sub-configs. Idempotent, and applied by the
  /// RnTrajRec constructor itself — callers that only set `dim` need not
  /// call it (forgetting used to silently build mismatched sub-module dims).
  /// The fields it writes (sub-config dims, gpsformer.ffn_dim) are derived
  /// from `dim` and cannot be customised independently: the constructor
  /// re-runs Sync(), overwriting hand-set values. An ablation needing, say,
  /// a non-2x ffn width must grow a config knob that Sync() respects.
  void Sync() {
    gridgnn.dim = dim;
    gpsformer.dim = dim;
    gpsformer.ffn_dim = 2 * dim;
    gpsformer.grl.dim = dim;
    decoder.dim = dim;
  }
};

/// The road-network-enhanced trajectory recovery model.
class RnTrajRec : public Module, public RecoveryModel {
 public:
  RnTrajRec(RnTrajRecConfig config, const ModelContext& ctx);

  std::string name() const override {
    return "RNTrajRec" + cfg_.name_suffix;
  }
  rntraj::StateDict StateDict() const override { return Module::StateDict(); }
  /// The step-keyed stream behind scheduled sampling: the decoder seeds its
  /// per-sample coin flips with (steps, uid), so checkpoint resume restores
  /// the counter to replay the exact flips of an uninterrupted run.
  uint64_t TrainingSteps() const override {
    return decoder_.sampling_epoch();
  }
  void SetTrainingSteps(uint64_t steps) override {
    decoder_.set_sampling_epoch(steps);
  }
  void BeginBatch() override;
  void BeginInference() override;
  /// The one forward: EncodeBatch runs one padded GPSFormer pass for the
  /// whole batch and the decoder advances every sample per target timestep
  /// through one fat GRU/attention/head step
  /// (Decoder::{TrainLossBatch,DecodeBatch}, with early-finish lane
  /// compaction). Batch-composition invariant: a sample's answer does not
  /// depend on which other samples share its batch, up to float rounding
  /// (~1e-6; see GpsFormer::ForwardBatch and the decoder batch docs). The
  /// single-sample TrainLoss/Recover are batches of one.
  Tensor TrainLoss(const TrajectorySample& sample) override;
  MatchedTrajectory Recover(const TrajectorySample& sample) override;
  std::vector<Tensor> TrainLossBatch(
      const std::vector<const TrajectorySample*>& samples) override;
  std::vector<MatchedTrajectory> RecoverBatch(
      const std::vector<const TrajectorySample*>& samples) override;
  void SetTrainingMode(bool training) override { SetTraining(training); }
  void SetTeacherForcing(double prob) override {
    decoder_.set_teacher_forcing(prob);
  }
  /// Forwards are re-entrant: per-sample context lives in per-call scratch
  /// (ephemeral samples) or a shared_mutex-guarded memo (dataset samples),
  /// scheduled sampling draws from per-call engines, and GraphNorm running
  /// statistics update under a lock. This unlocks concurrent serving
  /// sessions.
  bool SupportsConcurrentRecover() const override { return true; }
  void SetSegmentQuerySource(const SegmentQuerySource* source) override {
    seg_source_ = source;
    decoder_.set_segment_query_source(source);
  }

  const RnTrajRecConfig& config() const { return cfg_; }

 private:
  /// Immutable per-input-point spatial context (Sub-Graph Generation).
  struct PointContext {
    PointSubGraph sg;
    Tensor pool_weights;  ///< (1, n) omega / sum(omega), for Eq. (6).
    Tensor log_weights;   ///< (1, n) log omega, the Eq. (18) GCL mask.
  };

  /// All point contexts of one sample, cached per sample in the memo.
  using PointContexts = std::vector<PointContext>;

  struct Encoded {
    Tensor enc;                  ///< (l, d) encoder outputs H^N.
    Tensor traj_h;               ///< (1, d) trajectory-level state.
    std::vector<Tensor> z;       ///< Final sub-graph features Z^N.
    const PointContexts* points;
  };

  /// Computes the per-point contexts for one sample (pure).
  PointContexts BuildPointContexts(const TrajectorySample& sample) const;

  /// Memoised lookup: cached for dataset samples, `*scratch` for ephemeral
  /// ones (see UidMemoCache for the re-entrancy invariant).
  const PointContexts& ResolvePoints(const TrajectorySample& sample,
                                     PointContexts* scratch) const {
    return cache_.ResolveOrBuild(sample.uid, scratch,
                                 [&] { return BuildPointContexts(sample); });
  }

  /// Resolves every sample's point contexts (into `*scratch` for ephemeral
  /// samples, which must outlive the returned pointers).
  std::vector<const PointContexts*> ResolveAllPoints(
      const std::vector<const TrajectorySample*>& samples,
      std::vector<PointContexts>* scratch) const;

  /// One padded GPSFormer pass over every sample: the input/trajectory
  /// projections and the encoder run on the concatenated (sum of lengths,
  /// d) storage, and the per-sample Encoded views are sliced back out for
  /// the decoder and the GCL loss. `pts[i]` must be the resolved contexts
  /// of samples[i] and outlive the returned views.
  std::vector<Encoded> EncodeBatch(
      const std::vector<const TrajectorySample*>& samples,
      const std::vector<const PointContexts*>& pts);

  /// Splits EncodeBatch's per-sample views into the parallel
  /// encoder-output/initial-state arrays the batched decoder consumes.
  static void SplitEncoded(const std::vector<Encoded>& encoded,
                           std::vector<Tensor>* enc, std::vector<Tensor>* traj);

  Tensor GraphClassificationLoss(const Encoded& e,
                                 const TrajectorySample& sample) const;

  RnTrajRecConfig cfg_;
  ModelContext ctx_;
  const SegmentQuerySource* seg_source_ = nullptr;
  GridGnn gridgnn_;
  Linear input_proj_;   ///< (d+3) -> d (Sub-Graph Generation output).
  GpsFormer gpsformer_;
  Linear traj_proj_;    ///< (d + f_t) -> d trajectory-level projection.
  Decoder decoder_;
  Tensor gcl_w_;        ///< (d, 1), the Eq. (18) readout weight.
  Tensor xroad_;        ///< Batch-shared road representation.
  UidMemoCache<PointContexts> cache_;
};

}  // namespace rntraj

#endif  // RNTRAJ_CORE_RNTRAJREC_H_
