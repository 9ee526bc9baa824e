#ifndef RNTRAJ_CORE_MODEL_API_H_
#define RNTRAJ_CORE_MODEL_API_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/nn/state_dict.h"
#include "src/roadnet/grid.h"
#include "src/roadnet/road_network.h"
#include "src/roadnet/rtree.h"
#include "src/sim/dataset.h"
#include "src/snapshot/snapshot.h"
#include "src/tensor/tensor.h"
#include "src/traj/trajectory.h"

/// \file model_api.h
/// The unified interface every trajectory-recovery method implements
/// (RNTrajRec, the seven learned baselines, and the non-learned two-stage
/// pipelines), so the benchmark harness can sweep methods uniformly.

namespace rntraj {

/// Shared, read-only dataset resources handed to models at construction.
struct ModelContext {
  const RoadNetwork* rn = nullptr;
  const GridMapping* grid = nullptr;
  const RTree* rtree = nullptr;
  const NetworkDistance* netdist = nullptr;
  double eps_rho = 12.0;

  static ModelContext FromDataset(const Dataset& ds) {
    return {&ds.roadnet(), &ds.grid(), &ds.rtree(), &ds.netdist(),
            ds.config().sim.eps_rho};
  }
};

/// A trajectory-recovery method.
///
/// The contract is a batch contract. Training: the harness calls
/// `BeginBatch()` once per optimiser step (models with batch-level shared
/// computation, e.g. RNTrajRec's road representation, refresh it there),
/// then `TrainLossBatch` over the mini-batch, and averages the returned
/// per-sample losses. Inference: `BeginInference()` once, then
/// `RecoverBatch` over each batch of samples (serving micro-batches,
/// offline splits). A sample's answer must not depend on which other
/// samples share its batch; the single-sample `TrainLoss`/`Recover` are
/// batches of one. Models may only read `input`, `input_indices`, and the
/// target length/timestamps from a sample at inference.
class RecoveryModel {
 public:
  virtual ~RecoveryModel() = default;

  virtual std::string name() const = 0;

  /// Canonical named state: every parameter and persistent buffer under a
  /// stable name — the surface snapshots, checkpoints, hot swap and the
  /// trainer's optimiser all speak. Module-backed models forward to
  /// Module::StateDict() (dotted registration paths); the default is empty,
  /// for methods with nothing to learn.
  virtual rntraj::StateDict StateDict() const { return {}; }

  /// Total scalar count of the learnable entries (buffers skipped).
  int64_t ParameterCount() const {
    int64_t n = 0;
    for (const Tensor& p : LearnableTensors(StateDict())) n += p.size();
    return n;
  }

  /// True for methods trained by gradient descent: those with learnable
  /// entries.
  bool IsLearned() const { return ParameterCount() > 0; }

  /// Writes this model's state to a versioned binary snapshot (atomic
  /// tmp+rename): the state dict + a model-name meta tag. Derived state
  /// (RnTrajRec's road representation) is not stored; BeginInference
  /// recomputes it from the loaded weights.
  bool SaveSnapshot(const std::string& path, std::string* error = nullptr) {
    snapshot::Snapshot snap;
    snap.state = StateDict();
    snap.model_name = name();
    return snapshot::WriteSnapshot(path, snap, error);
  }

  /// Restores state from a snapshot file. Strict: every model entry must be
  /// present with its exact shape and the file must contain nothing else.
  /// All failures (I/O, corruption, foreign version, wrong shapes) return
  /// false with a diagnostic in `*error` and leave the model untouched —
  /// never an abort.
  bool LoadSnapshot(const std::string& path, std::string* error = nullptr) {
    snapshot::Snapshot snap;
    if (!snapshot::ReadSnapshot(path, &snap, error)) return false;
    return snapshot::ApplyStateDict(StateDict(), snap.state, error);
  }

  /// Optimiser steps this model has seen (= BeginBatch calls). Models with
  /// step-keyed internal streams (RnTrajRec's scheduled-sampling seeds)
  /// override both so a checkpoint resume replays the exact stream position;
  /// the default pair means "no such state".
  virtual uint64_t TrainingSteps() const { return 0; }
  virtual void SetTrainingSteps(uint64_t steps) { (void)steps; }

  /// Hook before each optimiser step (refresh batch-shared state).
  virtual void BeginBatch() {}

  /// Scalar training loss for one sample.
  virtual Tensor TrainLoss(const TrajectorySample& sample) = 0;

  /// Training losses for a batch of samples, order preserved. The default
  /// loops TrainLoss (the per-sample baselines); RnTrajRec overrides it with
  /// its padded forward, one encoder pass for the whole batch.
  virtual std::vector<Tensor> TrainLossBatch(
      const std::vector<const TrajectorySample*>& samples) {
    std::vector<Tensor> losses;
    losses.reserve(samples.size());
    for (const TrajectorySample* s : samples) losses.push_back(TrainLoss(*s));
    return losses;
  }

  /// True when Recover/RecoverBatch may be called concurrently after one
  /// BeginInference — the contract the online serving sessions (src/serve/)
  /// rely on. The default is false, which clamps a service to one session;
  /// RnTrajRec's forwards are re-entrant (per-call scratch + lock-protected
  /// memo caches) and override this to true.
  virtual bool SupportsConcurrentRecover() const { return false; }

  /// Installs an alternative answerer for the model's road-network radius
  /// queries (sub-graph generation, decoder constraint masks). Serving
  /// installs an exact grid-cell-keyed cache shared across sessions; models
  /// without such queries ignore it. Pass nullptr to restore direct R-tree
  /// queries. Not thread-safe: call before concurrent use, keep `source`
  /// alive while installed.
  virtual void SetSegmentQuerySource(const SegmentQuerySource* source) {
    (void)source;
  }

  /// Hook before a sequence of RecoverBatch calls (precompute shared state; the
  /// paper's Fig. 6 likewise excludes road-representation time from
  /// inference).
  virtual void BeginInference() {}

  /// Recovers the map-matched eps_rho-interval trajectory.
  virtual MatchedTrajectory Recover(const TrajectorySample& sample) = 0;

  /// Recovers a batch of samples, order preserved. The default loops
  /// Recover (the per-sample baselines); RnTrajRec overrides it so a serving
  /// micro-batch costs one encoder pass.
  virtual std::vector<MatchedTrajectory> RecoverBatch(
      const std::vector<const TrajectorySample*>& samples) {
    std::vector<MatchedTrajectory> out;
    out.reserve(samples.size());
    for (const TrajectorySample* s : samples) out.push_back(Recover(*s));
    return out;
  }

  /// Train/eval mode toggle (dropout, GraphNorm statistics).
  virtual void SetTrainingMode(bool training) { (void)training; }

  /// Scheduled-sampling knob: probability of feeding ground truth forward
  /// during decoder training. The trainer decays this across epochs.
  virtual void SetTeacherForcing(double prob) { (void)prob; }
};

}  // namespace rntraj

#endif  // RNTRAJ_CORE_MODEL_API_H_
