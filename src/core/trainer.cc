#include "src/core/trainer.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <numeric>

#include "src/common/random.h"
#include "src/nn/optim.h"
#include "src/tensor/buffer_pool.h"
#include "src/tensor/ops.h"

namespace rntraj {

TrainStats TrainModel(RecoveryModel& model,
                      const std::vector<TrajectorySample>& data,
                      const TrainConfig& cfg) {
  TrainStats stats;
  if (!model.IsLearned() || data.empty()) return stats;

  const auto start = std::chrono::steady_clock::now();
  // Stage profiling: flip the global profiler on for the run and report each
  // epoch's delta, so the per-epoch tables attribute that epoch's wall time
  // only (the profiler is cumulative and process-global).
  obs::StageProfiler& profiler = obs::StageProfiler::Global();
  const bool prev_profiling = profiler.enabled();
  if (cfg.profile_stages) profiler.set_enabled(true);
  const obs::StageProfile profile_start = profiler.Snapshot();
  obs::StageProfile profile_prev = profile_start;
  // Recycle op outputs across iterations: after the first batch, nearly every
  // forward/backward allocation is served from the pool.
  BufferPoolScope pool_scope;
  model.SetTrainingMode(true);
  // The optimiser updates the state dict's learnable entries in the dict's
  // deterministic registration order: the dict layout is what checkpoints
  // serialise, so the Adam moment arenas line up with it by construction.
  std::vector<Tensor> params = LearnableTensors(model.StateDict());
  Adam opt(params, cfg.lr);
  Rng rng(cfg.seed);

  // Resume: restore model + optimiser state, then replay the skipped
  // epochs schedule-only below so every cross-epoch stream (shuffle RNG,
  // teacher-forcing decay) sits exactly where the uninterrupted run's would.
  int start_epoch = 0;
  if (!cfg.resume_from.empty()) {
    snapshot::Snapshot snap;
    std::string err;
    RNTRAJ_CHECK_MSG(snapshot::ReadSnapshot(cfg.resume_from, &snap, &err),
                     "resume_from: " << err);
    RNTRAJ_CHECK_MSG(snap.has_trainer_state,
                     "resume_from: '" << cfg.resume_from
                                      << "' has no trainer-state section");
    RNTRAJ_CHECK_MSG(
        snapshot::ApplyStateDict(model.StateDict(), snap.state, &err),
        "resume_from: " << err);
    RNTRAJ_CHECK_MSG(opt.ImportState(snap.trainer.adam, &err),
                     "resume_from: " << err);
    model.SetTrainingSteps(snap.trainer.training_steps);
    start_epoch = static_cast<int>(snap.trainer.epochs_done);
    RNTRAJ_CHECK_MSG(start_epoch <= cfg.epochs,
                     "resume_from: checkpoint has "
                         << start_epoch << " epochs done, config wants "
                         << cfg.epochs);
  }

  std::vector<int> order(data.size());
  std::iota(order.begin(), order.end(), 0);

  for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
    // Scheduled sampling: decay teacher forcing from 1.0 towards 0.3 so the
    // decoder first learns the task, then learns to recover from itself.
    const double frac = cfg.epochs > 1
                            ? static_cast<double>(epoch) / (cfg.epochs - 1)
                            : 1.0;
    model.SetTeacherForcing(1.0 - 0.7 * frac);
    std::shuffle(order.begin(), order.end(), rng.engine());
    // Replayed (already-trained) epoch of a resumed run: the schedule state
    // above advanced exactly as the original run's did; skip the work.
    if (epoch < start_epoch) continue;
    double epoch_loss = 0.0;
    int batches = 0;
    for (size_t i = 0; i < order.size(); i += cfg.batch_size) {
      const size_t end = std::min(order.size(), i + cfg.batch_size);
      opt.ZeroGrad();
      model.BeginBatch();
      const int count = static_cast<int>(end - i);
      // One batched forward for the whole mini-batch; losses come back in
      // batch order.
      std::vector<const TrajectorySample*> batch_samples(count);
      for (int t = 0; t < count; ++t) batch_samples[t] = &data[order[i + t]];
      const std::vector<Tensor> losses = model.TrainLossBatch(batch_samples);
      Tensor total;
      for (const Tensor& loss : losses) {
        total = total.defined() ? Add(total, loss) : loss;
      }
      total = MulScalar(total, 1.0f / static_cast<float>(count));
      epoch_loss += total.item();
      ++batches;
      total.Backward();
      ClipGradNorm(params, cfg.clip_norm);
      opt.Step();
    }
    stats.epoch_losses.push_back(epoch_loss / std::max(1, batches));
    if (cfg.verbose) {
      std::fprintf(stderr, "[train] epoch %d/%d loss %.4f\n", epoch + 1,
                   cfg.epochs, stats.epoch_losses.back());
    }
    if (cfg.profile_stages) {
      const obs::StageProfile now = profiler.Snapshot();
      if (cfg.verbose) {
        const std::string table = now.Delta(profile_prev).ToTable();
        if (!table.empty()) {
          std::fprintf(stderr, "[train] epoch %d stage profile:\n%s", epoch + 1,
                       table.c_str());
        }
      }
      profile_prev = now;
    }
    if (cfg.checkpoint_every > 0 && !cfg.checkpoint_path.empty() &&
        ((epoch + 1) % cfg.checkpoint_every == 0 || epoch + 1 == cfg.epochs)) {
      snapshot::Snapshot snap;
      snap.state = model.StateDict();
      snap.model_name = model.name();
      snap.has_trainer_state = true;
      snap.trainer.epochs_done = static_cast<uint64_t>(epoch + 1);
      snap.trainer.training_steps = model.TrainingSteps();
      snap.trainer.adam = opt.ExportState();
      std::string err;
      RNTRAJ_CHECK_MSG(snapshot::WriteSnapshot(cfg.checkpoint_path, snap, &err),
                       "checkpoint: " << err);
    }
    if (cfg.stop_after_epoch > 0 && epoch + 1 >= cfg.stop_after_epoch) break;
  }
  if (cfg.profile_stages) {
    stats.stage_profile = profiler.Snapshot().Delta(profile_start);
    profiler.set_enabled(prev_profiling);
  }
  model.SetTrainingMode(false);
  stats.seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  return stats;
}

std::vector<MatchedTrajectory> RecoverAll(
    RecoveryModel& model, const std::vector<TrajectorySample>& data) {
  model.SetTrainingMode(false);
  model.BeginInference();
  // Inference is the steady-state allocation pattern the pool targets: every
  // trajectory repeats the same op sequence over the same shapes.
  BufferPoolScope pool_scope;
  std::vector<MatchedTrajectory> out;
  out.reserve(data.size());
  for (const auto& s : data) out.push_back(model.Recover(s));
  return out;
}

std::vector<MatchedTrajectory> TruthsOf(
    const std::vector<TrajectorySample>& data) {
  std::vector<MatchedTrajectory> out;
  out.reserve(data.size());
  for (const auto& s : data) out.push_back(s.truth);
  return out;
}

}  // namespace rntraj
