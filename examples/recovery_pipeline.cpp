// Recovery pipeline comparison: the paper's motivating scenario. Runs the
// classical two-stage pipeline (Linear+HMM) and the end-to-end RNTrajRec on
// the same Porto-like dataset and reports all six Table III metrics. The
// trained model is then persisted through the snapshot API (SaveSnapshot /
// LoadSnapshot on RecoveryModel) and re-evaluated from a cold process-like
// state, showing that a worker starts from one file of weights instead of
// retraining.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/baselines/zoo.h"
#include "src/core/trainer.h"
#include "src/eval/metrics.h"
#include "src/eval/report.h"
#include "src/sim/presets.h"

using namespace rntraj;

namespace {

std::string SnapshotPath() {
  const char* tmp = std::getenv("TMPDIR");
  return std::string(tmp ? tmp : "/tmp") + "/recovery_pipeline.snapshot";
}

}  // namespace

int main() {
  DatasetConfig config = PortoConfig(BenchScale::kTiny, /*keep_every=*/8);
  auto dataset = BuildDataset(config);
  ModelContext ctx = ModelContext::FromDataset(*dataset);
  std::printf("porto-like city: %d segments; recovering %d points from %d "
              "observations per trajectory\n",
              dataset->roadnet().num_segments(), config.sim.len_rho,
              dataset->test()[0].input.size());

  TablePrinter table(
      {"Method", "Recall", "Precision", "F1", "Accuracy", "MAE", "RMSE"});
  table.PrintHeader();
  RecoveryMetrics trained_metrics;
  for (const char* key : {"linear_hmm", "rntrajrec"}) {
    SeedGlobalRng(3);
    auto model = MakeModel(key, ctx, /*dim=*/16);
    TrainConfig tc;
    tc.epochs = 6;
    // Checkpoint while training: the final checkpoint doubles as the
    // deployable snapshot (it carries the trainer state on top of the
    // weights, which LoadSnapshot simply ignores).
    tc.checkpoint_every = 3;
    tc.checkpoint_path = SnapshotPath();
    TrainModel(*model, dataset->train(), tc);
    auto preds = RecoverAll(*model, dataset->test());
    RecoveryMetrics m =
        EvaluateRecovery(dataset->netdist(), preds, TruthsOf(dataset->test()));
    PrintMetricsRow(table, model->name(), m);
    trained_metrics = m;
  }

  // Restore: a fresh model (differently seeded, so its random init can't
  // mask a broken load) restored from the snapshot must reproduce the
  // trained model's metrics exactly without retraining. The snapshot holds
  // weights only; for RnTrajRec, evaluation's BeginInference recomputes the
  // road representation from them.
  SeedGlobalRng(99);
  auto restored = MakeModel("rntrajrec", ctx, /*dim=*/16);
  std::string err;
  if (!restored->LoadSnapshot(SnapshotPath(), &err)) {
    std::printf("snapshot load failed: %s\n", err.c_str());
    return 1;
  }
  auto preds = RecoverAll(*restored, dataset->test());
  RecoveryMetrics m =
      EvaluateRecovery(dataset->netdist(), preds, TruthsOf(dataset->test()));
  PrintMetricsRow(table, restored->name() + " (snapshot)", m);
  const bool snapshot_exact = m.f1 == trained_metrics.f1 &&
                              m.mae == trained_metrics.mae &&
                              m.rmse == trained_metrics.rmse;
  std::printf("\nsnapshot-restored model reproduces the trained run: %s\n",
              snapshot_exact ? "yes" : "NO");
  std::remove(SnapshotPath().c_str());
  std::printf("(Tiny scale; run the bench_table3_main binary with "
              "RNTR_SCALE=small|full for the paper-shaped comparison.)\n");
  return snapshot_exact ? 0 : 1;
}
