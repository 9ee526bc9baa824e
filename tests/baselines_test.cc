#include <gtest/gtest.h>

#include "src/baselines/kalman.h"
#include "src/baselines/two_stage.h"
#include "src/baselines/zoo.h"
#include "src/common/random.h"
#include "src/core/trainer.h"
#include "src/eval/metrics.h"
#include "src/sim/presets.h"

namespace rntraj {
namespace {

class BaselinesFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatasetConfig cfg = ChengduConfig(BenchScale::kTiny);
    cfg.num_train = 8;
    cfg.num_val = 2;
    cfg.num_test = 4;
    cfg.sim.len_rho = 24;
    dataset_ = BuildDataset(cfg).release();
    ctx_ = new ModelContext(ModelContext::FromDataset(*dataset_));
  }
  static void TearDownTestSuite() {
    delete ctx_;
    delete dataset_;
    dataset_ = nullptr;
    ctx_ = nullptr;
  }

  static Dataset* dataset_;
  static ModelContext* ctx_;
};

Dataset* BaselinesFixture::dataset_ = nullptr;
ModelContext* BaselinesFixture::ctx_ = nullptr;

TEST(KalmanTest, SmoothsTowardStraightLine) {
  Rng rng(5);
  // Truth: straight motion x = 10 t, y = 0; noisy observations.
  std::vector<Vec2> truth;
  std::vector<Vec2> noisy;
  for (int t = 0; t < 30; ++t) {
    truth.push_back({10.0 * t, 0.0});
    noisy.push_back({10.0 * t + rng.Gaussian(0, 20), rng.Gaussian(0, 20)});
  }
  auto smoothed = KalmanSmooth(noisy, 1.0);
  ASSERT_EQ(smoothed.size(), truth.size());
  double noisy_err = 0;
  double smooth_err = 0;
  for (size_t i = 0; i < truth.size(); ++i) {
    noisy_err += Distance(noisy[i], truth[i]);
    smooth_err += Distance(smoothed[i], truth[i]);
  }
  EXPECT_LT(smooth_err, noisy_err * 0.8);
}

TEST(KalmanTest, ShortInputsPassThrough) {
  std::vector<Vec2> one = {{5, 5}};
  EXPECT_EQ(KalmanSmooth(one, 1.0).size(), 1u);
  EXPECT_DOUBLE_EQ(KalmanSmooth(one, 1.0)[0].x, 5);
}

TEST(KalmanTest, ConstantInputStaysPut) {
  std::vector<Vec2> obs(10, Vec2{42.0, -7.0});
  auto s = KalmanSmooth(obs, 1.0);
  for (const auto& p : s) {
    EXPECT_NEAR(p.x, 42.0, 1.0);
    EXPECT_NEAR(p.y, -7.0, 1.0);
  }
}

TEST_F(BaselinesFixture, ZooListsTableThreeOrder) {
  auto keys = TableThreeMethodKeys();
  ASSERT_EQ(keys.size(), 9u);
  EXPECT_EQ(keys.front(), "linear_hmm");
  EXPECT_EQ(keys.back(), "rntrajrec");
}

TEST_F(BaselinesFixture, ZooRejectsUnknownKey) {
  EXPECT_DEATH(MakeModel("nope", *ctx_, 8), "unknown method");
}

TEST_F(BaselinesFixture, EveryMethodProducesWellFormedRecovery) {
  for (const auto& key : TableThreeMethodKeys()) {
    SeedGlobalRng(55);
    auto model = MakeModel(key, *ctx_, 16);
    EXPECT_EQ(model->IsLearned(), key != "linear_hmm") << key;
    model->SetTrainingMode(false);
    model->BeginInference();
    const auto& s = dataset_->test()[0];
    MatchedTrajectory rec = model->Recover(s);
    ASSERT_EQ(rec.size(), s.truth.size()) << key;
    for (const auto& p : rec.points) {
      EXPECT_GE(p.seg_id, 0) << key;
      EXPECT_LT(p.seg_id, ctx_->rn->num_segments()) << key;
      EXPECT_GE(p.ratio, 0.0) << key;
      EXPECT_LT(p.ratio, 1.0) << key;
    }
  }
}

TEST_F(BaselinesFixture, LearnedMethodsHaveFiniteLossAndGradients) {
  for (const auto& key : TableThreeMethodKeys()) {
    if (key == "linear_hmm") continue;
    SeedGlobalRng(56);
    auto model = MakeModel(key, *ctx_, 16);
    model->SetTrainingMode(true);
    model->BeginBatch();
    Tensor loss = model->TrainLoss(dataset_->train()[0]);
    ASSERT_TRUE(loss.defined()) << key;
    EXPECT_TRUE(std::isfinite(loss.item())) << key;
    loss.Backward();
    auto params = LearnableTensors(model->StateDict());
    double norm = 0;
    for (auto& p : params) {
      for (float g : p.grad()) norm += std::abs(g);
    }
    EXPECT_GT(norm, 0.0) << key;
    EXPECT_TRUE(std::isfinite(norm)) << key;
  }
}

TEST_F(BaselinesFixture, TrainingImprovesMTrajRec) {
  SeedGlobalRng(57);
  auto model = MakeModel("mtrajrec", *ctx_, 16);
  TrainConfig tcfg;
  tcfg.epochs = 4;
  tcfg.batch_size = 4;
  tcfg.lr = 3e-3f;
  TrainStats stats = TrainModel(*model, dataset_->train(), tcfg);
  ASSERT_EQ(stats.epoch_losses.size(), 4u);
  EXPECT_LT(stats.epoch_losses.back(), stats.epoch_losses.front());
}

TEST_F(BaselinesFixture, TrainingImprovesDhtr) {
  SeedGlobalRng(58);
  auto model = MakeModel("dhtr_hmm", *ctx_, 16);
  TrainConfig tcfg;
  tcfg.epochs = 4;
  tcfg.batch_size = 4;
  tcfg.lr = 3e-3f;
  TrainStats stats = TrainModel(*model, dataset_->train(), tcfg);
  EXPECT_LT(stats.epoch_losses.back(), stats.epoch_losses.front());
}

TEST_F(BaselinesFixture, LinearHmmNeedsNoTraining) {
  auto model = MakeModel("linear_hmm", *ctx_, 16);
  TrainConfig tcfg;
  TrainStats stats = TrainModel(*model, dataset_->train(), tcfg);
  EXPECT_TRUE(stats.epoch_losses.empty());
  EXPECT_EQ(model->ParameterCount(), 0);
  // And it still recovers reasonably: observed points pin it to the road.
  auto preds = RecoverAll(*model, dataset_->test());
  auto truths = TruthsOf(dataset_->test());
  RecoveryMetrics m = EvaluateRecovery(dataset_->netdist(), preds, truths);
  EXPECT_GT(m.accuracy, 0.05);
  EXPECT_LT(m.mae, 2000.0);
}

TEST_F(BaselinesFixture, ParameterCountsDifferAcrossMethods) {
  auto a = MakeModel("mtrajrec", *ctx_, 16);
  auto b = MakeModel("rntrajrec", *ctx_, 16);
  EXPECT_GT(b->ParameterCount(), a->ParameterCount());
}

}  // namespace
}  // namespace rntraj
