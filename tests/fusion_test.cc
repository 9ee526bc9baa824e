// The fused elementwise kernels of the forward path. Two layers of proof:
//
//  * op layer — every fused kernel gradchecks (including the masked/padded
//    and empty-row edge cases) and matches the generic op chain it names,
//    written out explicitly below, within FMA rounding (~1e-6; the softmax
//    is bit-identical by construction);
//  * model layer — a full RnTrajRec TrainLoss backpropagates through the
//    fused backwards end to end.

#include <gtest/gtest.h>

#include <cmath>

#include "src/common/random.h"
#include "src/core/rntrajrec.h"
#include "src/sim/presets.h"
#include "src/tensor/fusion.h"
#include "src/tensor/ops.h"
#include "tests/test_util.h"

namespace rntraj {
namespace {

using testing_util::MaxGradError;

constexpr double kTol = 2e-2;

Tensor SmoothLoss(const Tensor& t) { return MeanAll(Mul(t, t)); }

// ---------------------------------------------------------------- gradcheck

TEST(FusionGradCheck, BiasActRowRelu) {
  SeedGlobalRng(801);
  Tensor x = Tensor::Randn({3, 4}, 1.0f, true);
  Tensor b = Tensor::Randn({4}, 1.0f, true);
  EXPECT_LT(MaxGradError(
                [&] {
                  return SmoothLoss(
                      fusion::BiasAct(x, b, fusion::Act::kRelu));
                },
                {x, b}),
            kTol);
}

TEST(FusionGradCheck, BiasActRowSigmoid) {
  SeedGlobalRng(802);
  Tensor x = Tensor::Randn({3, 4}, 1.0f, true);
  Tensor b = Tensor::Randn({4}, 1.0f, true);
  EXPECT_LT(MaxGradError(
                [&] {
                  return SmoothLoss(
                      fusion::BiasAct(x, b, fusion::Act::kSigmoid));
                },
                {x, b}),
            kTol);
}

TEST(FusionGradCheck, BiasActRowTanh) {
  SeedGlobalRng(803);
  Tensor x = Tensor::Randn({2, 5}, 1.0f, true);
  Tensor b = Tensor::Randn({5}, 1.0f, true);
  EXPECT_LT(MaxGradError(
                [&] {
                  return SmoothLoss(
                      fusion::BiasAct(x, b, fusion::Act::kTanh));
                },
                {x, b}),
            kTol);
}

TEST(FusionGradCheck, BiasActRowLeakyRelu) {
  SeedGlobalRng(804);
  Tensor x = Tensor::Randn({3, 4}, 1.0f, true);
  Tensor b = Tensor::Randn({4}, 1.0f, true);
  EXPECT_LT(MaxGradError(
                [&] {
                  return SmoothLoss(
                      fusion::BiasAct(x, b, fusion::Act::kLeakyRelu, 0.2f));
                },
                {x, b}),
            kTol);
}

// The GRL gated-fusion pattern: an x-shaped "bias" that carries gradient.
TEST(FusionGradCheck, BiasActSameShapeSigmoid) {
  SeedGlobalRng(805);
  Tensor x = Tensor::Randn({4, 3}, 1.0f, true);
  Tensor b = Tensor::Randn({4, 3}, 1.0f, true);
  EXPECT_LT(MaxGradError(
                [&] {
                  return SmoothLoss(
                      fusion::BiasAct(x, b, fusion::Act::kSigmoid));
                },
                {x, b}),
            kTol);
}

TEST(FusionGradCheck, BiasActNoBiasTanh) {
  SeedGlobalRng(806);
  Tensor x = Tensor::Randn({3, 4}, 1.0f, true);
  EXPECT_LT(MaxGradError(
                [&] {
                  return SmoothLoss(
                      fusion::BiasAct(x, Tensor(), fusion::Act::kTanh));
                },
                {x}),
            kTol);
}

// Masked overload: padding rows (mask 0) must carry no gradient at all.
TEST(FusionGradCheck, ResidualLayerNormMasked) {
  SeedGlobalRng(808);
  Tensor a = Tensor::Randn({4, 6}, 1.0f, true);
  Tensor b = Tensor::Randn({4, 6}, 1.0f, true);
  Tensor gamma = Tensor::Randn({6}, 1.0f, true);
  Tensor beta = Tensor::Randn({6}, 1.0f, true);
  Tensor mask = Tensor::FromVector({4, 1}, {1.0f, 1.0f, 0.0f, 1.0f});
  EXPECT_LT(
      MaxGradError(
          [&] {
            return SmoothLoss(
                fusion::ResidualLayerNorm(a, b, gamma, beta, 1e-5f, mask));
          },
          {a, b, gamma, beta}),
      kTol);

  // And the padding row's inputs really get zero gradient.
  a.ZeroGrad();
  b.ZeroGrad();
  SmoothLoss(fusion::ResidualLayerNorm(a, b, gamma, beta, 1e-5f, mask))
      .Backward();
  for (int j = 0; j < 6; ++j) {
    EXPECT_EQ(a.grad()[2 * 6 + j], 0.0f);
    EXPECT_EQ(b.grad()[2 * 6 + j], 0.0f);
  }
}

// Length-masked variant with an empty (valid == 0) row.
TEST(FusionGradCheck, ScaleLengthMaskedSoftmaxWithEmptyRow) {
  SeedGlobalRng(811);
  Tensor x = Tensor::Randn({4, 5}, 1.0f, true);
  const std::vector<int> valid = {5, 3, 0, 1};
  EXPECT_LT(
      MaxGradError(
          [&] {
            return SmoothLoss(fusion::ScaleLengthMaskedSoftmax(x, 0.7f, valid));
          },
          {x}),
      kTol);
  // Empty row: output all zero.
  NoGradGuard guard;
  Tensor y = fusion::ScaleLengthMaskedSoftmax(x, 0.7f, valid);
  for (int j = 0; j < 5; ++j) EXPECT_EQ(y.at(2, j), 0.0f);
}

TEST(FusionGradCheck, ScaleShiftRows) {
  SeedGlobalRng(812);
  Tensor a = Tensor::Randn({3, 6}, 1.0f, true);
  Tensor gamma = Tensor::Randn({6}, 1.0f, true);
  Tensor beta = Tensor::Randn({6}, 1.0f, true);
  EXPECT_LT(MaxGradError(
                [&] {
                  return SmoothLoss(fusion::ScaleShiftRows(a, gamma, beta));
                },
                {a, gamma, beta}),
            kTol);
}

// ---------------------------------------------- fused == generic op chain

// The fused GRU cell: both kernels and the three GEMMs between them, with
// every input requiring grad, with and without a freeze mask that has both
// frozen and live rows.
Tensor FusedGruStep(const Tensor& x, const Tensor& h, const Tensor& wx,
                    const Tensor& wzr, const Tensor& wc, const Tensor& bias,
                    const Tensor& mask) {
  Tensor xw = Matmul(x, wx);
  Tensor hw = Matmul(h, wzr);
  fusion::GruGateValues gates = fusion::GruGates(xw, bias, hw, h);
  return fusion::GruOutput(gates, xw, bias, hw, Matmul(gates.rh, wc), h, mask);
}

TEST(FusionGradCheck, GruCell) {
  SeedGlobalRng(810);
  Tensor x = Tensor::Randn({3, 2}, 1.0f, true);
  Tensor h = Tensor::Randn({3, 4}, 0.5f, true);
  Tensor wx = Tensor::Randn({2, 12}, 0.5f, true);
  Tensor wzr = Tensor::Randn({4, 8}, 0.5f, true);
  Tensor wc = Tensor::Randn({4, 4}, 0.5f, true);
  Tensor bias = Tensor::Randn({12}, 0.5f, true);
  const Tensor mask = Tensor::FromVector({3, 1}, {1.0f, 0.0f, 1.0f});
  for (const Tensor& m : {Tensor(), mask}) {
    EXPECT_LT(MaxGradError(
                  [&] {
                    return SmoothLoss(FusedGruStep(x, h, wx, wzr, wc, bias, m));
                  },
                  {x, h, wx, wzr, wc, bias}),
              kTol)
        << (m.defined() ? "masked" : "unmasked");
  }
}

// Each fused kernel against the generic op chain it replaces, spelled out
// op by op. The softmax shares the exact kernel pipeline, so it is
// bit-identical; the rest agree within FMA/accumulation-order rounding
// (~1e-6 on O(1) values).
TEST(FusionEquivalence, FusedMatchesGenericChain) {
  SeedGlobalRng(820);
  NoGradGuard guard;
  Tensor x = Tensor::Randn({5, 8}, 1.0f);
  Tensor b = Tensor::Randn({8}, 1.0f);
  Tensor a2 = Tensor::Randn({5, 8}, 1.0f);
  Tensor gamma = Tensor::Randn({8}, 1.0f);
  Tensor beta = Tensor::Randn({8}, 1.0f);
  const std::vector<int> valid = {8, 5, 0, 8, 2};
  Tensor row_mask = Tensor::FromVector({5, 1}, {1, 1, 0, 1, 1});

  // Mul(LayerNorm(x + a2), row_mask) as the generic ops compute it.
  Tensor sum = Add(x, a2);
  Tensor xc = Sub(sum, RowMean(sum));
  Tensor normed = Div(xc, Sqrt(AddScalar(RowMean(Square(xc)), 1e-5f)));
  Tensor layer_norm = Mul(Add(Mul(normed, gamma), beta), row_mask);

  const std::vector<std::pair<Tensor, Tensor>> pairs = {
      {fusion::BiasAct(x, b, fusion::Act::kRelu), Relu(Add(x, b))},
      {fusion::BiasAct(x, b, fusion::Act::kLeakyRelu, 0.2f),
       LeakyRelu(Add(x, b), 0.2f)},
      {fusion::BiasAct(x, b, fusion::Act::kSigmoid),
       Sigmoid(Add(x, b))},
      {fusion::BiasAct(x, a2, fusion::Act::kTanh), Tanh(Add(x, a2))},
      {fusion::BiasAct(x, Tensor(), fusion::Act::kTanh), Tanh(x)},
      {fusion::ResidualLayerNorm(x, a2, gamma, beta, 1e-5f, row_mask),
       layer_norm},
      {fusion::ScaleLengthMaskedSoftmax(x, 0.25f, valid),
       LengthMaskedSoftmaxRows(MulScalar(x, 0.25f), valid)},
      {fusion::ScaleShiftRows(x, gamma, beta), Add(Mul(x, gamma), beta)},
  };
  for (size_t k = 0; k < pairs.size(); ++k) {
    const Tensor& fused = pairs[k].first;
    const Tensor& chain = pairs[k].second;
    ASSERT_EQ(fused.size(), chain.size()) << "op " << k;
    for (size_t i = 0; i < fused.data().size(); ++i) {
      EXPECT_NEAR(chain.data()[i], fused.data()[i], 1e-6)
          << "op " << k << " at " << i;
    }
  }
}

// The fused softmax runs the same RowMax/ExpRowMinusMax pipeline on the same
// values as the chain it replaces — pin bitwise identity.
TEST(FusionEquivalence, ScaleLengthMaskedSoftmaxBitIdenticalToChain) {
  SeedGlobalRng(821);
  NoGradGuard guard;
  Tensor x = Tensor::Randn({4, 7}, 2.0f);
  const std::vector<int> valid = {7, 3, 1, 6};
  Tensor chain = LengthMaskedSoftmaxRows(MulScalar(x, 0.3f), valid);
  Tensor fused = fusion::ScaleLengthMaskedSoftmax(x, 0.3f, valid);
  for (size_t i = 0; i < chain.data().size(); ++i) {
    EXPECT_EQ(chain.data()[i], fused.data()[i]) << "at " << i;
  }
}

// The fused GRU cell against the op chain GruCell::Forward used to record
// (and GridGNN's freeze blend after it): bit for bit, masked and unmasked,
// at a vector-tail width.
TEST(FusionEquivalence, GruCellBitIdenticalToChain) {
  SeedGlobalRng(822);
  NoGradGuard guard;
  const int n = 6;
  const int d = 11;
  Tensor x = Tensor::Randn({n, 5}, 1.0f);
  Tensor h = Tensor::Randn({n, d}, 0.7f);
  Tensor wx = Tensor::Randn({5, 3 * d}, 0.6f);
  Tensor wzr = Tensor::Randn({d, 2 * d}, 0.6f);
  Tensor wc = Tensor::Randn({d, d}, 0.6f);
  Tensor bias = Tensor::Randn({3 * d}, 0.5f);
  Tensor mask = Tensor::FromVector({n, 1}, {1, 0, 1, 1, 0, 1});

  Tensor xw = Add(Matmul(x, wx), bias);
  Tensor hw = Matmul(h, wzr);
  Tensor z = Sigmoid(Add(SliceCols(xw, 0, d), SliceCols(hw, 0, d)));
  Tensor r = Sigmoid(Add(SliceCols(xw, d, d), SliceCols(hw, d, d)));
  Tensor c = Tanh(Add(SliceCols(xw, 2 * d, d), Matmul(Mul(r, h), wc)));
  Tensor chain = Add(Mul(AddScalar(Neg(z), 1.0f), h), Mul(z, c));
  Tensor chain_masked =
      Add(Mul(chain, mask), Mul(h, AddScalar(Neg(mask), 1.0f)));

  const std::pair<Tensor, Tensor> pairs[] = {
      {FusedGruStep(x, h, wx, wzr, wc, bias, Tensor()), chain},
      {FusedGruStep(x, h, wx, wzr, wc, bias, mask), chain_masked}};
  for (const auto& [fused, want] : pairs) {
    ASSERT_EQ(fused.shape(), want.shape());
    for (size_t i = 0; i < want.data().size(); ++i) {
      EXPECT_EQ(want.data()[i], fused.data()[i]) << "at " << i;
    }
  }
}

// Masked residual LayerNorm: padding rows are exactly zero even though the
// affine shift beta is non-zero.
TEST(FusionEquivalence, MaskedResidualLayerNormKeepsPaddingRowsZero) {
  SeedGlobalRng(823);
  NoGradGuard guard;
  Tensor a = Tensor::Randn({3, 4}, 1.0f);
  Tensor b = Tensor::Randn({3, 4}, 1.0f);
  Tensor gamma = Tensor::Full({4}, 1.5f);
  Tensor beta = Tensor::Full({4}, 0.7f);  // non-zero shift
  Tensor mask = Tensor::FromVector({3, 1}, {1.0f, 0.0f, 1.0f});
  Tensor y = fusion::ResidualLayerNorm(a, b, gamma, beta, 1e-5f, mask);
  for (int j = 0; j < 4; ++j) EXPECT_EQ(y.at(1, j), 0.0f);
}

// ------------------------------------------------------------ model layer

class FusionModelFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatasetConfig cfg = ChengduConfig(BenchScale::kTiny);
    cfg.num_train = 4;
    cfg.num_val = 1;
    cfg.num_test = 3;
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

  static RnTrajRecConfig SmallConfig() {
    RnTrajRecConfig cfg;
    cfg.dim = 16;
    cfg.delta = 250.0;
    cfg.max_subgraph_nodes = 16;
    cfg.gridgnn.gnn_layers = 1;
    cfg.gridgnn.heads = 2;
    cfg.gpsformer.blocks = 1;
    cfg.gpsformer.heads = 2;
    cfg.gpsformer.grl.heads = 2;
    cfg.Sync();
    return cfg;
  }

  static Dataset* dataset_;
  static ModelContext* ctx_;
};

Dataset* FusionModelFixture::dataset_ = nullptr;
ModelContext* FusionModelFixture::ctx_ = nullptr;

// Training smoke: one TrainLoss backward must produce finite loss and
// gradients (the fused backwards run end to end).
TEST_F(FusionModelFixture, TrainLossBackpropagatesThroughFusedKernels) {
  SeedGlobalRng(843);
  RnTrajRec model(SmallConfig(), *ctx_);
  model.SetTrainingMode(true);
  model.BeginBatch();
  Tensor loss = model.TrainLoss(dataset_->train()[0]);
  EXPECT_TRUE(std::isfinite(loss.item()));
  loss.Backward();
  double grad_norm = 0.0;
  for (auto& p : model.Parameters()) {
    for (float g : p.grad()) grad_norm += std::abs(g);
  }
  EXPECT_TRUE(std::isfinite(grad_norm));
  EXPECT_GT(grad_norm, 0.0);
}

}  // namespace
}  // namespace rntraj
