#include "src/tensor/tensor.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/tensor/op_helpers.h"
#include "src/tensor/ops.h"
#include "tests/test_util.h"

namespace rntraj {
namespace {

using testing_util::ExpectVectorNear;

TEST(TensorBasics, ZerosShapeAndValues) {
  Tensor t = Tensor::Zeros({2, 3});
  EXPECT_EQ(t.rank(), 2);
  EXPECT_EQ(t.dim(0), 2);
  EXPECT_EQ(t.dim(1), 3);
  EXPECT_EQ(t.size(), 6);
  for (int i = 0; i < 6; ++i) EXPECT_EQ(t.data()[i], 0.0f);
}

TEST(TensorBasics, FullAndScalar) {
  Tensor t = Tensor::Full({4}, 2.5f);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(t.at(i), 2.5f);
  Tensor s = Tensor::Scalar(-1.5f);
  EXPECT_EQ(s.item(), -1.5f);
}

TEST(TensorBasics, FromVectorRowMajorAt) {
  Tensor t = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  EXPECT_EQ(t.at(0, 0), 1);
  EXPECT_EQ(t.at(0, 1), 2);
  EXPECT_EQ(t.at(1, 0), 3);
  EXPECT_EQ(t.at(1, 1), 4);
}

TEST(TensorBasics, RandnIsSeededDeterministically) {
  SeedGlobalRng(7);
  Tensor a = Tensor::Randn({8}, 1.0f);
  SeedGlobalRng(7);
  Tensor b = Tensor::Randn({8}, 1.0f);
  ExpectVectorNear(a.data(), b.data());
}

TEST(TensorBasics, DetachSharesNoHistory) {
  Tensor a = Tensor::Full({2}, 3.0f, /*requires_grad=*/true);
  Tensor b = MulScalar(a, 2.0f);
  Tensor c = b.Detach();
  EXPECT_FALSE(c.requires_grad());
  EXPECT_EQ(c.impl()->node, nullptr);
  ExpectVectorNear(c.data(), {6.0f, 6.0f});
}

TEST(TensorBasics, ToStringMentionsShape) {
  Tensor t = Tensor::Zeros({2, 3});
  EXPECT_NE(t.ToString().find("2x3"), std::string::npos);
}

TEST(TensorDeath, ItemOnNonScalarAborts) {
  Tensor t = Tensor::Zeros({2, 2});
  EXPECT_DEATH(t.item(), "item");
}

TEST(TensorDeath, FromVectorSizeMismatchAborts) {
  EXPECT_DEATH(Tensor::FromVector({2, 2}, {1.0f, 2.0f}), "size mismatch");
}

TEST(AutogradBasics, SimpleChainRule) {
  // z = sum((x * 3) + 1); dz/dx = 3.
  Tensor x = Tensor::FromVector({3}, {1, 2, 3}, /*requires_grad=*/true);
  Tensor z = SumAll(AddScalar(MulScalar(x, 3.0f), 1.0f));
  EXPECT_FLOAT_EQ(z.item(), 3 + 6 + 9 + 3);
  z.Backward();
  ExpectVectorNear(x.grad(), {3, 3, 3});
}

TEST(AutogradBasics, ProductRule) {
  Tensor x = Tensor::FromVector({2}, {2, 5}, true);
  Tensor y = Tensor::FromVector({2}, {7, -3}, true);
  Tensor z = SumAll(Mul(x, y));
  z.Backward();
  ExpectVectorNear(x.grad(), {7, -3});
  ExpectVectorNear(y.grad(), {2, 5});
}

TEST(AutogradBasics, DiamondDagAccumulatesBothPaths) {
  // z = sum(x*2) + sum(x*3): both consumers contribute to dx.
  Tensor x = Tensor::FromVector({2}, {1, 1}, true);
  Tensor z = Add(SumAll(MulScalar(x, 2.0f)), SumAll(MulScalar(x, 3.0f)));
  z.Backward();
  ExpectVectorNear(x.grad(), {5, 5});
}

TEST(AutogradBasics, ReusedTensorAccumulates) {
  // z = sum(x * x) -> dz/dx = 2x with x used twice by the same node.
  Tensor x = Tensor::FromVector({3}, {1, 2, 3}, true);
  Tensor z = SumAll(Mul(x, x));
  z.Backward();
  ExpectVectorNear(x.grad(), {2, 4, 6});
}

TEST(AutogradBasics, NoGradGuardRecordsNothing) {
  Tensor x = Tensor::FromVector({2}, {1, 2}, true);
  NoGradGuard guard;
  Tensor y = MulScalar(x, 2.0f);
  EXPECT_EQ(y.impl()->node, nullptr);
  EXPECT_FALSE(y.requires_grad());
}

TEST(AutogradBasics, NoGradInputsProduceNoNode) {
  Tensor x = Tensor::FromVector({2}, {1, 2}, /*requires_grad=*/false);
  Tensor y = MulScalar(x, 2.0f);
  EXPECT_EQ(y.impl()->node, nullptr);
}

TEST(AutogradBasics, ZeroGradClears) {
  Tensor x = Tensor::FromVector({2}, {1, 2}, true);
  SumAll(x).Backward();
  ExpectVectorNear(x.grad(), {1, 1});
  x.ZeroGrad();
  ExpectVectorNear(x.grad(), {0, 0});
}

TEST(OpsForward, AddBroadcastRowVector) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromVector({3}, {10, 20, 30});
  ExpectVectorNear(Add(a, b).data(), {11, 22, 33, 14, 25, 36});
}

TEST(OpsForward, AddBroadcastColVector) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromVector({2, 1}, {100, 200});
  ExpectVectorNear(Add(a, b).data(), {101, 102, 103, 204, 205, 206});
}

TEST(OpsForward, SubMulDivScalarBroadcast) {
  Tensor a = Tensor::FromVector({2, 2}, {2, 4, 6, 8});
  Tensor s = Tensor::Scalar(2.0f);
  ExpectVectorNear(Sub(a, s).data(), {0, 2, 4, 6});
  ExpectVectorNear(Mul(a, s).data(), {4, 8, 12, 16});
  ExpectVectorNear(Div(a, s).data(), {1, 2, 3, 4});
}

TEST(OpsForward, MatmulKnownValues) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromVector({3, 2}, {7, 8, 9, 10, 11, 12});
  ExpectVectorNear(Matmul(a, b).data(), {58, 64, 139, 154});
}

TEST(OpsForward, MatmulVectorLhs) {
  Tensor a = Tensor::FromVector({3}, {1, 2, 3});
  Tensor b = Tensor::FromVector({3, 2}, {1, 0, 0, 1, 1, 1});
  Tensor c = Matmul(a, b);
  EXPECT_EQ(c.rank(), 1);
  ExpectVectorNear(c.data(), {4, 5});
}

TEST(OpsForward, TransposeRoundTrip) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor t = Transpose(a);
  EXPECT_EQ(t.dim(0), 3);
  EXPECT_EQ(t.dim(1), 2);
  ExpectVectorNear(Transpose(t).data(), a.data());
}

TEST(OpsForward, ConcatRowsMixedRank) {
  Tensor a = Tensor::FromVector({1, 2}, {1, 2});
  Tensor b = Tensor::FromVector({2}, {3, 4});
  Tensor c = ConcatRows({a, b});
  EXPECT_EQ(c.dim(0), 2);
  ExpectVectorNear(c.data(), {1, 2, 3, 4});
}

TEST(OpsForward, ConcatColsAndVec) {
  Tensor a = Tensor::FromVector({2, 1}, {1, 2});
  Tensor b = Tensor::FromVector({2, 2}, {3, 4, 5, 6});
  ExpectVectorNear(ConcatCols({a, b}).data(), {1, 3, 4, 2, 5, 6});
  Tensor u = Tensor::FromVector({2}, {1, 2});
  Tensor v = Tensor::FromVector({1}, {9});
  ExpectVectorNear(ConcatVec({u, v}).data(), {1, 2, 9});
}

TEST(OpsForward, SliceRowsAndCols) {
  Tensor a = Tensor::FromVector({3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  ExpectVectorNear(SliceRows(a, 1, 2).data(), {4, 5, 6, 7, 8, 9});
  ExpectVectorNear(SliceCols(a, 1, 1).data(), {2, 5, 8});
}

TEST(OpsForward, GatherRowsWithDuplicates) {
  Tensor a = Tensor::FromVector({3, 2}, {1, 2, 3, 4, 5, 6});
  Tensor g = GatherRows(a, {2, 0, 2});
  ExpectVectorNear(g.data(), {5, 6, 1, 2, 5, 6});
}

TEST(OpsForward, GatherElemsPicksDiagonal) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  ExpectVectorNear(GatherElems(a, {0, 2}).data(), {1, 6});
}

TEST(OpsForward, ExpandRowsRepeats) {
  Tensor a = Tensor::FromVector({2}, {1, 2});
  Tensor e = ExpandRows(a, 3);
  ExpectVectorNear(e.data(), {1, 2, 1, 2, 1, 2});
}

TEST(OpsForward, Reductions) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_FLOAT_EQ(SumAll(a).item(), 21);
  EXPECT_FLOAT_EQ(MeanAll(a).item(), 3.5f);
  ExpectVectorNear(RowMean(a).data(), {2, 5});
  ExpectVectorNear(ColMean(a).data(), {2.5f, 3.5f, 4.5f});
}

TEST(OpsForward, ActivationsKnownValues) {
  Tensor a = Tensor::FromVector({3}, {-1, 0, 2});
  ExpectVectorNear(Relu(a).data(), {0, 0, 2});
  ExpectVectorNear(LeakyRelu(a, 0.1f).data(), {-0.1f, 0, 2});
  ExpectVectorNear(Square(a).data(), {1, 0, 4});
  Tensor s = Sigmoid(Tensor::FromVector({1}, {0}));
  EXPECT_FLOAT_EQ(s.item(), 0.5f);
  Tensor t = Tanh(Tensor::FromVector({1}, {0}));
  EXPECT_FLOAT_EQ(t.item(), 0.0f);
}

// Softmax rows sum to one for a sweep of shapes (property test).
class SoftmaxShapeTest : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(SoftmaxShapeTest, RowsSumToOne) {
  auto [n, d] = GetParam();
  SeedGlobalRng(n * 100 + d);
  Tensor a = Tensor::Randn({n, d}, 3.0f);
  Tensor s = SoftmaxRows(a);
  for (int i = 0; i < n; ++i) {
    double sum = 0.0;
    for (int j = 0; j < d; ++j) {
      const float v = s.at(i, j);
      EXPECT_GE(v, 0.0f);
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST_P(SoftmaxShapeTest, LogSoftmaxMatchesLogOfSoftmax) {
  auto [n, d] = GetParam();
  SeedGlobalRng(n * 37 + d);
  Tensor a = Tensor::Randn({n, d}, 2.0f);
  Tensor ls = LogSoftmaxRows(a);
  Tensor s = SoftmaxRows(a);
  for (int64_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(std::exp(ls.data()[i]), s.data()[i], 1e-5);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, SoftmaxShapeTest,
                         ::testing::Values(std::pair{1, 1}, std::pair{1, 7},
                                           std::pair{5, 2}, std::pair{8, 33},
                                           std::pair{16, 128}));

TEST(OpsForward, SoftmaxIsShiftInvariant) {
  Tensor a = Tensor::FromVector({1, 3}, {1, 2, 3});
  Tensor b = Tensor::FromVector({1, 3}, {1001, 1002, 1003});
  ExpectVectorNear(SoftmaxRows(a).data(), SoftmaxRows(b).data(), 1e-5f);
}

// ------------------------------------------------ binary kernels, bit-exact
//
// Add/Sub/Mul/Div run one kernel per (op, broadcast) pair. The reference
// below is the straightforward per-element loop they replaced: one switch on
// the op and one flat-index map into b per element. The kernels must match
// it bit for bit in the forward and in both gradients, which pins every
// broadcast gradient entry to the same terms in the same order. Mul's
// gradient terms go through internal::MulAdd in both, the single rounding
// the compiler gives `acc += g * b` wherever it contracts it.

enum class RefOp { kAdd, kSub, kMul, kDiv };

size_t RefBIndex(internal::Broadcast bc, size_t i, int d) {
  switch (bc) {
    case internal::Broadcast::kSame:
      return i;
    case internal::Broadcast::kScalar:
      return 0;
    case internal::Broadcast::kRow:
      return i % static_cast<size_t>(d);
    case internal::Broadcast::kCol:
      return i / static_cast<size_t>(d);
  }
  return 0;
}

struct RefResult {
  std::vector<float> out, ga, gb;
};

// Forward, then the gradients for upstream gradient `g`, of `op` on (a, b).
// `same` mirrors an aliased call such as Mul(x, x): b is a, and both
// gradient passes accumulate into one buffer, the a-pass first.
RefResult ReferenceBinary(RefOp op, const Tensor& a, const Tensor& b,
                          const std::vector<float>& g, bool same) {
  const auto bc = internal::ClassifyBroadcast(*a.impl(), *b.impl(), "ref");
  const int d = a.rank() == 2 ? a.dim(1) : 1;
  const std::vector<float>& av = a.data();
  const std::vector<float>& bv = b.data();
  const size_t n = av.size();
  RefResult r;
  r.out.resize(n);
  r.ga.assign(n, 0.0f);
  r.gb.assign(bv.size(), 0.0f);
  for (size_t i = 0; i < n; ++i) {
    const float x = av[i];
    const float y = bv[RefBIndex(bc, i, d)];
    switch (op) {
      case RefOp::kAdd: r.out[i] = x + y; break;
      case RefOp::kSub: r.out[i] = x - y; break;
      case RefOp::kMul: r.out[i] = x * y; break;
      case RefOp::kDiv: r.out[i] = x / y; break;
    }
  }
  for (size_t i = 0; i < n; ++i) {
    const float y = bv[RefBIndex(bc, i, d)];
    switch (op) {
      case RefOp::kAdd:
      case RefOp::kSub: r.ga[i] += g[i]; break;
      case RefOp::kMul: r.ga[i] = internal::MulAdd(g[i], y, r.ga[i]); break;
      case RefOp::kDiv: r.ga[i] += g[i] / y; break;
    }
  }
  std::vector<float>& gb = same ? r.ga : r.gb;
  for (size_t i = 0; i < n; ++i) {
    const size_t j = RefBIndex(bc, i, d);
    switch (op) {
      case RefOp::kAdd: gb[j] += g[i]; break;
      case RefOp::kSub: gb[j] -= g[i]; break;
      case RefOp::kMul: gb[j] = internal::MulAdd(g[i], av[i], gb[j]); break;
      case RefOp::kDiv: gb[j] += -g[i] * av[i] / (bv[j] * bv[j]); break;
    }
  }
  return r;
}

Tensor ApplyOp(RefOp op, const Tensor& a, const Tensor& b) {
  switch (op) {
    case RefOp::kAdd: return Add(a, b);
    case RefOp::kSub: return Sub(a, b);
    case RefOp::kMul: return Mul(a, b);
    case RefOp::kDiv: return Div(a, b);
  }
  return Tensor();
}

void ExpectBitEqual(const std::vector<float>& want,
                    const std::vector<float>& got, const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i], got[i]) << what << " at " << i;
  }
}

// Backpropagates upstream gradient `g` from `out` (via a weighted sum).
void BackwardWith(const Tensor& out, const std::vector<float>& g) {
  SumAll(Mul(out, Tensor::FromVector(out.shape(), g))).Backward();
}

TEST(BinaryKernels, MatchPerElementReferenceBitForBit) {
  const RefOp ops[] = {RefOp::kAdd, RefOp::kSub, RefOp::kMul, RefOp::kDiv};
  const char* op_names[] = {"add", "sub", "mul", "div"};
  int cases = 0;
  for (int n : {1, 5}) {
    for (int d : {1, 7, 33}) {  // scalar loops, vector body + tail
      const std::vector<std::pair<std::string, std::vector<int>>> b_shapes = {
          {"same", {n, d}}, {"scalar", {1}}, {"row(d)", {d}},
          {"row(1,d)", {1, d}}, {"col(n,1)", {n, 1}}};
      for (const auto& [bname, bshape] : b_shapes) {
        for (int k = 0; k < 4; ++k) {
          for (int grads = 1; grads <= 3; ++grads) {  // a, b, both
            SeedGlobalRng(9000 + cases);
            Tensor a = Tensor::Randn({n, d}, 1.0f, grads & 1);
            // b away from zero so Div stays well scaled.
            Tensor b = Tensor::Uniform(bshape, 0.5f, 2.0f, grads & 2);
            Tensor g = Tensor::Randn({n, d}, 1.0f);
            const std::string what = std::string(op_names[k]) + " b=" + bname +
                                     " n=" + std::to_string(n) +
                                     " d=" + std::to_string(d) +
                                     " grads=" + std::to_string(grads);
            const RefResult want =
                ReferenceBinary(ops[k], a, b, g.data(), false);
            Tensor out = ApplyOp(ops[k], a, b);
            ExpectBitEqual(want.out, out.data(), what + " forward");
            BackwardWith(out, g.data());
            if (grads & 1) ExpectBitEqual(want.ga, a.grad(), what + " a.grad");
            if (grads & 2) ExpectBitEqual(want.gb, b.grad(), what + " b.grad");
            ++cases;
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 2 * 3 * 5 * 4 * 3);
}

TEST(BinaryKernels, AliasedOperandsMatchReference) {
  for (RefOp op : {RefOp::kMul, RefOp::kDiv}) {
    SeedGlobalRng(9500);
    Tensor x = Tensor::Uniform({3, 33}, 0.5f, 2.0f, true);
    Tensor g = Tensor::Randn({3, 33}, 1.0f);
    const RefResult want = ReferenceBinary(op, x, x, g.data(), true);
    Tensor out = ApplyOp(op, x, x);
    ExpectBitEqual(want.out, out.data(), "aliased forward");
    BackwardWith(out, g.data());
    ExpectBitEqual(want.ga, x.grad(), "aliased grad");
  }
}

// Tensors with a zero dimension cannot come from the factories, but ops can
// build them; every kernel must handle zero rows.
TEST(BinaryKernels, EmptyRowsProduceEmptyOutputAndNoGradient) {
  auto empty = std::make_shared<TensorImpl>();
  empty->shape = {0, 7};
  empty->requires_grad = true;
  const Tensor a(empty);
  const Tensor row = Tensor::Uniform({7}, 0.5f, 2.0f, true);
  const Tensor scalar = Tensor::Scalar(2.0f, true);
  for (RefOp op : {RefOp::kAdd, RefOp::kSub, RefOp::kMul, RefOp::kDiv}) {
    for (const Tensor& b : {a, row, scalar}) {
      Tensor out = ApplyOp(op, a, b);
      EXPECT_EQ(out.shape(), std::vector<int>({0, 7}));
      EXPECT_TRUE(out.data().empty());
      // The sum over no elements; backward must touch nothing.
      Tensor loss = AddScalar(SumAll(out), 1.0f);
      loss.Backward();
    }
  }
  for (float v : row.impl()->grad) EXPECT_EQ(v, 0.0f);
  for (float v : scalar.impl()->grad) EXPECT_EQ(v, 0.0f);
}

}  // namespace
}  // namespace rntraj
