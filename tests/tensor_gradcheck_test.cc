// Numerical gradient checks for every differentiable primitive. Each case
// builds a small random computation whose only leaves are the checked
// parameters, then compares tape gradients to central differences.

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/tensor/buffer_pool.h"
#include "src/tensor/fast_math.h"
#include "src/tensor/gemm.h"
#include "src/tensor/ops.h"
#include "src/tensor/tensor.h"
#include "tests/test_util.h"

namespace rntraj {
namespace {

using testing_util::MaxGradError;

constexpr double kTol = 2e-2;

Tensor SmoothLoss(const Tensor& t) {
  // A generic scalar readout that mixes signs so gradients are non-trivial.
  return MeanAll(Mul(t, t));
}

TEST(GradCheck, AddSameShape) {
  SeedGlobalRng(1);
  Tensor a = Tensor::Randn({3, 4}, 1.0f, true);
  Tensor b = Tensor::Randn({3, 4}, 1.0f, true);
  EXPECT_LT(MaxGradError([&] { return SmoothLoss(Add(a, b)); }, {a, b}), kTol);
}

TEST(GradCheck, AddBroadcastRow) {
  SeedGlobalRng(2);
  Tensor a = Tensor::Randn({3, 4}, 1.0f, true);
  Tensor b = Tensor::Randn({4}, 1.0f, true);
  EXPECT_LT(MaxGradError([&] { return SmoothLoss(Add(a, b)); }, {a, b}), kTol);
  // Rank-1 `a` (the Linear bias path for vector inputs).
  Tensor av = Tensor::Randn({4}, 1.0f, true);
  EXPECT_LT(MaxGradError([&] { return SmoothLoss(Add(av, b)); }, {av, b}),
            kTol);
}

TEST(GradCheck, AddColBroadcast) {
  SeedGlobalRng(3);
  Tensor a = Tensor::Randn({3, 4}, 1.0f, true);
  Tensor b = Tensor::Randn({3, 1}, 1.0f, true);
  EXPECT_LT(MaxGradError([&] { return SmoothLoss(Add(a, b)); }, {a, b}), kTol);
}

TEST(GradCheck, SubScalarBroadcast) {
  SeedGlobalRng(4);
  Tensor a = Tensor::Randn({2, 5}, 1.0f, true);
  Tensor b = Tensor::Randn({1}, 1.0f, true);
  EXPECT_LT(MaxGradError([&] { return SmoothLoss(Sub(a, b)); }, {a, b}), kTol);
}

TEST(GradCheck, MulRowBroadcast) {
  SeedGlobalRng(5);
  Tensor a = Tensor::Randn({3, 4}, 1.0f, true);
  Tensor b = Tensor::Randn({4}, 1.0f, true);
  EXPECT_LT(MaxGradError([&] { return SmoothLoss(Mul(a, b)); }, {a, b}), kTol);
}

TEST(GradCheck, DivColBroadcast) {
  SeedGlobalRng(6);
  Tensor a = Tensor::Randn({3, 4}, 1.0f, true);
  // Keep the denominator away from zero.
  Tensor b = Tensor::FromVector({3, 1}, {1.5f, -2.0f, 2.5f}, true);
  EXPECT_LT(MaxGradError([&] { return SmoothLoss(Div(a, b)); }, {a, b}), kTol);
}

TEST(GradCheck, MatmulBothSides) {
  SeedGlobalRng(7);
  Tensor a = Tensor::Randn({3, 4}, 1.0f, true);
  Tensor b = Tensor::Randn({4, 2}, 1.0f, true);
  EXPECT_LT(MaxGradError([&] { return SmoothLoss(Matmul(a, b)); }, {a, b}), kTol);
}

TEST(GradCheck, MatmulVectorLhs) {
  SeedGlobalRng(8);
  Tensor a = Tensor::Randn({4}, 1.0f, true);
  Tensor b = Tensor::Randn({4, 3}, 1.0f, true);
  EXPECT_LT(MaxGradError([&] { return SmoothLoss(Matmul(a, b)); }, {a, b}), kTol);
}

TEST(GradCheck, Transpose) {
  SeedGlobalRng(9);
  Tensor a = Tensor::Randn({3, 5}, 1.0f, true);
  EXPECT_LT(MaxGradError([&] { return SmoothLoss(Transpose(a)); }, {a}), kTol);
}

TEST(GradCheck, ConcatRowsAndSliceRows) {
  SeedGlobalRng(10);
  Tensor a = Tensor::Randn({2, 3}, 1.0f, true);
  Tensor b = Tensor::Randn({1, 3}, 1.0f, true);
  auto loss = [&] {
    Tensor c = ConcatRows({a, b});
    return SmoothLoss(SliceRows(c, 1, 2));
  };
  EXPECT_LT(MaxGradError(loss, {a, b}), kTol);
}

TEST(GradCheck, ConcatColsAndSliceCols) {
  SeedGlobalRng(11);
  Tensor a = Tensor::Randn({3, 2}, 1.0f, true);
  Tensor b = Tensor::Randn({3, 3}, 1.0f, true);
  auto loss = [&] {
    Tensor c = ConcatCols({a, b});
    return SmoothLoss(SliceCols(c, 1, 3));
  };
  EXPECT_LT(MaxGradError(loss, {a, b}), kTol);
}

TEST(GradCheck, ConcatVec) {
  SeedGlobalRng(12);
  Tensor a = Tensor::Randn({3}, 1.0f, true);
  Tensor b = Tensor::Randn({2}, 1.0f, true);
  EXPECT_LT(MaxGradError([&] { return SmoothLoss(ConcatVec({a, b})); }, {a, b}),
            kTol);
}

TEST(GradCheck, GatherRowsWithDuplicates) {
  SeedGlobalRng(13);
  Tensor a = Tensor::Randn({4, 3}, 1.0f, true);
  std::vector<int> idx = {1, 3, 1, 0};
  EXPECT_LT(MaxGradError([&] { return SmoothLoss(GatherRows(a, idx)); }, {a}),
            kTol);
}

TEST(GradCheck, GatherElems) {
  SeedGlobalRng(14);
  Tensor a = Tensor::Randn({3, 4}, 1.0f, true);
  std::vector<int> idx = {2, 0, 3};
  EXPECT_LT(MaxGradError([&] { return SmoothLoss(GatherElems(a, idx)); }, {a}),
            kTol);
}

TEST(GradCheck, ReshapeAndExpandRows) {
  SeedGlobalRng(15);
  Tensor a = Tensor::Randn({1, 6}, 1.0f, true);
  auto loss = [&] {
    Tensor r = Reshape(a, {2, 3});
    Tensor e = ExpandRows(SliceRows(r, 0, 1), 4);
    return SmoothLoss(e);
  };
  EXPECT_LT(MaxGradError(loss, {a}), kTol);
}

TEST(GradCheck, Reductions) {
  SeedGlobalRng(16);
  Tensor a = Tensor::Randn({3, 4}, 1.0f, true);
  EXPECT_LT(MaxGradError([&] { return Square(SumAll(a)); }, {a}), kTol);
  EXPECT_LT(MaxGradError([&] { return Square(MeanAll(a)); }, {a}), kTol);
  EXPECT_LT(MaxGradError([&] { return SmoothLoss(RowMean(a)); }, {a}), kTol);
  EXPECT_LT(MaxGradError([&] { return SmoothLoss(ColMean(a)); }, {a}), kTol);
}

// Smooth unary ops under a parameterised sweep.
class UnaryGradTest : public ::testing::TestWithParam<int> {};

TEST_P(UnaryGradTest, SigmoidTanhSqrtSquare) {
  SeedGlobalRng(100 + GetParam());
  Tensor a = Tensor::Randn({2, 3}, 0.8f, true);
  EXPECT_LT(MaxGradError([&] { return SmoothLoss(Sigmoid(a)); }, {a}), kTol);
  EXPECT_LT(MaxGradError([&] { return SmoothLoss(Tanh(a)); }, {a}), kTol);
  EXPECT_LT(MaxGradError([&] { return SmoothLoss(Square(a)); }, {a}), kTol);
  // Sqrt needs positive inputs.
  Tensor p = AddScalar(Sigmoid(a).Detach(), 0.5f);
  p.set_requires_grad(true);
  EXPECT_LT(MaxGradError([&] { return SmoothLoss(Sqrt(p)); }, {p}), kTol);
}

INSTANTIATE_TEST_SUITE_P(Seeds, UnaryGradTest, ::testing::Range(0, 4));

TEST(GradCheck, ReluAwayFromKink) {
  // Fix values away from 0 so central differences are valid.
  Tensor a = Tensor::FromVector({2, 3}, {-2, -1, 0.5f, 1, 2, -0.5f}, true);
  EXPECT_LT(MaxGradError([&] { return SmoothLoss(Relu(a)); }, {a}, 1e-3f), kTol);
  EXPECT_LT(MaxGradError([&] { return SmoothLoss(LeakyRelu(a, 0.2f)); }, {a},
                         1e-3f),
            kTol);
}

TEST(GradCheck, SoftmaxRows) {
  SeedGlobalRng(17);
  Tensor a = Tensor::Randn({3, 5}, 1.0f, true);
  // Weighted sum to give distinct gradients per column.
  Tensor w = Tensor::FromVector({5, 1}, {1, -2, 3, 0.5f, -1});
  auto loss = [&] { return MeanAll(Matmul(SoftmaxRows(a), w)); };
  EXPECT_LT(MaxGradError(loss, {a}), kTol);
}

TEST(GradCheck, LogSoftmaxRows) {
  SeedGlobalRng(18);
  Tensor a = Tensor::Randn({3, 5}, 1.0f, true);
  std::vector<int> targets = {1, 4, 0};
  auto loss = [&] {
    return Neg(MeanAll(GatherElems(LogSoftmaxRows(a), targets)));
  };
  EXPECT_LT(MaxGradError(loss, {a}), kTol);
}

TEST(GradCheck, CompositeTwoLayerMlp) {
  SeedGlobalRng(19);
  Tensor x = Tensor::Randn({4, 3}, 1.0f, false);
  Tensor w1 = Tensor::Randn({3, 5}, 0.7f, true);
  Tensor b1 = Tensor::Randn({5}, 0.3f, true);
  Tensor w2 = Tensor::Randn({5, 2}, 0.7f, true);
  auto loss = [&] {
    Tensor h = Tanh(Add(Matmul(x, w1), b1));
    return SmoothLoss(Matmul(h, w2));
  };
  EXPECT_LT(MaxGradError(loss, {w1, b1, w2}), kTol);
}

// ----- Fused ops and the blocked/pooled kernels -----------------------------

TEST(GradCheck, MatmulTransBBothSides) {
  SeedGlobalRng(30);
  Tensor a = Tensor::Randn({3, 4}, 1.0f, true);
  Tensor b = Tensor::Randn({5, 4}, 1.0f, true);
  EXPECT_LT(MaxGradError([&] { return SmoothLoss(MatmulTransB(a, b)); }, {a, b}),
            kTol);
}

TEST(GradCheck, MatmulTransBMatchesExplicitTranspose) {
  SeedGlobalRng(31);
  Tensor a = Tensor::Randn({4, 6}, 1.0f);
  Tensor b = Tensor::Randn({3, 6}, 1.0f);
  Tensor fused = MatmulTransB(a, b);
  Tensor reference = Matmul(a, Transpose(b));
  testing_util::ExpectVectorNear(fused.data(), reference.data(), 1e-5f);
}

TEST(GradCheck, AddBlockBroadcast) {
  SeedGlobalRng(60);
  // Three blocks of height 2: row i of `rows` broadcast over block i (the
  // batched-decoder query-over-keys broadcast).
  Tensor a = Tensor::Randn({6, 4}, 1.0f, true);
  Tensor rows = Tensor::Randn({3, 4}, 1.0f, true);
  EXPECT_LT(MaxGradError([&] { return SmoothLoss(AddBlockBroadcast(a, rows, 2)); },
                         {a, rows}),
            kTol);
  // block == 1 degenerates to a plain same-shape add.
  Tensor b = Tensor::Randn({3, 4}, 1.0f, true);
  Tensor fused = AddBlockBroadcast(b, rows, 1);
  Tensor plain = Add(b, rows);
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 4; ++j) {
      EXPECT_FLOAT_EQ(fused.at(i, j), plain.at(i, j));
    }
  }
}

TEST(GradCheck, FastExpMatchesLibm) {
  for (float x = -80.0f; x < 87.0f; x += 0.0137f) {
    const float want = std::exp(x);
    EXPECT_NEAR(internal::FastExp(x), want, 1e-5f * want + 1e-30f) << "x=" << x;
  }
  EXPECT_EQ(internal::FastExp(-1e9f), 0.0f);
  // Saturates finite at both ends instead of over/underflowing.
  EXPECT_TRUE(std::isfinite(internal::FastExp(88.5f)));
  EXPECT_TRUE(std::isfinite(internal::FastExp(1e9f)));
  EXPECT_GT(internal::FastExp(1e9f), 1e38f);
}

TEST(GradCheck, PooledMatmulNonSquareAndVectorLhs) {
  // The same checks as the plain matmul cases, but with storage recycling on:
  // every loop iteration after the first reuses buffers released by the
  // previous one, so stale contents or aliasing would surface as gradient
  // errors here.
  BufferPoolScope pool;
  for (int round = 0; round < 3; ++round) {
    SeedGlobalRng(40 + round);
    // Shapes above the pool's minimum size so recycling actually engages.
    Tensor a = Tensor::Randn({6, 8}, 1.0f, true);
    Tensor b = Tensor::Randn({8, 6}, 1.0f, true);
    EXPECT_LT(MaxGradError([&] { return SmoothLoss(Matmul(a, b)); }, {a, b}),
              kTol);
    Tensor v = Tensor::Randn({8}, 1.0f, true);
    EXPECT_LT(MaxGradError([&] { return SmoothLoss(Matmul(v, b)); }, {v, b}),
              kTol);
  }
  EXPECT_GT(GetBufferPoolStats().hits, 0u);
}

TEST(GradCheck, BlockedGemmMatchesNaiveReference) {
  // The three GEMM entry points accumulate into a non-zero C. The widths
  // give partial tiles of 1 to 31 columns (all zero-padded), one full tile
  // and one column past it; the row counts go through every row peel (8-,
  // 4- and 1-row tiles); k = 300 splits the inner dimension across two
  // panels. B is held in vectors of exactly its size, so a sanitizer build
  // flags any panel copy that reads past B's last row or column.
  SeedGlobalRng(41);
  const auto randn = [](size_t size) {
    return Tensor::Randn({static_cast<int>(size)}, 1.0f).data();
  };
  for (const int n : {1, 4, 15, 37}) {
    for (const int k : {1, 29, 300}) {
      for (const int m : {1, 8, 16, 23, 24, 31, 32, 33}) {
        const std::vector<float> a = randn(size_t(n) * k);   // A(n,k)
        const std::vector<float> at = randn(size_t(k) * n);  // A(k,n) for A^T
        const std::vector<float> b = randn(size_t(k) * m);   // B(k,m)
        const std::vector<float> bt = randn(size_t(m) * k);  // B(m,k) for B^T
        const std::vector<float> c0 = randn(size_t(n) * m);
        std::vector<float> c = c0, ct_a = c0, ct_b = c0;
        internal::GemmAcc(a.data(), b.data(), c.data(), n, k, m);
        internal::GemmTransAAcc(at.data(), b.data(), ct_a.data(), n, k, m);
        internal::GemmTransBAcc(a.data(), bt.data(), ct_b.data(), n, k, m);
        for (int i = 0; i < n; ++i) {
          for (int j = 0; j < m; ++j) {
            double ref = c0[i * m + j], ref_ta = ref, ref_tb = ref;
            for (int p = 0; p < k; ++p) {
              ref += double(a[i * k + p]) * b[p * m + j];
              ref_ta += double(at[p * n + i]) * b[p * m + j];
              ref_tb += double(a[i * k + p]) * bt[j * k + p];
            }
            const auto where = [&] {
              return testing::Message() << "(" << n << "," << k << ")x(" << k
                                        << "," << m << ") at (" << i << ","
                                        << j << ")";
            };
            EXPECT_NEAR(c[i * m + j], ref, 1e-3) << "A*B " << where();
            EXPECT_NEAR(ct_a[i * m + j], ref_ta, 1e-3) << "A^T*B " << where();
            EXPECT_NEAR(ct_b[i * m + j], ref_tb, 1e-3) << "A*B^T " << where();
          }
        }
      }
    }
  }
}

// Each row of A taken alone, as a (1,k) matrix: a C row's bits must not
// depend on where the row falls in the GEMM's tile grid (8-, 4- or 1-row
// tile, partial or full column tile), for the forward, MatmulTransB and both
// Matmul gradients. Exact comparison.
TEST(GradCheck, GemmRowBitsIndependentOfTilePosition) {
  SeedGlobalRng(42);
  const auto row = [](const std::vector<float>& v, int r, int len) {
    return std::vector<float>(v.begin() + size_t(r) * len,
                              v.begin() + size_t(r + 1) * len);
  };
  // Runs out's own backward with d(loss)/d(out) = g.
  const auto backward = [](const Tensor& out, const std::vector<float>& g) {
    TensorImpl& o = *out.impl();
    o.grad = g;
    o.node->backward(o);
  };
  std::vector<int> widths;
  for (int m = 1; m <= 40; ++m) widths.push_back(m);
  widths.insert(widths.end(), {72, 270, 848});
  std::vector<int> heights;
  for (int n = 1; n <= 17; ++n) heights.push_back(n);
  heights.push_back(270);
  for (const int k : {1, 24, 257}) {
    for (const int m : widths) {
      for (const int n : heights) {
        Tensor a = Tensor::Randn({n, k}, 1.0f, true);
        Tensor b = Tensor::Randn({k, m}, 1.0f, true);
        Tensor bt = Tensor::Randn({m, k}, 1.0f);
        const std::vector<float> g = Tensor::Randn({n, m}, 1.0f).data();
        const Tensor c = Matmul(a, b);
        backward(c, g);
        const Tensor ct = MatmulTransB(a, bt);
        Tensor b_const = Tensor::FromVector({k, m}, b.data());
        int bad_fwd = 0, bad_trans_b = 0, bad_da = 0, bad_db = 0;
        for (int i = 0; i < n; ++i) {
          Tensor ai = Tensor::FromVector({1, k}, row(a.data(), i, k), true);
          const Tensor ci = Matmul(ai, b_const);
          backward(ci, row(g, i, m));
          bad_fwd += ci.data() != row(c.data(), i, m);
          bad_da += ai.grad() != row(a.grad(), i, k);
          bad_trans_b +=
              MatmulTransB(ai.Detach(), bt).data() != row(ct.data(), i, m);
        }
        // dB = A^T dC: row p of dB is column p of A against dC.
        for (int p = 0; p < k; ++p) {
          std::vector<float> col(n);
          for (int i = 0; i < n; ++i) col[i] = a.data()[size_t(i) * k + p];
          Tensor bp = Tensor::FromVector({1, m}, row(b.data(), p, m), true);
          backward(Matmul(Tensor::FromVector({n, 1}, col), bp), g);
          bad_db += bp.grad() != row(b.grad(), p, m);
        }
        const auto shape = [&] {
          return testing::Message() << "rows differing for (" << n << "," << k
                                    << ")x(" << k << "," << m << ")";
        };
        EXPECT_EQ(bad_fwd, 0) << "Matmul " << shape();
        EXPECT_EQ(bad_trans_b, 0) << "MatmulTransB " << shape();
        EXPECT_EQ(bad_da, 0) << "Matmul dA " << shape();
        EXPECT_EQ(bad_db, 0) << "Matmul dB " << shape();
      }
    }
  }
}

TEST(GradCheck, GradsAccumulateAcrossTwoBackwards) {
  Tensor x = Tensor::FromVector({2}, {1, 2}, true);
  Tensor z1 = SumAll(MulScalar(x, 2.0f));
  z1.Backward();
  Tensor z2 = SumAll(MulScalar(x, 3.0f));
  z2.Backward();
  testing_util::ExpectVectorNear(x.grad(), {5, 5});
}

// ----- Batched masked ops (padded forward path) ------------------------------

TEST(GradCheck, BatchedMatmulBothSides) {
  SeedGlobalRng(50);
  // 3 blocks of (4,5) x (5,2).
  Tensor a = Tensor::Randn({12, 5}, 1.0f, true);
  Tensor b = Tensor::Randn({15, 2}, 1.0f, true);
  EXPECT_LT(MaxGradError([&] { return SmoothLoss(BatchedMatmul(a, b, 3)); },
                         {a, b}),
            kTol);
}

TEST(GradCheck, BatchedMatmulMatchesPerBlockMatmul) {
  SeedGlobalRng(51);
  const int batch = 3, m = 4, k = 5, n = 2;
  Tensor a = Tensor::Randn({batch * m, k}, 1.0f);
  Tensor b = Tensor::Randn({batch * k, n}, 1.0f);
  Tensor c = BatchedMatmul(a, b, batch);
  for (int s = 0; s < batch; ++s) {
    Tensor cs = Matmul(SliceRows(a, s * m, m), SliceRows(b, s * k, k));
    for (int i = 0; i < m; ++i) {
      for (int j = 0; j < n; ++j) {
        EXPECT_EQ(c.at(s * m + i, j), cs.at(i, j))
            << "block " << s << " at (" << i << "," << j << ")";
      }
    }
  }
}

TEST(GradCheck, BatchedMatmulTransBBothSides) {
  SeedGlobalRng(52);
  // 2 blocks of (3,4) x (5,4)^T.
  Tensor a = Tensor::Randn({6, 4}, 1.0f, true);
  Tensor b = Tensor::Randn({10, 4}, 1.0f, true);
  EXPECT_LT(
      MaxGradError([&] { return SmoothLoss(BatchedMatmulTransB(a, b, 2)); },
                   {a, b}),
      kTol);
}

TEST(GradCheck, BatchedMatmulTransBMatchesPerBlock) {
  SeedGlobalRng(53);
  const int batch = 2, m = 3, k = 4, n = 5;
  Tensor a = Tensor::Randn({batch * m, k}, 1.0f);
  Tensor b = Tensor::Randn({batch * n, k}, 1.0f);
  Tensor c = BatchedMatmulTransB(a, b, batch);
  for (int s = 0; s < batch; ++s) {
    Tensor cs = MatmulTransB(SliceRows(a, s * m, m), SliceRows(b, s * n, n));
    for (int i = 0; i < m; ++i) {
      for (int j = 0; j < n; ++j) {
        EXPECT_EQ(c.at(s * m + i, j), cs.at(i, j))
            << "block " << s << " at (" << i << "," << j << ")";
      }
    }
  }
}

TEST(GradCheck, LengthMaskedSoftmaxRows) {
  SeedGlobalRng(54);
  Tensor a = Tensor::Randn({4, 5}, 1.0f, true);
  const std::vector<int> valid = {5, 3, 1, 0};
  EXPECT_LT(
      MaxGradError([&] { return SmoothLoss(LengthMaskedSoftmaxRows(a, valid)); },
                   {a}),
      kTol);
}

TEST(GradCheck, LengthMaskedSoftmaxMatchesPrefixSoftmax) {
  SeedGlobalRng(55);
  Tensor a = Tensor::Randn({3, 6}, 1.0f);
  const std::vector<int> valid = {4, 6, 2};
  Tensor masked = LengthMaskedSoftmaxRows(a, valid);
  for (int i = 0; i < 3; ++i) {
    // Bit-identical to SoftmaxRows over the row's valid prefix, zero beyond.
    Tensor prefix = SoftmaxRows(SliceCols(SliceRows(a, i, 1), 0, valid[i]));
    for (int j = 0; j < valid[i]; ++j) {
      EXPECT_EQ(masked.at(i, j), prefix.at(0, j)) << "row " << i << " col " << j;
    }
    for (int j = valid[i]; j < 6; ++j) {
      EXPECT_EQ(masked.at(i, j), 0.0f) << "row " << i << " col " << j;
    }
  }
}

TEST(GradCheck, SegmentMeanRows) {
  SeedGlobalRng(56);
  Tensor a = Tensor::Randn({6, 3}, 1.0f, true);
  const std::vector<int> sizes = {2, 3, 1};
  EXPECT_LT(MaxGradError([&] { return SmoothLoss(SegmentMeanRows(a, sizes)); },
                         {a}),
            kTol);
}

TEST(GradCheck, SegmentMeanRowsMatchesColMean) {
  SeedGlobalRng(57);
  Tensor a = Tensor::Randn({7, 4}, 1.0f);
  const std::vector<int> sizes = {3, 1, 3};
  Tensor pooled = SegmentMeanRows(a, sizes);
  int off = 0;
  for (size_t s = 0; s < sizes.size(); ++s) {
    Tensor ref = ColMean(SliceRows(a, off, sizes[s]));
    for (int j = 0; j < 4; ++j) {
      EXPECT_EQ(pooled.at(static_cast<int>(s), j), ref.at(j))
          << "segment " << s << " col " << j;
    }
    off += sizes[s];
  }
}

// ----- Sparse graph ops (GAT/GCN/GIN over in-edge CSR) ----------------------
//
// A hand-built index with ragged rows, a single-edge row and a row with no
// in-edges at all (the ops accept those; the graph builder never makes them
// because every node has its self-loop).

CsrIndexPtr RaggedCsr() {
  auto csr = std::make_shared<CsrIndex>();
  csr->offsets = {0, 3, 4, 4, 6, 9};
  csr->src = {0, 2, 4, 1, 0, 3, 1, 2, 4};
  return csr;
}

TEST(GradCheck, EdgeScoresBothInputs) {
  SeedGlobalRng(60);
  CsrIndexPtr csr = RaggedCsr();
  Tensor u = Tensor::Randn({5, 1}, 1.0f, true);
  Tensor v = Tensor::Randn({5}, 1.0f, true);
  EXPECT_LT(MaxGradError([&] { return SmoothLoss(EdgeScores(u, v, csr)); },
                         {u, v}),
            kTol);
  Tensor scores = EdgeScores(u, v, csr);
  for (int i = 0; i < csr->num_nodes(); ++i) {
    for (int e = csr->offsets[i]; e < csr->offsets[i + 1]; ++e) {
      EXPECT_EQ(scores.at(e), u.at(i, 0) + v.at(csr->src[e])) << "edge " << e;
    }
  }
}

TEST(GradCheck, EdgeSoftmax) {
  SeedGlobalRng(62);
  CsrIndexPtr csr = RaggedCsr();
  Tensor a = Tensor::Randn({csr->num_edges()}, 1.0f, true);
  EXPECT_LT(MaxGradError([&] { return SmoothLoss(EdgeSoftmax(a, csr)); }, {a}),
            kTol);
  // Each row is the softmax of its own span; a single-edge row is exactly 1.
  Tensor y = EdgeSoftmax(a, csr);
  for (int i = 0; i < csr->num_nodes(); ++i) {
    const int lo = csr->offsets[i];
    const int len = csr->offsets[i + 1] - lo;
    if (len == 0) continue;
    Tensor row = SliceRows(Reshape(a, {csr->num_edges(), 1}), lo, len);
    Tensor ref = SoftmaxRows(Reshape(row, {1, len}));
    for (int j = 0; j < len; ++j) {
      EXPECT_NEAR(y.at(lo + j), ref.at(0, j), 1e-6) << "node " << i;
    }
  }
  EXPECT_EQ(y.at(3), 1.0f);
}

TEST(GradCheck, SpMMBothInputs) {
  SeedGlobalRng(65);
  CsrIndexPtr csr = RaggedCsr();
  Tensor w = Tensor::Randn({csr->num_edges()}, 1.0f, true);
  Tensor h = Tensor::Randn({5, 3}, 1.0f, true);
  EXPECT_LT(
      MaxGradError([&] { return SmoothLoss(SpMM(w, h, csr)); }, {w, h}), kTol);
  // Equals the dense product with the edge values scattered into (n, n).
  Tensor dense = Tensor::Zeros({5, 5});
  for (int i = 0; i < 5; ++i) {
    for (int e = csr->offsets[i]; e < csr->offsets[i + 1]; ++e) {
      dense.data()[i * 5 + csr->src[e]] = w.at(e);
    }
  }
  Tensor got = SpMM(w, h, csr);
  Tensor want = Matmul(dense, h);
  testing_util::ExpectVectorNear(got.data(), want.data(), 1e-5f);
  for (int j = 0; j < 3; ++j) EXPECT_EQ(got.at(2, j), 0.0f);  // no in-edges
}

TEST(GradCheck, PadAndUnpadRows) {
  SeedGlobalRng(58);
  Tensor a = Tensor::Randn({6, 3}, 1.0f, true);
  const std::vector<int> sizes = {1, 3, 2};
  EXPECT_LT(
      MaxGradError([&] { return SmoothLoss(PadRows(a, sizes, 3)); }, {a}),
      kTol);
  EXPECT_LT(MaxGradError(
                [&] {
                  return SmoothLoss(UnpadRows(PadRows(a, sizes, 4), sizes, 4));
                },
                {a}),
            kTol);

  // Roundtrip is the identity; padding rows are zero.
  NoGradGuard guard;
  Tensor padded = PadRows(a, sizes, 3);
  ASSERT_EQ(padded.dim(0), 9);
  Tensor back = UnpadRows(padded, sizes, 3);
  testing_util::ExpectVectorNear(back.data(), a.data(), 0.0f);
  EXPECT_EQ(padded.at(0 * 3 + 1, 0), 0.0f);  // pad row of segment 0
  EXPECT_EQ(padded.at(2 * 3 + 2, 2), 0.0f);  // pad row of segment 2
}

}  // namespace
}  // namespace rntraj
