#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>

#include "src/common/random.h"
#include "src/nn/attention.h"
#include "src/nn/graph.h"
#include "src/nn/linear.h"
#include "src/nn/module.h"
#include "src/nn/norm.h"
#include "src/nn/optim.h"
#include "src/nn/rnn.h"
#include "src/nn/transformer.h"
#include "tests/test_util.h"

namespace rntraj {
namespace {

using testing_util::MaxGradError;

constexpr double kTol = 3e-2;

TEST(LinearTest, ShapesAndBias) {
  SeedGlobalRng(1);
  Linear lin(4, 3);
  Tensor x = Tensor::Randn({5, 4}, 1.0f);
  Tensor y = lin.Forward(x);
  EXPECT_EQ(y.dim(0), 5);
  EXPECT_EQ(y.dim(1), 3);
  EXPECT_EQ(lin.ParameterCount(), 4 * 3 + 3);
  Linear nb(4, 3, /*bias=*/false);
  EXPECT_EQ(nb.ParameterCount(), 12);
}

TEST(LinearTest, VectorInputStaysRankOne) {
  SeedGlobalRng(2);
  Linear lin(4, 3);
  Tensor y = lin.Forward(Tensor::Randn({4}, 1.0f));
  EXPECT_EQ(y.rank(), 1);
  EXPECT_EQ(y.dim(0), 3);
}

TEST(LinearTest, GradCheckThroughLayer) {
  SeedGlobalRng(3);
  Linear lin(3, 2);
  Tensor x = Tensor::Randn({4, 3}, 1.0f);
  auto loss = [&] { return MeanAll(Square(lin.Forward(x))); };
  EXPECT_LT(MaxGradError(loss, lin.Parameters()), kTol);
}

TEST(EmbeddingTest, LookupMatchesTableRows) {
  SeedGlobalRng(4);
  Embedding emb(10, 4);
  Tensor rows = emb.Forward({3, 7, 3});
  EXPECT_EQ(rows.dim(0), 3);
  for (int j = 0; j < 4; ++j) {
    EXPECT_EQ(rows.at(0, j), emb.table().at(3, j));
    EXPECT_EQ(rows.at(1, j), emb.table().at(7, j));
    EXPECT_EQ(rows.at(2, j), rows.at(0, j));
  }
  Tensor one = emb.ForwardOne(5);
  EXPECT_EQ(one.rank(), 1);
  EXPECT_EQ(one.dim(0), 4);
}

TEST(EmbeddingTest, OnlyTouchedRowsGetGradient) {
  SeedGlobalRng(5);
  Embedding emb(6, 3);
  Tensor loss = MeanAll(Square(emb.Forward({1, 4})));
  loss.Backward();
  auto& g = emb.Parameters()[0].grad();
  for (int r = 0; r < 6; ++r) {
    const bool touched = (r == 1 || r == 4);
    for (int c = 0; c < 3; ++c) {
      if (touched) {
        EXPECT_NE(g[r * 3 + c], 0.0f) << r;
      } else {
        EXPECT_EQ(g[r * 3 + c], 0.0f) << r;
      }
    }
  }
}

TEST(GruCellTest, ShapeAndBoundedOutput) {
  SeedGlobalRng(6);
  GruCell cell(3, 5);
  Tensor x = Tensor::Randn({4, 3}, 1.0f);
  Tensor h = Tensor::Zeros({4, 5});
  Tensor h1 = cell.Forward(x, h);
  EXPECT_EQ(h1.dim(0), 4);
  EXPECT_EQ(h1.dim(1), 5);
  // GRU state is a convex combination of h (0) and tanh output: within (-1,1).
  for (float v : h1.data()) {
    EXPECT_GT(v, -1.0f);
    EXPECT_LT(v, 1.0f);
  }
}

TEST(GruCellTest, GradCheck) {
  SeedGlobalRng(7);
  GruCell cell(2, 3);
  Tensor x = Tensor::Randn({2, 2}, 1.0f);
  Tensor h = Tensor::Randn({2, 3}, 0.5f);
  auto loss = [&] { return MeanAll(Square(cell.Forward(x, h))); };
  EXPECT_LT(MaxGradError(loss, cell.Parameters()), kTol);
}

// Op names of every tape node behind `t`, with their counts.
std::map<std::string, int> TapeOps(const Tensor& t) {
  std::map<std::string, int> ops;
  std::set<const GradNode*> seen;
  std::vector<std::shared_ptr<TensorImpl>> stack = {t.impl()};
  while (!stack.empty()) {
    auto impl = stack.back();
    stack.pop_back();
    const GradNode* node = impl->node.get();
    if (node == nullptr || !seen.insert(node).second) continue;
    ++ops[node->op];
    for (const auto& in : node->inputs) stack.push_back(in);
  }
  return ops;
}

// A GRU step records its three GEMMs and two fused elementwise kernels, with
// or without the freeze mask: no slices, no per-gate activations.
TEST(GruCellTest, RecordsThreeGemmsAndTwoFusedKernels) {
  SeedGlobalRng(9);
  GruCell cell(3, 4);
  Tensor x = Tensor::Randn({5, 3}, 1.0f);
  Tensor h = Tensor::Randn({5, 4}, 0.5f);
  Tensor mask = Tensor::FromVector({5, 1}, {1, 1, 0, 1, 0});
  const std::map<std::string, int> want = {
      {"matmul", 3}, {"gru_gates", 1}, {"gru_output", 1}};
  EXPECT_EQ(TapeOps(cell.Forward(x, h)), want);
  EXPECT_EQ(TapeOps(cell.Forward(x, h, mask)), want);
}

// Rows whose mask is 0 keep their state exactly.
TEST(GruCellTest, MaskFreezesRows) {
  SeedGlobalRng(10);
  GruCell cell(3, 4);
  Tensor x = Tensor::Randn({3, 3}, 1.0f);
  Tensor h = Tensor::Randn({3, 4}, 0.5f);
  Tensor h1 = cell.Forward(x, h, Tensor::FromVector({3, 1}, {1, 0, 1}));
  Tensor free = cell.Forward(x, h);
  for (int j = 0; j < 4; ++j) {
    EXPECT_EQ(h1.at(1, j), h.at(1, j));
    EXPECT_EQ(h1.at(0, j), free.at(0, j));
    EXPECT_EQ(h1.at(2, j), free.at(2, j));
  }
}

TEST(GruCellTest, MaskedGradCheck) {
  SeedGlobalRng(11);
  GruCell cell(2, 3);
  Tensor x = Tensor::Randn({3, 2}, 1.0f, true);
  Tensor h = Tensor::Randn({3, 3}, 0.5f, true);
  Tensor mask = Tensor::FromVector({3, 1}, {0, 1, 1});
  auto loss = [&] { return MeanAll(Square(cell.Forward(x, h, mask))); };
  std::vector<Tensor> params = cell.Parameters();
  params.push_back(x);
  params.push_back(h);
  EXPECT_LT(MaxGradError(loss, params), kTol);
}

TEST(GruSequenceTest, OutputsOneRowPerStep) {
  SeedGlobalRng(8);
  Gru gru(3, 4);
  Tensor x = Tensor::Randn({6, 3}, 1.0f);
  auto out = gru.Forward(x);
  EXPECT_EQ(out.outputs.dim(0), 6);
  EXPECT_EQ(out.outputs.dim(1), 4);
  // Final state equals last output row.
  for (int j = 0; j < 4; ++j) {
    EXPECT_FLOAT_EQ(out.final_h.at(0, j), out.outputs.at(5, j));
  }
}

TEST(LstmTest, ShapesAndGradCheck) {
  SeedGlobalRng(9);
  Lstm lstm(2, 3);
  Tensor x = Tensor::Randn({4, 2}, 1.0f);
  auto out = lstm.Forward(x);
  EXPECT_EQ(out.outputs.dim(0), 4);
  EXPECT_EQ(out.outputs.dim(1), 3);
  auto loss = [&] { return MeanAll(Square(lstm.Forward(x).outputs)); };
  EXPECT_LT(MaxGradError(loss, lstm.Parameters()), kTol);
}

TEST(BiLstmTest, ConcatenatesDirections) {
  SeedGlobalRng(10);
  BiLstm bi(3, 4);
  Tensor x = Tensor::Randn({5, 3}, 1.0f);
  Tensor y = bi.Forward(x);
  EXPECT_EQ(y.dim(0), 5);
  EXPECT_EQ(y.dim(1), 8);
}

TEST(AttentionTest, SelfAttentionShapeAndGradCheck) {
  SeedGlobalRng(11);
  MultiHeadSelfAttention mha(8, 2);
  const PaddedBatch x =
      PaddedBatch::FromFlat(Tensor::Randn({7, 8}, 1.0f), {5, 2});
  Tensor y = mha.ForwardBatched(x);
  EXPECT_EQ(y.dim(0), 2 * 5);
  EXPECT_EQ(y.dim(1), 8);
  auto loss = [&] { return MeanAll(Square(mha.ForwardBatched(x))); };
  EXPECT_LT(MaxGradError(loss, mha.Parameters()), kTol);
}

TEST(AttentionTest, SamplesDoNotAttendAcrossTheBatch) {
  // Block-diagonal scores: perturbing sample 1 must leave sample 0's rows
  // untouched, and padding query rows stay zero.
  SeedGlobalRng(12);
  MultiHeadSelfAttention mha(4, 1);
  PaddedBatch x = PaddedBatch::FromFlat(Tensor::Randn({5, 4}, 1.0f), {3, 2});
  Tensor y1 = mha.ForwardBatched(x);
  x.data.data()[3 * 4 + 1] += 100.0f;  // sample 1, row 0
  Tensor y2 = mha.ForwardBatched(x);
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 4; ++j) EXPECT_EQ(y1.at(i, j), y2.at(i, j));
  }
  for (int j = 0; j < 4; ++j) EXPECT_EQ(y1.at(3 + 2, j), 0.0f);
}

TEST(AttentionTest, AdditiveAttentionWeightsSumToOne) {
  SeedGlobalRng(13);
  AdditiveAttention attn(6);
  Tensor q = Tensor::Randn({1, 6}, 1.0f);
  Tensor keys = Tensor::Randn({7, 6}, 1.0f);
  auto out = attn.Forward(q, keys);
  EXPECT_EQ(out.context.dim(1), 6);
  double sum = 0.0;
  for (int j = 0; j < 7; ++j) sum += out.weights.at(0, j);
  EXPECT_NEAR(sum, 1.0, 1e-5);
}

TEST(AttentionTest, AdditiveAttentionGradCheck) {
  SeedGlobalRng(14);
  AdditiveAttention attn(4);
  Tensor q = Tensor::Randn({1, 4}, 1.0f);
  Tensor keys = Tensor::Randn({5, 4}, 1.0f);
  auto loss = [&] { return MeanAll(Square(attn.Forward(q, keys).context)); };
  EXPECT_LT(MaxGradError(loss, attn.Parameters()), kTol);
}

TEST(AttentionTest, AdditiveBatchedIsBatchCompositionInvariant) {
  // One batched pass over padded key blocks must reproduce each lane run
  // alone as a batch of one — ragged key lengths, a length-1 block, and a
  // compacted (prefix-only) call included.
  SeedGlobalRng(61);
  AdditiveAttention attn(8);
  const std::vector<int> lengths = {5, 3, 1};
  std::vector<Tensor> keys;
  for (int l : lengths) keys.push_back(Tensor::Randn({l, 8}, 1.0f));
  Tensor queries = Tensor::Randn({3, 8}, 1.0f);

  auto cached = attn.PrecomputeBatch(
      PaddedBatch::FromFlat(ConcatRows(keys), lengths));
  auto batched = attn.ForwardBatched(queries, cached);
  ASSERT_EQ(batched.context.dim(0), 3);
  ASSERT_EQ(batched.weights.dim(1), cached.pad_len);
  for (int i = 0; i < 3; ++i) {
    auto per = attn.ForwardBatched(
        SliceRows(queries, i, 1),
        attn.PrecomputeBatch(PaddedBatch::FromFlat(keys[i], {lengths[i]})));
    for (int j = 0; j < 8; ++j) {
      EXPECT_NEAR(batched.context.at(i, j), per.context.at(0, j), 1e-5)
          << "lane " << i;
    }
    for (int j = 0; j < lengths[i]; ++j) {
      EXPECT_NEAR(batched.weights.at(i, j), per.weights.at(0, j), 1e-5);
    }
    // Padding key positions carry exactly zero weight.
    for (int j = lengths[i]; j < cached.pad_len; ++j) {
      EXPECT_EQ(batched.weights.at(i, j), 0.0f);
    }
  }

  // Early-finish compaction: attending only the first two lanes against the
  // same cached keys gives those lanes' rows unchanged.
  auto prefix = attn.ForwardBatched(SliceRows(queries, 0, 2), cached);
  ASSERT_EQ(prefix.context.dim(0), 2);
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 8; ++j) {
      EXPECT_NEAR(prefix.context.at(i, j), batched.context.at(i, j), 1e-6);
    }
  }
}

TEST(LayerNormTest, RowsAreStandardised) {
  SeedGlobalRng(15);
  LayerNorm ln(8);
  Tensor x = Tensor::Randn({4, 8}, 3.0f);
  Tensor y = ln.Forward(x);
  for (int i = 0; i < 4; ++i) {
    double mean = 0.0;
    double var = 0.0;
    for (int j = 0; j < 8; ++j) mean += y.at(i, j);
    mean /= 8;
    for (int j = 0; j < 8; ++j) var += (y.at(i, j) - mean) * (y.at(i, j) - mean);
    var /= 8;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-3);
  }
}

TEST(LayerNormTest, GradCheck) {
  SeedGlobalRng(16);
  LayerNorm ln(5);
  Tensor x = Tensor::Randn({3, 5}, 1.0f, true);
  Tensor w = Tensor::Randn({5, 1}, 1.0f);
  auto loss = [&] { return MeanAll(Matmul(ln.Forward(x), w)); };
  std::vector<Tensor> params = ln.Parameters();
  params.push_back(x);
  EXPECT_LT(MaxGradError(loss, params), kTol);
}

TEST(GraphNormTest, TrainingNormalisesAndTracksRunningStats) {
  SeedGlobalRng(17);
  GraphNorm gn(4);
  gn.SetTraining(true);
  Tensor nodes = Tensor::Randn({10, 4}, 2.0f);
  Tensor y = gn.Forward(nodes, {3, 3, 4});
  EXPECT_EQ(y.dim(0), 10);
  // Eval mode must use running statistics and stay deterministic.
  gn.SetTraining(false);
  Tensor y1 = gn.Forward(nodes, {3, 3, 4});
  Tensor y2 = gn.Forward(nodes, {3, 3, 4});
  testing_util::ExpectVectorNear(y1.data(), y2.data());
}

TEST(GraphNormTest, SizesMustCoverNodes) {
  GraphNorm gn(2);
  Tensor nodes = Tensor::Zeros({5, 2});
  EXPECT_DEATH(gn.Forward(nodes, {2, 2}), "sizes");
}

TEST(GraphNormTest, GradCheck) {
  SeedGlobalRng(18);
  GraphNorm gn(3);
  Tensor x = Tensor::Randn({6, 3}, 1.0f, true);
  Tensor w = Tensor::Randn({3, 1}, 1.0f);
  auto loss = [&] { return MeanAll(Square(Matmul(gn.Forward(x, {2, 4}), w))); };
  std::vector<Tensor> params = gn.Parameters();
  params.push_back(x);
  EXPECT_LT(MaxGradError(loss, params), kTol);
}

// Training-mode pooling (Eq. (8)) is one SegmentMeanRows; it must equal the
// per-sub-graph ColMean(SliceRows) + ConcatRows it replaced bit for bit, so
// the whole training-mode output does too.
TEST(GraphNormTest, SegmentPoolingMatchesPerGraphColMeanBitForBit) {
  SeedGlobalRng(19);
  NoGradGuard guard;
  const int d = 5;
  const std::vector<int> sizes = {3, 1, 7, 4};
  Tensor nodes = Tensor::Randn({15, d}, 2.0f);
  std::vector<Tensor> means;
  int off = 0;
  for (int s : sizes) {
    means.push_back(ColMean(SliceRows(nodes, off, s)));
    off += s;
  }
  Tensor loop = ConcatRows(means);
  Tensor pooled = SegmentMeanRows(nodes, sizes);
  ASSERT_EQ(pooled.shape(), loop.shape());
  for (size_t i = 0; i < loop.data().size(); ++i) {
    EXPECT_EQ(loop.data()[i], pooled.data()[i]) << "at " << i;
  }

  // The full training-mode forward, with the old pooling spelled out.
  GraphNorm gn(d);
  gn.SetTraining(true);
  Tensor y = gn.Forward(nodes, sizes);
  Tensor mu = ColMean(loop);
  Tensor var = ColMean(Square(Sub(nodes, mu)));
  Tensor norm = Div(Sub(nodes, mu), Sqrt(AddScalar(var, 1e-5f)));
  Tensor want = Add(Mul(norm, Tensor::Full({d}, 1.0f)), Tensor::Zeros({d}));
  for (size_t i = 0; i < want.data().size(); ++i) {
    EXPECT_EQ(want.data()[i], y.data()[i]) << "at " << i;
  }
}

TEST(GraphNormTest, TrainingModeGradCheck) {
  SeedGlobalRng(20);
  GraphNorm gn(3);
  gn.SetTraining(true);
  Tensor x = Tensor::Randn({7, 3}, 1.0f, true);
  Tensor w = Tensor::Randn({3, 1}, 1.0f);
  auto loss = [&] {
    return MeanAll(Square(Matmul(gn.Forward(x, {2, 1, 4}), w)));
  };
  std::vector<Tensor> params = gn.Parameters();
  params.push_back(x);
  EXPECT_LT(MaxGradError(loss, params), kTol);
}

// One sequence through the layer as a batch of one.
Tensor EncodeAlone(const TransformerEncoderLayer& layer, const Tensor& x) {
  const PaddedBatch pb = PaddedBatch::FromFlat(x, {x.dim(0)});
  return layer.ForwardBatched(pb, pb.RowMask()).data;
}

TEST(TransformerTest, EncoderLayerPreservesShape) {
  SeedGlobalRng(19);
  TransformerEncoderLayer layer(8, 2, 16);
  Tensor x = Tensor::Randn({6, 8}, 1.0f);
  Tensor y = EncodeAlone(layer, x);
  EXPECT_EQ(y.dim(0), 6);
  EXPECT_EQ(y.dim(1), 8);
}

TEST(TransformerTest, EncoderGradCheckSpotCheck) {
  SeedGlobalRng(20);
  TransformerEncoderLayer layer(4, 2, 8);
  Tensor x = Tensor::Randn({3, 4}, 1.0f, true);
  auto loss = [&] { return MeanAll(Square(EncodeAlone(layer, x))); };
  EXPECT_LT(MaxGradError(loss, {x}), kTol);
}

TEST(TransformerTest, BatchedEncoderLayerIsBatchCompositionInvariant) {
  // The padded-batch layer must give every sample's valid rows the values
  // it gets alone as a batch of one (to float rounding: the blocked GEMM's
  // row-peel kernels may contract FMAs differently at different batch
  // heights) and keep padding rows at zero.
  SeedGlobalRng(21);
  TransformerEncoderLayer layer(8, 2, 16);
  const std::vector<int> lengths = {5, 2, 3};
  std::vector<Tensor> samples;
  std::vector<Tensor> flat_parts;
  for (int l : lengths) {
    samples.push_back(Tensor::Randn({l, 8}, 1.0f));
    flat_parts.push_back(samples.back());
  }
  PaddedBatch pb = PaddedBatch::FromFlat(ConcatRows(flat_parts), lengths);
  ASSERT_EQ(pb.pad_len, 5);
  PaddedBatch out = layer.ForwardBatched(pb, pb.RowMask());

  for (size_t s = 0; s < lengths.size(); ++s) {
    Tensor want = EncodeAlone(layer, samples[s]);
    Tensor got = out.Slice(static_cast<int>(s));
    for (int i = 0; i < lengths[s]; ++i) {
      for (int j = 0; j < 8; ++j) {
        EXPECT_NEAR(got.at(i, j), want.at(i, j), 2e-5)
            << "sample " << s << " at (" << i << "," << j << ")";
      }
    }
    // Padding rows stay exactly zero through attention/FFN/LayerNorm.
    for (int i = lengths[s]; i < out.pad_len; ++i) {
      for (int j = 0; j < 8; ++j) {
        EXPECT_EQ(out.data.at(static_cast<int>(s) * out.pad_len + i, j), 0.0f);
      }
    }
  }
}

TEST(TransformerTest, StackedPositionEncodingRestartsPerSample) {
  const std::vector<int> lengths = {4, 2};
  Tensor pe = StackedPositionEncoding(lengths, 6);
  Tensor ref = SinusoidalPositionEncoding(4, 6);
  ASSERT_EQ(pe.dim(0), 6);
  for (int j = 0; j < 6; ++j) {
    EXPECT_EQ(pe.at(0, j), ref.at(0, j));   // sample 0, pos 0
    EXPECT_EQ(pe.at(3, j), ref.at(3, j));   // sample 0, pos 3
    EXPECT_EQ(pe.at(4, j), ref.at(0, j));   // sample 1 restarts at pos 0
    EXPECT_EQ(pe.at(5, j), ref.at(1, j));
  }
}

TEST(TransformerTest, PositionEncodingRangeAndDistinctRows) {
  Tensor pe = SinusoidalPositionEncoding(16, 8);
  EXPECT_EQ(pe.dim(0), 16);
  EXPECT_EQ(pe.dim(1), 8);
  for (float v : pe.data()) {
    EXPECT_GE(v, -1.0f);
    EXPECT_LE(v, 1.0f);
  }
  // Rows must differ (position information).
  bool any_diff = false;
  for (int j = 0; j < 8; ++j) any_diff |= pe.at(0, j) != pe.at(5, j);
  EXPECT_TRUE(any_diff);
}

DenseGraph ChainGraph(int n) {
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i + 1 < n; ++i) edges.push_back({i, i + 1});
  return BuildDenseGraph(n, edges);
}

TEST(DenseGraphTest, MasksMatchEdges) {
  DenseGraph g = ChainGraph(3);  // 0->1->2 plus self loops
  // Row 1 (node 1) may attend to {0 (pred), 1 (self)} but not 2.
  EXPECT_EQ(g.adj_self.at(1, 0), 1.0f);
  EXPECT_EQ(g.adj_self.at(1, 1), 1.0f);
  EXPECT_EQ(g.adj_self.at(1, 2), 0.0f);
  EXPECT_EQ(g.neg_mask.at(1, 2), -1e9f);
  EXPECT_EQ(g.adj_noself.at(1, 1), 0.0f);
  EXPECT_EQ(g.adj_noself.at(1, 0), 1.0f);
}

TEST(DenseGraphTest, GcnNormRowsAreFinite) {
  DenseGraph g = ChainGraph(4);
  for (float v : g.gcn_norm.data()) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_GE(v, 0.0f);
  }
}

TEST(DenseGraphTest, BuildDenseGraphInvariants) {
  // Property test over a non-trivial directed graph: every mask BuildDenseGraph
  // emits must stay mutually consistent (previously only exercised indirectly
  // through layer outputs).
  const int n = 5;
  const std::vector<std::pair<int, int>> edges = {
      {0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {0, 3}, {2, 0}};
  DenseGraph g = BuildDenseGraph(n, edges);

  std::vector<float> deg(n, 0.0f);
  for (int i = 0; i < n; ++i) {
    // Self-loops: every node attends to itself.
    EXPECT_EQ(g.adj_self.at(i, i), 1.0f) << "node " << i;
    EXPECT_EQ(g.neg_mask.at(i, i), 0.0f) << "node " << i;
    EXPECT_EQ(g.adj_noself.at(i, i), 0.0f) << "node " << i;
    for (int j = 0; j < n; ++j) {
      const float a = g.adj_self.at(i, j);
      EXPECT_TRUE(a == 0.0f || a == 1.0f) << "(" << i << "," << j << ")";
      // Mask/adjacency consistency: attendable exactly where adjacent.
      EXPECT_EQ(g.neg_mask.at(i, j), a == 1.0f ? 0.0f : -1e9f)
          << "(" << i << "," << j << ")";
      // adj_noself is adj_self with the diagonal removed.
      EXPECT_EQ(g.adj_noself.at(i, j), i == j ? 0.0f : a)
          << "(" << i << "," << j << ")";
      // gcn_norm support matches adj_self support.
      EXPECT_EQ(g.gcn_norm.at(i, j) != 0.0f, a != 0.0f)
          << "(" << i << "," << j << ")";
      deg[i] += a;
    }
  }
  // Edge rows: (src, dst) means dst aggregates from src.
  for (const auto& [src, dst] : edges) {
    EXPECT_EQ(g.adj_self.at(dst, src), 1.0f) << src << "->" << dst;
  }
  // gcn_norm is exactly D^-1/2 (A+I) D^-1/2 over the row degrees. Its row
  // sums are bounded: each of the deg_i nonzero terms is at most
  // 1/sqrt(deg_i) (deg_j >= 1 from the self-loop), so
  // 0 < row_sum <= sqrt(deg_i), with equality at 1 for degree-regular rows.
  for (int i = 0; i < n; ++i) {
    float row_sum = 0.0f;
    for (int j = 0; j < n; ++j) {
      const float want = g.adj_self.at(i, j) / std::sqrt(deg[i] * deg[j]);
      EXPECT_FLOAT_EQ(g.gcn_norm.at(i, j), want) << "(" << i << "," << j << ")";
      row_sum += g.gcn_norm.at(i, j);
    }
    EXPECT_GT(row_sum, 0.0f);
    EXPECT_LE(row_sum, std::sqrt(deg[i]) + 1e-6f) << "row " << i;
  }
  // Degree-regular case: complete-graph rows sum to exactly 1.
  std::vector<std::pair<int, int>> complete;
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      if (i != j) complete.push_back({i, j});
    }
  }
  DenseGraph k3 = BuildDenseGraph(3, complete);
  for (int i = 0; i < 3; ++i) {
    float row_sum = 0.0f;
    for (int j = 0; j < 3; ++j) row_sum += k3.gcn_norm.at(i, j);
    EXPECT_NEAR(row_sum, 1.0f, 1e-6f) << "row " << i;
  }
}

// The ragged graph mix every BatchedDenseGraph test below uses: a 1-node
// sub-graph, an edge-less (self-loops only) pair, a chain, and a denser
// 4-node graph — the shapes the serving sub-graph extractor produces.
std::vector<DenseGraph> RaggedGraphs() {
  std::vector<DenseGraph> graphs;
  graphs.push_back(BuildDenseGraph(1, {}));
  graphs.push_back(BuildDenseGraph(2, {}));
  graphs.push_back(BuildDenseGraph(3, {{0, 1}, {1, 2}}));
  graphs.push_back(BuildDenseGraph(4, {{0, 1}, {2, 3}, {1, 2}, {0, 3}}));
  return graphs;
}

std::vector<const DenseGraph*> GraphPtrs(const std::vector<DenseGraph>& graphs) {
  std::vector<const DenseGraph*> ptrs;
  for (const auto& g : graphs) ptrs.push_back(&g);
  return ptrs;
}

TEST(BatchedDenseGraphTest, PackedBlocksMatchPerGraphMasks) {
  std::vector<DenseGraph> graphs = RaggedGraphs();
  BatchedDenseGraph bg = BuildBatchedDenseGraph(GraphPtrs(graphs));

  ASSERT_EQ(bg.num_graphs, 4);
  EXPECT_EQ(bg.total_nodes, 1 + 2 + 3 + 4);
  EXPECT_EQ(bg.total_entries, 1 + 4 + 9 + 16);
  ASSERT_EQ(static_cast<int>(bg.sizes.size()), 4);
  int node = 0;
  int entry = 0;
  for (size_t g = 0; g < graphs.size(); ++g) {
    const int n = graphs[g].n;
    EXPECT_EQ(bg.sizes[g], n);
    EXPECT_EQ(bg.node_offsets[g], node);
    EXPECT_EQ(bg.entry_offsets[g], entry);
    // The packed block is that graph's mask, bit for bit.
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        EXPECT_EQ(bg.neg_mask.at(entry + i * n + j), graphs[g].neg_mask.at(i, j))
            << "graph " << g << " (" << i << "," << j << ")";
        EXPECT_EQ(bg.adj_self.at(entry + i * n + j), graphs[g].adj_self.at(i, j))
            << "graph " << g << " (" << i << "," << j << ")";
      }
    }
    node += n;
    entry += n * n;
  }
  EXPECT_EQ(static_cast<int>(bg.neg_mask.size()), bg.total_entries);
  EXPECT_EQ(static_cast<int>(bg.adj_self.size()), bg.total_entries);
}

TEST(BatchedDenseGraphTest, ConcatMatchesDirectBuild) {
  // Concatenating per-sample packs (the serving cache path) must equal
  // packing the full flat graph list directly.
  std::vector<DenseGraph> graphs = RaggedGraphs();
  std::vector<const DenseGraph*> ptrs = GraphPtrs(graphs);
  BatchedDenseGraph direct = BuildBatchedDenseGraph(ptrs);

  BatchedDenseGraph part1 = BuildBatchedDenseGraph({ptrs[0], ptrs[1]});
  BatchedDenseGraph part2 = BuildBatchedDenseGraph({ptrs[2], ptrs[3]});
  BatchedDenseGraph cat = ConcatBatchedDenseGraphs({&part1, &part2});

  EXPECT_EQ(cat.num_graphs, direct.num_graphs);
  EXPECT_EQ(cat.total_nodes, direct.total_nodes);
  EXPECT_EQ(cat.total_entries, direct.total_entries);
  EXPECT_EQ(cat.sizes, direct.sizes);
  EXPECT_EQ(cat.node_offsets, direct.node_offsets);
  EXPECT_EQ(cat.entry_offsets, direct.entry_offsets);
  for (int e = 0; e < direct.total_entries; ++e) {
    EXPECT_EQ(cat.neg_mask.at(e), direct.neg_mask.at(e)) << "entry " << e;
    EXPECT_EQ(cat.adj_self.at(e), direct.adj_self.at(e)) << "entry " << e;
  }

  // Single-part concat (B=1) reproduces the pack unchanged.
  BatchedDenseGraph one = ConcatBatchedDenseGraphs({&direct});
  EXPECT_EQ(one.sizes, direct.sizes);
  EXPECT_EQ(one.entry_offsets, direct.entry_offsets);
  for (int e = 0; e < direct.total_entries; ++e) {
    EXPECT_EQ(one.neg_mask.at(e), direct.neg_mask.at(e)) << "entry " << e;
  }
}

TEST(GatLayerTest, IsolatedNodeOnlySeesItself) {
  SeedGlobalRng(21);
  // Node 2 has no incoming edges besides its self loop.
  DenseGraph g = BuildDenseGraph(3, {{0, 1}});
  GatLayer gat(4, 1);
  Tensor h = Tensor::Randn({3, 4}, 1.0f);
  Tensor y1 = gat.Forward(h, g);
  h.data()[0] += 50.0f;  // perturb node 0
  Tensor y2 = gat.Forward(h, g);
  for (int j = 0; j < 4; ++j) {
    EXPECT_NEAR(y1.at(2, j), y2.at(2, j), 1e-4) << "node 2 must be isolated";
  }
  // Node 1 aggregates node 0, so it must change.
  bool changed = false;
  for (int j = 0; j < 4; ++j) changed |= std::abs(y1.at(1, j) - y2.at(1, j)) > 1e-3;
  EXPECT_TRUE(changed);
}

TEST(GatLayerTest, GradCheck) {
  SeedGlobalRng(22);
  DenseGraph g = ChainGraph(3);
  GatLayer gat(4, 2);
  Tensor h = Tensor::Randn({3, 4}, 1.0f, true);
  auto loss = [&] { return MeanAll(Square(gat.Forward(h, g))); };
  std::vector<Tensor> params = gat.Parameters();
  params.push_back(h);
  EXPECT_LT(MaxGradError(loss, params), kTol);
}

TEST(GatLayerTest, ForwardBatchedMatchesPerGraphForward) {
  // The block-diagonal batched pass must reproduce the graph-by-graph loop
  // over ragged sub-graph sizes (incl. 1-node and edge-less graphs), for one
  // head and for multiple heads. Tolerance is the batched-path float-rounding
  // bound: the fat projection GEMMs run at a different height than their
  // per-graph equivalents.
  for (int heads : {1, 4}) {
    SeedGlobalRng(24 + heads);
    std::vector<DenseGraph> graphs = RaggedGraphs();
    BatchedDenseGraph bg = BuildBatchedDenseGraph(GraphPtrs(graphs));
    GatLayer gat(8, heads);
    std::vector<Tensor> h_parts;
    for (const auto& g : graphs) h_parts.push_back(Tensor::Randn({g.n, 8}, 1.0f));
    Tensor batched = gat.ForwardBatched(ConcatRows(h_parts), bg);
    ASSERT_EQ(batched.dim(0), bg.total_nodes);
    ASSERT_EQ(batched.dim(1), 8);
    int node = 0;
    for (size_t g = 0; g < graphs.size(); ++g) {
      Tensor ref = gat.Forward(h_parts[g], graphs[g]);
      for (int i = 0; i < graphs[g].n; ++i) {
        for (int j = 0; j < 8; ++j) {
          EXPECT_NEAR(batched.at(node + i, j), ref.at(i, j), 1e-6)
              << "heads=" << heads << " graph " << g << " (" << i << "," << j
              << ")";
        }
      }
      node += graphs[g].n;
    }
  }
}

TEST(GatLayerTest, ForwardBatchedSingleGraphIsBitExact) {
  // With ONE graph in the batch every kernel runs at identical heights on
  // identical data, so the batched path collapses to Forward bit for bit.
  SeedGlobalRng(26);
  DenseGraph g = ChainGraph(5);
  BatchedDenseGraph bg = BuildBatchedDenseGraph({&g});
  GatLayer gat(8, 2);
  Tensor h = Tensor::Randn({5, 8}, 1.0f);
  Tensor batched = gat.ForwardBatched(h, bg);
  Tensor ref = gat.Forward(h, g);
  for (int i = 0; i < 5; ++i) {
    for (int j = 0; j < 8; ++j) {
      EXPECT_EQ(batched.at(i, j), ref.at(i, j)) << "(" << i << "," << j << ")";
    }
  }
}

TEST(GatLayerTest, ForwardBatchedIsolatesGraphs) {
  // No cross-graph leakage: perturbing one graph's nodes must leave every
  // other graph's outputs bit-unchanged (projections are row-local, the
  // score/softmax/attention stage is per-block).
  SeedGlobalRng(27);
  std::vector<DenseGraph> graphs = RaggedGraphs();
  BatchedDenseGraph bg = BuildBatchedDenseGraph(GraphPtrs(graphs));
  GatLayer gat(8, 2);
  Tensor h = Tensor::Randn({bg.total_nodes, 8}, 1.0f);
  Tensor before = gat.ForwardBatched(h, bg);
  // Perturb every node of graph 2 (rows 3..5).
  for (int i = bg.node_offsets[2]; i < bg.node_offsets[3]; ++i) {
    h.data()[static_cast<size_t>(i) * 8] += 25.0f;
  }
  Tensor after = gat.ForwardBatched(h, bg);
  for (int i = 0; i < bg.total_nodes; ++i) {
    const bool in_graph2 = i >= bg.node_offsets[2] && i < bg.node_offsets[3];
    if (in_graph2) continue;
    for (int j = 0; j < 8; ++j) {
      EXPECT_EQ(before.at(i, j), after.at(i, j))
          << "row " << i << " leaked across graphs";
    }
  }
}

TEST(GatLayerTest, ForwardBatchedGradCheck) {
  SeedGlobalRng(28);
  std::vector<DenseGraph> graphs = RaggedGraphs();
  BatchedDenseGraph bg = BuildBatchedDenseGraph(GraphPtrs(graphs));
  GatLayer gat(4, 2);
  Tensor h = Tensor::Randn({bg.total_nodes, 4}, 1.0f, true);
  auto loss = [&] { return MeanAll(Square(gat.ForwardBatched(h, bg))); };
  std::vector<Tensor> params = gat.Parameters();
  params.push_back(h);
  EXPECT_LT(MaxGradError(loss, params), kTol);
}

TEST(GcnGinLayerTest, ShapesAndGradCheck) {
  SeedGlobalRng(23);
  DenseGraph g = ChainGraph(4);
  GcnLayer gcn(3, 3);
  GinLayer gin(3, 6);
  Tensor h = Tensor::Randn({4, 3}, 1.0f, true);
  EXPECT_EQ(gcn.Forward(h, g).dim(1), 3);
  EXPECT_EQ(gin.Forward(h, g).dim(1), 3);
  auto loss = [&] { return MeanAll(Square(gin.Forward(gcn.Forward(h, g), g))); };
  std::vector<Tensor> params = gcn.Parameters();
  for (auto& p : gin.Parameters()) params.push_back(p);
  EXPECT_LT(MaxGradError(loss, params), kTol);
}

TEST(ModuleTest, NamedParametersHaveDottedPaths) {
  Gru gru(2, 3);
  auto named = gru.NamedParameters();
  ASSERT_FALSE(named.empty());
  EXPECT_EQ(named[0].first.rfind("cell.", 0), 0);
}

TEST(ModuleTest, SetTrainingRecurses) {
  TransformerEncoderLayer layer(4, 1, 8);
  layer.SetTraining(false);
  EXPECT_FALSE(layer.training());
}

TEST(OptimTest, SgdStepsDownhill) {
  Tensor w = Tensor::FromVector({2}, {5.0f, -3.0f}, true);
  Sgd opt({w}, 0.1f);
  for (int i = 0; i < 50; ++i) {
    opt.ZeroGrad();
    Tensor loss = MeanAll(Square(w));
    loss.Backward();
    opt.Step();
  }
  EXPECT_LT(std::abs(w.at(0)), 0.1f);
  EXPECT_LT(std::abs(w.at(1)), 0.1f);
}

TEST(OptimTest, AdamFitsLinearRegression) {
  SeedGlobalRng(24);
  // y = x * [2, -1]^T + 0.5
  Tensor x = Tensor::Randn({32, 2}, 1.0f);
  std::vector<float> yv(32);
  for (int i = 0; i < 32; ++i) yv[i] = 2 * x.at(i, 0) - x.at(i, 1) + 0.5f;
  Tensor y = Tensor::FromVector({32, 1}, yv);
  Linear lin(2, 1);
  Adam opt(lin.Parameters(), 5e-2f);
  float first_loss = 0.0f;
  float last_loss = 0.0f;
  for (int e = 0; e < 200; ++e) {
    opt.ZeroGrad();
    Tensor loss = MeanAll(Square(Sub(lin.Forward(x), y)));
    if (e == 0) first_loss = loss.item();
    last_loss = loss.item();
    loss.Backward();
    opt.Step();
  }
  EXPECT_LT(last_loss, first_loss * 0.01f);
  EXPECT_LT(last_loss, 1e-2f);
}

TEST(OptimTest, ClipGradNormScalesLongGradients) {
  Tensor w = Tensor::FromVector({2}, {1.0f, 1.0f}, true);
  w.grad()[0] = 3.0f;
  w.grad()[1] = 4.0f;  // norm 5
  std::vector<Tensor> params = {w};
  const double pre = ClipGradNorm(params, 1.0);
  EXPECT_NEAR(pre, 5.0, 1e-6);
  EXPECT_NEAR(w.grad()[0], 0.6f, 1e-5);
  EXPECT_NEAR(w.grad()[1], 0.8f, 1e-5);
  // Short gradients are untouched.
  const double pre2 = ClipGradNorm(params, 10.0);
  EXPECT_NEAR(pre2, 1.0, 1e-5);
  EXPECT_NEAR(w.grad()[0], 0.6f, 1e-5);
}

}  // namespace
}  // namespace rntraj
