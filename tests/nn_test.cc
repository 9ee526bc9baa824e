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
  EXPECT_EQ(lin.StateDict().ScalarCount(), 4 * 3 + 3);
  Linear nb(4, 3, /*bias=*/false);
  EXPECT_EQ(nb.StateDict().ScalarCount(), 12);
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

CsrGraph ChainGraph(int n, EdgeWeights weights = EdgeWeights::kNone) {
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i + 1 < n; ++i) edges.push_back({i, i + 1});
  return BuildCsrGraph(n, edges, weights);
}

// Sources of node i's in-edges, in CSR order.
std::vector<int> InEdges(const CsrGraph& g, int i) {
  const CsrIndex& csr = *g.csr;
  return std::vector<int>(csr.src.begin() + csr.offsets[i],
                          csr.src.begin() + csr.offsets[i + 1]);
}

const std::vector<std::pair<int, int>> kFiveNodeEdges = {
    {0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {0, 3}, {2, 0}};

TEST(CsrGraphTest, RowsHoldSelfLoopAndPredecessorsSorted) {
  CsrGraph g = BuildCsrGraph(5, kFiveNodeEdges);
  EXPECT_EQ(g.num_nodes(), 5);
  EXPECT_EQ(g.num_edges(), 5 + 7);
  EXPECT_EQ(g.sizes, std::vector<int>({5}));
  EXPECT_EQ(g.weights, EdgeWeights::kNone);
  EXPECT_FALSE(g.weight.defined());
  // (src, dst): dst aggregates from src.
  EXPECT_EQ(InEdges(g, 0), std::vector<int>({0, 2, 4}));
  EXPECT_EQ(InEdges(g, 1), std::vector<int>({0, 1}));
  EXPECT_EQ(InEdges(g, 2), std::vector<int>({1, 2}));
  EXPECT_EQ(InEdges(g, 3), std::vector<int>({0, 2, 3}));
  EXPECT_EQ(InEdges(g, 4), std::vector<int>({3, 4}));
}

TEST(CsrGraphTest, GcnNormUsesInDegreeOnBothSides) {
  // The one directed edge 1<-0: deg(1) = 2 (edge + self-loop), deg(0) = 1.
  // A symmetric normaliser over the symmetrised adjacency would give 1/2.
  CsrGraph pair = BuildCsrGraph(2, {{0, 1}}, EdgeWeights::kGcnNorm);
  ASSERT_EQ(InEdges(pair, 1), std::vector<int>({0, 1}));
  const int edge_1_from_0 = pair.csr->offsets[1];
  EXPECT_FLOAT_EQ(pair.weight.at(edge_1_from_0), 1.0f / std::sqrt(2.0f));
  EXPECT_FLOAT_EQ(pair.weight.at(edge_1_from_0 + 1), 0.5f);  // self-loop of 1
  EXPECT_FLOAT_EQ(pair.weight.at(0), 1.0f);                  // self-loop of 0

  // Every weight is 1/sqrt(deg(dst) deg(src)) over a larger directed graph.
  CsrGraph g = BuildCsrGraph(5, kFiveNodeEdges, EdgeWeights::kGcnNorm);
  const CsrIndex& csr = *g.csr;
  auto deg = [&](int i) {
    return static_cast<float>(csr.offsets[i + 1] - csr.offsets[i]);
  };
  for (int i = 0; i < 5; ++i) {
    for (int e = csr.offsets[i]; e < csr.offsets[i + 1]; ++e) {
      EXPECT_FLOAT_EQ(g.weight.at(e),
                      1.0f / std::sqrt(deg(i) * deg(csr.src[e])))
          << "edge " << e;
    }
  }
  // Degree-regular case: complete-graph rows sum to 1.
  std::vector<std::pair<int, int>> complete;
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      if (i != j) complete.push_back({i, j});
    }
  }
  CsrGraph k3 = BuildCsrGraph(3, complete, EdgeWeights::kGcnNorm);
  for (int i = 0; i < 3; ++i) {
    float row_sum = 0.0f;
    for (int e = k3.csr->offsets[i]; e < k3.csr->offsets[i + 1]; ++e) {
      row_sum += k3.weight.at(e);
    }
    EXPECT_NEAR(row_sum, 1.0f, 1e-6f) << "row " << i;
  }
}

TEST(CsrGraphTest, NeighbourWeightsZeroOnlySelfLoops) {
  CsrGraph g = BuildCsrGraph(5, kFiveNodeEdges, EdgeWeights::kNeighbours);
  const CsrIndex& csr = *g.csr;
  for (int i = 0; i < 5; ++i) {
    for (int e = csr.offsets[i]; e < csr.offsets[i + 1]; ++e) {
      EXPECT_EQ(g.weight.at(e), csr.src[e] == i ? 0.0f : 1.0f) << "edge " << e;
    }
  }
}

TEST(CsrGraphTest, BuilderLaysComponentsOutInOrder) {
  // A batch of graphs is their disjoint union: node ids shift by the nodes
  // before, and each row is the component's own row, shifted.
  const std::vector<std::pair<int, std::vector<std::pair<int, int>>>> parts = {
      {1, {}},
      {2, {}},
      {3, {{0, 1}, {1, 2}}},
      {4, {{0, 1}, {2, 3}, {1, 2}, {0, 3}}}};
  CsrGraphBuilder builder;
  for (const auto& [n, edges] : parts) builder.Add(n, edges);
  CsrGraph batch = builder.Build();
  EXPECT_EQ(batch.sizes, std::vector<int>({1, 2, 3, 4}));
  ASSERT_EQ(batch.num_nodes(), 10);
  int base = 0;
  int edges = 0;
  for (const auto& [n, part_edges] : parts) {
    CsrGraph alone = BuildCsrGraph(n, part_edges);
    edges += alone.num_edges();
    for (int i = 0; i < n; ++i) {
      std::vector<int> want = InEdges(alone, i);
      for (int& s : want) s += base;
      EXPECT_EQ(InEdges(batch, base + i), want) << "node " << base + i;
    }
    base += n;
  }
  EXPECT_EQ(batch.num_edges(), edges);

  // The builder starts over after Build().
  builder.Add(2, {{1, 0}});
  CsrGraph next = builder.Build();
  EXPECT_EQ(next.sizes, std::vector<int>({2}));
  EXPECT_EQ(InEdges(next, 0), std::vector<int>({0, 1}));
}

TEST(CsrGraphDeathTest, RejectsInvalidEdges) {
  EXPECT_DEATH(BuildCsrGraph(3, {{0, 3}}), "invalid");
  EXPECT_DEATH(BuildCsrGraph(3, {{-1, 0}}), "invalid");
  EXPECT_DEATH(BuildCsrGraph(3, {{1, 1}}), "invalid");
  EXPECT_DEATH(BuildCsrGraph(3, {{0, 1}, {2, 1}, {0, 1}}), "duplicate");
}

TEST(GatLayerTest, IsolatedNodeOnlySeesItself) {
  SeedGlobalRng(21);
  // Node 2 has no incoming edges besides its self loop.
  CsrGraph g = BuildCsrGraph(3, {{0, 1}});
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

// A random batch of disjoint directed graphs with 1-8 nodes each: 1-node
// graphs and nodes with no in-edges occur at these sizes and densities.
struct RandomGraphBatch {
  std::vector<std::pair<int, std::vector<std::pair<int, int>>>> parts;
  CsrGraph graph;

  RandomGraphBatch(Rng& rng, int num_graphs) {
    CsrGraphBuilder builder;
    for (int g = 0; g < num_graphs; ++g) {
      const int n = g == 0 ? 1 : static_cast<int>(rng.UniformInt(1, 8));
      std::vector<std::pair<int, int>> edges;
      for (int s = 0; s < n; ++s) {
        for (int d = 0; d < n; ++d) {
          if (s != d && rng.Uniform(0.0, 1.0) < 0.25) edges.push_back({s, d});
        }
      }
      builder.Add(n, edges);
      parts.push_back({n, std::move(edges)});
    }
    graph = builder.Build();
  }

  /// The (n, n) additive mask of the whole batch: 0 where row i may attend
  /// to column j (self-loops and in-edges), -1e9 elsewhere.
  Tensor DenseMask() const {
    const int n = graph.num_nodes();
    Tensor mask = Tensor::Full({n, n}, -1e9f);
    int base = 0;
    for (const auto& [size, edges] : parts) {
      for (int i = 0; i < size; ++i) {
        mask.data()[static_cast<size_t>(base + i) * n + base + i] = 0.0f;
      }
      for (const auto& [s, d] : edges) {
        mask.data()[static_cast<size_t>(base + d) * n + base + s] = 0.0f;
      }
      base += size;
    }
    return mask;
  }
};

// Paper Eq. (3)-(4) written densely from generic ops: (n, n) scores
// u_i + v_j, the -1e9 connectivity mask, a row softmax and a dense product.
Tensor DenseGatReference(GatLayer& gat, int heads, const Tensor& h,
                         const Tensor& mask) {
  const StateDict sd = gat.StateDict();
  const auto p = [&sd](const std::string& name) {
    return sd.Find(name)->tensor;
  };
  const int n = h.dim(0);
  std::vector<Tensor> outs;
  for (int k = 0; k < heads; ++k) {
    const std::string sfx = "_h" + std::to_string(k);
    Tensor hw = Matmul(h, p("w" + sfx));
    Tensor ha = Matmul(h, p("w_att" + sfx));
    Tensor u = Matmul(ha, p("a_src" + sfx));                  // (n, 1)
    Tensor v = Reshape(Matmul(ha, p("a_dst" + sfx)), {n});  // row
    Tensor scores = Add(Add(Tensor::Zeros({n, n}), u), v);
    Tensor attn = SoftmaxRows(Add(LeakyRelu(scores, 0.2f), mask));
    outs.push_back(LeakyRelu(Matmul(attn, hw), 0.2f));
  }
  return heads == 1 ? outs[0] : ConcatCols(outs);
}

TEST(GatLayerTest, MatchesDenseMaskedReference) {
  for (int heads : {1, 4}) {
    for (int trial = 0; trial < 4; ++trial) {
      SeedGlobalRng(24 + 10 * heads + trial);
      Rng rng(100 + trial);
      RandomGraphBatch batch(rng, 6);
      GatLayer gat(8, heads);
      Tensor h = Tensor::Randn({batch.graph.num_nodes(), 8}, 1.0f);
      Tensor got = gat.Forward(h, batch.graph);
      Tensor want = DenseGatReference(gat, heads, h, batch.DenseMask());
      ASSERT_EQ(got.shape(), want.shape());
      for (int i = 0; i < got.dim(0); ++i) {
        for (int j = 0; j < got.dim(1); ++j) {
          EXPECT_NEAR(got.at(i, j), want.at(i, j), 1e-6)
              << "heads=" << heads << " trial " << trial << " (" << i << ","
              << j << ")";
        }
      }
    }
  }
}

TEST(GatLayerTest, BatchIsolatesGraphs) {
  // No cross-graph leakage: perturbing one component's nodes leaves every
  // other component's outputs bit-unchanged.
  SeedGlobalRng(27);
  Rng rng(27);
  RandomGraphBatch batch(rng, 5);
  GatLayer gat(8, 2);
  const int n = batch.graph.num_nodes();
  Tensor h = Tensor::Randn({n, 8}, 1.0f);
  Tensor before = gat.Forward(h, batch.graph);
  const int first = batch.parts[0].first + batch.parts[1].first;
  const int last = first + batch.parts[2].first;
  for (int i = first; i < last; ++i) {
    h.data()[static_cast<size_t>(i) * 8] += 25.0f;
  }
  Tensor after = gat.Forward(h, batch.graph);
  for (int i = 0; i < n; ++i) {
    if (i >= first && i < last) continue;
    for (int j = 0; j < 8; ++j) {
      EXPECT_EQ(before.at(i, j), after.at(i, j))
          << "row " << i << " leaked across graphs";
    }
  }
}

TEST(GatLayerTest, GradCheck) {
  SeedGlobalRng(22);
  Rng rng(22);
  RandomGraphBatch batch(rng, 3);
  GatLayer gat(4, 2);
  Tensor h = Tensor::Randn({batch.graph.num_nodes(), 4}, 1.0f, true);
  auto loss = [&] { return MeanAll(Square(gat.Forward(h, batch.graph))); };
  std::vector<Tensor> params = gat.Parameters();
  params.push_back(h);
  EXPECT_LT(MaxGradError(loss, params), kTol);
}

TEST(GcnGinLayerTest, ShapesAndGradCheck) {
  SeedGlobalRng(23);
  CsrGraph gcn_graph = ChainGraph(4, EdgeWeights::kGcnNorm);
  CsrGraph gin_graph = ChainGraph(4, EdgeWeights::kNeighbours);
  GcnLayer gcn(3, 3);
  GinLayer gin(3, 6);
  Tensor h = Tensor::Randn({4, 3}, 1.0f, true);
  EXPECT_EQ(gcn.Forward(h, gcn_graph).dim(1), 3);
  EXPECT_EQ(gin.Forward(h, gin_graph).dim(1), 3);
  auto loss = [&] {
    return MeanAll(Square(gin.Forward(gcn.Forward(h, gcn_graph), gin_graph)));
  };
  std::vector<Tensor> params = gcn.Parameters();
  for (auto& p : gin.Parameters()) params.push_back(p);
  EXPECT_LT(MaxGradError(loss, params), kTol);
}

TEST(GcnGinLayerTest, PropagateOverTheirEdgeWeights) {
  // GCN aggregates the kGcnNorm-weighted rows; GIN sums in-neighbours only.
  SeedGlobalRng(29);
  CsrGraph gcn_graph = BuildCsrGraph(2, {{0, 1}}, EdgeWeights::kGcnNorm);
  Tensor h = Tensor::FromVector({2, 1}, {3.0f, 5.0f});
  Tensor agg = SpMM(gcn_graph.weight, h, gcn_graph.csr);
  EXPECT_FLOAT_EQ(agg.at(0, 0), 3.0f);
  EXPECT_FLOAT_EQ(agg.at(1, 0), 3.0f / std::sqrt(2.0f) + 0.5f * 5.0f);
  CsrGraph gin_graph = BuildCsrGraph(2, {{0, 1}}, EdgeWeights::kNeighbours);
  Tensor sum = SpMM(gin_graph.weight, h, gin_graph.csr);
  EXPECT_FLOAT_EQ(sum.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(sum.at(1, 0), 3.0f);
  // Each layer refuses a graph carrying the other's weights.
  GcnLayer gcn(1, 1);
  EXPECT_DEATH(gcn.Forward(h, gin_graph), "kGcnNorm");
}

TEST(ModuleTest, SetTrainingRecurses) {
  TransformerEncoderLayer layer(4, 1, 8);
  layer.SetTraining(false);
  EXPECT_FALSE(layer.training());
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
