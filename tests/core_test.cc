#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <thread>

#include "src/common/random.h"
#include "src/core/decoder.h"
#include "src/core/features.h"
#include "src/core/gpsformer.h"
#include "src/core/gridgnn.h"
#include "src/core/rntrajrec.h"
#include "src/core/trainer.h"
#include "src/nn/optim.h"
#include "src/sim/presets.h"

namespace rntraj {
namespace {

// Shared tiny dataset for all core tests (built once; expensive).
class CoreFixture : public ::testing::Test {
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

Dataset* CoreFixture::dataset_ = nullptr;
ModelContext* CoreFixture::ctx_ = nullptr;

TEST_F(CoreFixture, FeatureShapes) {
  const auto& s = dataset_->train()[0];
  const int l = s.input.size();
  EXPECT_EQ(static_cast<int>(InputGridCells(*ctx_, s).size()), l);
  EXPECT_EQ(InputTimeColumn(s).dim(0), l);
  EXPECT_EQ(InputGridCoords(*ctx_, s).dim(1), 2);
  Tensor env = EnvContext(s);
  EXPECT_EQ(env.dim(1), kEnvFeatureDim);
  // Exactly one hour bit set.
  float hour_sum = 0;
  for (int i = 0; i < 24; ++i) hour_sum += env.at(0, i);
  EXPECT_FLOAT_EQ(hour_sum, 1.0f);
}

TEST_F(CoreFixture, TimeColumnIsMonotoneInUnitRange) {
  const auto& s = dataset_->train()[1];
  Tensor t = InputTimeColumn(s);
  for (int i = 0; i < t.dim(0); ++i) {
    EXPECT_GE(t.at(i, 0), 0.0f);
    EXPECT_LE(t.at(i, 0), 1.0f);
    if (i > 0) {
      EXPECT_GT(t.at(i, 0), t.at(i - 1, 0));
    }
  }
}

TEST_F(CoreFixture, GridGnnShapeAndGradientFlow) {
  SeedGlobalRng(31);
  GridGnnConfig cfg;
  cfg.dim = 16;
  cfg.gnn_layers = 1;
  cfg.heads = 2;
  GridGnn gnn(cfg, ctx_->rn, ctx_->grid);
  Tensor x = gnn.Forward();
  EXPECT_EQ(x.dim(0), ctx_->rn->num_segments());
  EXPECT_EQ(x.dim(1), 16);
  MeanAll(Square(x)).Backward();
  // Gradients must reach both embedding tables through GRU + GAT.
  bool grid_grad = false;
  bool seg_grad = false;
  for (StateEntry e : gnn.StateDict()) {
    double norm = 0;
    for (float g : e.tensor.grad()) norm += std::abs(g);
    if (e.name.find("grid_emb") != std::string::npos) grid_grad |= norm > 0;
    if (e.name.find("seg_emb") != std::string::npos) seg_grad |= norm > 0;
  }
  EXPECT_TRUE(grid_grad);
  EXPECT_TRUE(seg_grad);
}

TEST_F(CoreFixture, GridGnnVariantsProduceSameShape) {
  SeedGlobalRng(32);
  for (RoadEncoderKind kind :
       {RoadEncoderKind::kGridGnn, RoadEncoderKind::kGat, RoadEncoderKind::kGcn,
        RoadEncoderKind::kGin}) {
    GridGnnConfig cfg;
    cfg.dim = 8;
    cfg.gnn_layers = 1;
    cfg.heads = 2;
    cfg.kind = kind;
    GridGnn gnn(cfg, ctx_->rn, ctx_->grid);
    Tensor x = gnn.Forward();
    EXPECT_EQ(x.dim(0), ctx_->rn->num_segments());
    EXPECT_EQ(x.dim(1), 8);
  }
}

// One sub-graph: its node count and (src, dst) edges.
struct SubGraph {
  int n;
  std::vector<std::pair<int, int>> edges;
};

std::vector<Tensor> RandomZ(const std::vector<SubGraph>& graphs, int dim) {
  std::vector<Tensor> z;
  for (const auto& g : graphs) z.push_back(Tensor::Randn({g.n, dim}, 1.0f));
  return z;
}

CsrGraph BatchGraph(const std::vector<const SubGraph*>& graphs) {
  CsrGraphBuilder builder;
  for (const SubGraph* g : graphs) builder.Add(g->n, g->edges);
  return builder.Build();
}

CsrGraph BatchGraph(const std::vector<SubGraph>& graphs) {
  std::vector<const SubGraph*> ptrs;
  for (const auto& g : graphs) ptrs.push_back(&g);
  return BatchGraph(ptrs);
}

TEST(GrlTest, PreservesShapesAcrossVariants) {
  SeedGlobalRng(33);
  const std::vector<SubGraph> graphs = {
      {3, {{0, 1}, {1, 2}}}, {2, {{0, 1}}}, {4, {{0, 1}, {2, 3}, {1, 2}}}};
  const CsrGraph bg = BatchGraph(graphs);

  for (int variant = 0; variant < 4; ++variant) {
    GrlConfig cfg;
    cfg.dim = 8;
    cfg.heads = 2;
    cfg.use_gated_fusion = variant != 1;
    cfg.use_graph_norm = variant != 2;
    cfg.use_gat = variant != 3;
    GraphRefinementLayer grl(cfg);
    Tensor tr = Tensor::Randn({3, 8}, 1.0f);
    Tensor out = grl.ForwardBatch(tr, ConcatRows(RandomZ(graphs, 8)), bg, {3});
    EXPECT_EQ(out.dim(0), 3 + 2 + 4) << "variant " << variant;
    EXPECT_EQ(out.dim(1), 8);
  }
}

TEST(GrlTest, GradientsReachGatedFusionParams) {
  SeedGlobalRng(34);
  const std::vector<SubGraph> graphs = {{3, {{0, 1}}}, {2, {}}};
  GrlConfig cfg;
  cfg.dim = 8;
  cfg.heads = 2;
  GraphRefinementLayer grl(cfg);
  Tensor tr = Tensor::Randn({2, 8}, 1.0f);
  Tensor out = grl.ForwardBatch(tr, ConcatRows(RandomZ(graphs, 8)),
                                BatchGraph(graphs), {2});
  MeanAll(Square(out)).Backward();
  bool any = false;
  for (StateEntry e : grl.StateDict()) {
    if (e.name.rfind("wz", 0) == 0) {
      for (float g : e.tensor.grad()) any |= g != 0.0f;
    }
  }
  EXPECT_TRUE(any);
}

// Three ragged samples for the GRL/GpsFormer batch-invariance tests, with the
// degenerate sub-graph shapes the serving extractor produces: sample 0 has
// three timesteps (1-node, edge-less and chain sub-graphs), sample 1 two
// (denser 4-node graph + chain), sample 2 one (a 2-node edge).
struct RaggedGrlSamples {
  static constexpr int kDim = 8;
  std::vector<std::vector<SubGraph>> graphs;
  std::vector<Tensor> tr;  ///< Per sample (l_s, d): encoder rows / h0.
  std::vector<Tensor> z;   ///< Per sample (sum of its graph sizes, d).

  RaggedGrlSamples() {
    graphs.push_back({{1, {}}, {2, {}}, {3, {{0, 1}, {1, 2}}}});
    graphs.push_back({{4, {{0, 1}, {2, 3}, {1, 2}, {0, 3}}},
                      {3, {{2, 1}, {1, 0}}}});
    graphs.push_back({{2, {{0, 1}}}});
    for (const auto& gs : graphs) {
      tr.push_back(Tensor::Randn({static_cast<int>(gs.size()), kDim}, 1.0f));
      z.push_back(ConcatRows(RandomZ(gs, kDim)));
    }
  }

  int size() const { return static_cast<int>(graphs.size()); }

  /// The inputs of the samples in `order`, packed as one batch.
  struct Batch {
    Tensor tr;
    Tensor z;
    std::vector<int> lengths;
    CsrGraph graphs;
  };
  Batch Pack(const std::vector<int>& order) const {
    Batch b;
    std::vector<Tensor> tr_parts;
    std::vector<Tensor> z_parts;
    std::vector<const SubGraph*> flat;
    for (int s : order) {
      tr_parts.push_back(tr[s]);
      z_parts.push_back(z[s]);
      b.lengths.push_back(static_cast<int>(graphs[s].size()));
      for (const SubGraph& g : graphs[s]) flat.push_back(&g);
    }
    b.tr = ConcatRows(tr_parts);
    b.z = ConcatRows(z_parts);
    b.graphs = BatchGraph(flat);
    return b;
  }

  /// Row count of sample s's block in a flat node/timestep tensor.
  int Nodes(int s) const { return z[s].dim(0); }
};

// Every element of `got` rows [row, row + want.dim(0)) within
// tol * (1 + |want|) of `want`.
void ExpectRowsNear(const Tensor& got, int row, const Tensor& want, double tol,
                    const std::string& what) {
  for (int i = 0; i < want.dim(0); ++i) {
    for (int j = 0; j < want.dim(1); ++j) {
      EXPECT_NEAR(got.at(row + i, j), want.at(i, j),
                  tol * (1.0 + std::abs(want.at(i, j))))
          << what << " (" << i << "," << j << ")";
    }
  }
}

TEST(GrlTest, ForwardBatchIsBatchCompositionInvariant) {
  // Each sample alone (B=1) vs inside a ragged, permuted batch of three: the
  // fat fusion GEMMs, the one GAT pass over the batch graph and the per-sample
  // GraphNorm must leave every node feature unchanged, in training mode
  // (per-sample batch statistics) and eval mode (running statistics),
  // across all ablation variants.
  const std::vector<int> permuted = {2, 0, 1};
  for (bool train : {true, false}) {
    for (int variant = 0; variant < 4; ++variant) {
      SeedGlobalRng(60 + variant);
      RaggedGrlSamples samples;
      GrlConfig cfg;
      cfg.dim = RaggedGrlSamples::kDim;
      cfg.heads = 2;
      cfg.use_gated_fusion = variant != 1;
      cfg.use_graph_norm = variant != 2;
      cfg.use_gat = variant != 3;
      GraphRefinementLayer grl(cfg);
      grl.SetTraining(train);

      const RaggedGrlSamples::Batch b = samples.Pack(permuted);
      Tensor out = grl.ForwardBatch(b.tr, b.z, b.graphs, b.lengths);
      ASSERT_EQ(out.dim(0), b.graphs.num_nodes());
      int node = 0;
      for (int s : permuted) {
        const RaggedGrlSamples::Batch one = samples.Pack({s});
        Tensor alone = grl.ForwardBatch(one.tr, one.z, one.graphs, one.lengths);
        ExpectRowsNear(out, node, alone, 1e-6,
                       std::string(train ? "train" : "eval") + " variant " +
                           std::to_string(variant) + " sample " +
                           std::to_string(s));
        node += samples.Nodes(s);
      }
    }
  }
}

TEST(GpsFormerTest, ForwardBatchIsBatchCompositionInvariant) {
  // Full encoder: padded transformer half + batch-graph GAT half,
  // each sample alone vs inside a ragged, permuted batch, for both pooled
  // outputs (H^N) and final node features (Z^N).
  SeedGlobalRng(65);
  RaggedGrlSamples samples;
  GpsFormerConfig cfg;
  cfg.dim = RaggedGrlSamples::kDim;
  cfg.blocks = 2;
  cfg.heads = 2;
  cfg.ffn_dim = 16;
  cfg.grl.heads = 2;
  GpsFormer former(cfg);
  former.SetTraining(false);

  const std::vector<int> permuted = {1, 2, 0};
  const RaggedGrlSamples::Batch b = samples.Pack(permuted);
  GpsFormer::BatchOutput out =
      former.ForwardBatch(b.tr, b.lengths, b.z, b.graphs);
  ASSERT_EQ(out.h.dim(0), 3 + 2 + 1);  // sum of lengths
  ASSERT_EQ(out.z.dim(0), b.graphs.num_nodes());

  int row = 0;
  int node = 0;
  for (int s : permuted) {
    const RaggedGrlSamples::Batch one = samples.Pack({s});
    GpsFormer::BatchOutput alone =
        former.ForwardBatch(one.tr, one.lengths, one.z, one.graphs);
    ExpectRowsNear(out.h, row, alone.h, 1e-6, "H sample " + std::to_string(s));
    // Z tolerance is looser than H's: rounding accumulates across two blocks
    // on intermediate node features an order of magnitude larger than the
    // final value it lands on.
    ExpectRowsNear(out.z, node, alone.z, 4e-6, "Z sample " + std::to_string(s));
    row += one.lengths[0];
    node += samples.Nodes(s);
  }
}

TEST(GpsFormerTest, OutputShapesAndNoGrlPath) {
  SeedGlobalRng(35);
  const std::vector<SubGraph> graphs = {{3, {{0, 1}}}, {2, {}}};
  const CsrGraph bg = BatchGraph(graphs);
  for (bool use_grl : {true, false}) {
    GpsFormerConfig cfg;
    cfg.dim = 8;
    cfg.blocks = 2;
    cfg.heads = 2;
    cfg.ffn_dim = 16;
    cfg.grl.heads = 2;
    cfg.use_grl = use_grl;
    GpsFormer former(cfg);
    Tensor h0 = Tensor::Randn({2, 8}, 1.0f);
    auto out = former.ForwardBatch(h0, {2}, ConcatRows(RandomZ(graphs, 8)), bg);
    EXPECT_EQ(out.h.dim(0), 2);
    EXPECT_EQ(out.h.dim(1), 8);
    if (use_grl) {
      EXPECT_EQ(out.z.dim(0), 3 + 2);
    }
  }
}

TEST_F(CoreFixture, DecoderTrainLossIsFiniteAndImproves) {
  SeedGlobalRng(36);
  DecoderConfig dcfg;
  dcfg.dim = 16;
  Decoder dec(dcfg, ctx_);
  const auto& s = dataset_->train()[0];
  const int l = s.input.size();
  Tensor enc = Tensor::Randn({l, 16}, 0.5f);
  Tensor h = Tensor::Randn({1, 16}, 0.5f);

  auto params = dec.Parameters();
  Adam opt(params, 5e-3f);
  double first = 0;
  double last = 0;
  for (int it = 0; it < 15; ++it) {
    opt.ZeroGrad();
    Tensor loss = dec.TrainLossBatch({enc}, {h}, {&s}).front();
    if (it == 0) first = loss.item();
    last = loss.item();
    EXPECT_TRUE(std::isfinite(last));
    loss.Backward();
    opt.Step();
  }
  EXPECT_LT(last, first);
}

TEST_F(CoreFixture, DecoderRespectsConstraintMaskAtObservedSteps) {
  SeedGlobalRng(37);
  DecoderConfig dcfg;
  dcfg.dim = 16;
  Decoder dec(dcfg, ctx_);
  const auto& s = dataset_->train()[2];
  NoGradGuard guard;
  Tensor enc = Tensor::Randn({s.input.size(), 16}, 0.5f);
  Tensor h = Tensor::Randn({1, 16}, 0.5f);
  MatchedTrajectory rec = dec.DecodeBatch({enc}, {h}, {&s}).front();
  ASSERT_EQ(rec.size(), s.truth.size());
  // At observed timestamps even an untrained decoder must stay within the
  // constraint radius of the observation (mask pins the softmax).
  for (size_t i = 0; i < s.input_indices.size(); ++i) {
    const int j = s.input_indices[i];
    const auto proj =
        ctx_->rn->Project(s.input.points[i].pos, rec.points[j].seg_id);
    EXPECT_LE(proj.distance, dcfg.mask_radius + 1e-6)
        << "step " << j << " escaped the constraint mask";
  }
  // Timestamps follow the eps grid.
  for (int j = 1; j < rec.size(); ++j) {
    EXPECT_DOUBLE_EQ(rec.points[j].t - rec.points[j - 1].t, ctx_->eps_rho);
  }
}

TEST_F(CoreFixture, SpatialPriorRadiusTrimIsExact) {
  // The default prior radius is where the floored prior turns flat: beyond
  // sigma * sqrt(-floor) every segment gets exactly the floor, listed or not.
  const DecoderConfig defaults;
  EXPECT_EQ(defaults.spatial_prior_radius,
            defaults.spatial_prior_sigma *
                std::sqrt(-defaults.spatial_prior_floor));

  // A wider query must therefore give bit-identical decodes and losses, and a
  // narrower one must not (so the comparison below can see a difference).
  DecoderConfig dcfg;
  dcfg.dim = 16;
  DecoderConfig wide_cfg = dcfg;
  wide_cfg.spatial_prior_radius = 350.0;
  DecoderConfig narrow_cfg = dcfg;
  narrow_cfg.spatial_prior_radius = 150.0;
  SeedGlobalRng(38);
  Decoder trimmed(dcfg, ctx_);
  Decoder wide(wide_cfg, ctx_);
  Decoder narrow(narrow_cfg, ctx_);
  std::string err;
  ASSERT_TRUE(
      snapshot::ApplyStateDict(wide.StateDict(), trimmed.StateDict(), &err))
      << err;
  ASSERT_TRUE(
      snapshot::ApplyStateDict(narrow.StateDict(), trimmed.StateDict(), &err))
      << err;

  auto run = [&](const std::vector<TrajectorySample>& split, size_t n) {
    std::vector<const TrajectorySample*> ptrs;
    std::vector<Tensor> enc;
    std::vector<Tensor> hs;
    for (size_t i = 0; i < std::min(n, split.size()); ++i) {
      ptrs.push_back(&split[i]);
      enc.push_back(Tensor::Randn({split[i].input.size(), 16}, 0.5f));
      hs.push_back(Tensor::Randn({1, 16}, 0.5f));
    }
    return std::make_tuple(ptrs, enc, hs);
  };
  const auto [train, train_enc, train_hs] = run(dataset_->train(), 6);
  const auto [test, test_enc, test_hs] = run(dataset_->test(), 4);

  std::vector<Tensor> base = trimmed.TrainLossBatch(train_enc, train_hs, train);
  std::vector<Tensor> same = wide.TrainLossBatch(train_enc, train_hs, train);
  std::vector<Tensor> off = narrow.TrainLossBatch(train_enc, train_hs, train);
  bool narrow_differs = false;
  for (size_t i = 0; i < train.size(); ++i) {
    EXPECT_EQ(base[i].item(), same[i].item()) << "train sample " << i;
    narrow_differs |= base[i].item() != off[i].item();
  }
  EXPECT_TRUE(narrow_differs);

  NoGradGuard guard;
  std::vector<MatchedTrajectory> a = trimmed.DecodeBatch(test_enc, test_hs, test);
  std::vector<MatchedTrajectory> b = wide.DecodeBatch(test_enc, test_hs, test);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].size(), b[i].size());
    for (int j = 0; j < a[i].size(); ++j) {
      EXPECT_EQ(a[i].points[j].seg_id, b[i].points[j].seg_id)
          << "test " << i << " step " << j;
      EXPECT_EQ(a[i].points[j].ratio, b[i].points[j].ratio)
          << "test " << i << " step " << j;
    }
  }
}

TEST_F(CoreFixture, DecoderIdHeadBiasReachesListedAndFloorSegments) {
  // The id-head bias starts at zero, so tests on untrained decoders cannot
  // see whether the fused decode argmax adds it. Spike it instead.
  SeedGlobalRng(40);
  DecoderConfig dcfg;
  dcfg.dim = 16;
  Decoder dec(dcfg, ctx_);
  const auto& s = dataset_->test()[0];
  NoGradGuard guard;
  Tensor enc = Tensor::Randn({s.input.size(), 16}, 0.5f);
  Tensor h = Tensor::Randn({1, 16}, 0.5f);
  Tensor bias = dec.StateDict().Find("id_head.bias")->tensor;
  ASSERT_EQ(bias.size(), ctx_->rn->num_segments());
  std::vector<char> observed(s.truth.size(), 0);
  for (int j : s.input_indices) observed[j] = 1;
  const int first_obs = s.input_indices.front();

  // An observed step decodes to a segment its hard mask lists.
  const int listed =
      dec.DecodeBatch({enc}, {h}, {&s}).front().points[first_obs].seg_id;
  // The segment farthest from every observation: unlisted at most steps.
  int far = 0;
  double far_d = -1.0;
  for (int v = 0; v < ctx_->rn->num_segments(); ++v) {
    double d = std::numeric_limits<double>::max();
    for (const auto& p : s.input.points) {
      d = std::min(d, ctx_->rn->Project(p.pos, v).distance);
    }
    if (d > far_d) {
      far = v;
      far_d = d;
    }
  }
  ASSERT_NE(far, listed);

  // +50 on a floor segment outweighs any prior weight: every unobserved
  // step picks it.
  bias.data()[far] = 50.0f;
  MatchedTrajectory up = dec.DecodeBatch({enc}, {h}, {&s}).front();
  for (int j = 0; j < up.size(); ++j) {
    if (!observed[j]) {
      EXPECT_EQ(up.points[j].seg_id, far) << "step " << j;
    }
  }
  // -50 on the listed segment: no step may pick it any more.
  bias.data()[far] = 0.0f;
  bias.data()[listed] = -50.0f;
  MatchedTrajectory down = dec.DecodeBatch({enc}, {h}, {&s}).front();
  for (int j = 0; j < down.size(); ++j) {
    EXPECT_NE(down.points[j].seg_id, listed) << "step " << j;
  }
}

TEST_F(CoreFixture, DecoderRejectsMasksItCannotRepresent) {
  // -(120/15)^2 = -64 sits below the forbidden logit (-60): an allowed
  // segment would score under a forbidden one.
  DecoderConfig too_wide;
  too_wide.mask_radius = 120.0;
  EXPECT_DEATH(Decoder(too_wide, ctx_), "forbidden logit");
  DecoderConfig no_sigma;
  no_sigma.spatial_prior_sigma = 0.0f;
  EXPECT_DEATH(Decoder(no_sigma, ctx_), "spatial_prior_sigma");
  DecoderConfig flat_floor;
  flat_floor.spatial_prior_floor = 0.0f;
  EXPECT_DEATH(Decoder(flat_floor, ctx_), "spatial_prior_floor");
}

TEST_F(CoreFixture, DecoderChecksTheEdgeWeightAsStored) {
  // Just inside the forbidden logit in double, but the float the mask
  // stores rounds to it: an allowed segment would tie a forbidden one.
  DecoderConfig edge;
  edge.mask_radius = 15.0 * std::sqrt(60.0 - 1e-6);
  const double z = edge.mask_radius / edge.beta;
  ASSERT_GT(-z * z, -60.0);
  ASSERT_EQ(static_cast<float>(-z * z), -60.0f);
  EXPECT_DEATH(Decoder(edge, ctx_), "forbidden logit");
}

// ----- MaskedArgmax ---------------------------------------------------------

// The scan MaskedArgmax must agree with: materialise the dense logits, then
// a strict `>` from index 0.
int ScalarMaskedArgmax(const std::vector<float>& y, const std::vector<float>& b,
                       float floor, const std::vector<int>& ids,
                       const std::vector<float>& vals) {
  const int n = static_cast<int>(y.size());
  std::vector<float> m(n, floor);
  for (size_t k = 0; k < ids.size(); ++k) m[ids[k]] = vals[k];
  std::vector<float> x(n);
  for (int v = 0; v < n; ++v) x[v] = (y[v] + (b.empty() ? 0.0f : b[v])) + m[v];
  int best = 0;
  for (int v = 1; v < n; ++v) {
    if (x[v] > x[best]) best = v;
  }
  return best;
}

struct ArgmaxCase {
  std::string what;
  std::vector<float> y;
  std::vector<float> b;  ///< Empty: no bias (the dense-row call).
  float floor = 0.0f;
  std::vector<int> ids;
  std::vector<float> vals;
};

void ExpectMatchesScalar(const ArgmaxCase& c) {
  const int got =
      MaskedArgmax(c.y.data(), c.b.empty() ? nullptr : c.b.data(), c.floor,
                   c.ids.data(), c.vals.data(), static_cast<int>(c.ids.size()),
                   static_cast<int>(c.y.size()));
  EXPECT_EQ(got, ScalarMaskedArgmax(c.y, c.b, c.floor, c.ids, c.vals))
      << c.what << ", n = " << c.y.size() << ", nnz = " << c.ids.size();
}

TEST(MaskedArgmaxTest, MatchesTheScalarScan) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
  Rng rng(29);
  for (const int n : {1, 7, 15, 16, 17, 270, 848}) {
    const auto values = [&](auto draw) {
      std::vector<float> v(n);
      for (float& x : v) x = draw();
      return v;
    };
    const auto gauss = [&] { return static_cast<float>(rng.Gaussian(0, 1)); };
    // A few distinct values: maxima repeat across lanes and the tail.
    const auto coarse = [&] {
      return static_cast<float>(rng.UniformInt(0, 2));
    };
    const auto signed_zero = [&] { return rng.Bernoulli(0.5) ? 0.0f : -0.0f; };
    // Listed entries: none, every fourth id, and the two ends alone.
    std::vector<std::vector<int>> id_sets = {{}, {0}, {n - 1}};
    id_sets.emplace_back();
    for (int v = 0; v < n; v += 4) id_sets.back().push_back(v);
    if (n > 1) id_sets.push_back({0, n - 1});
    for (const std::vector<int>& ids : id_sets) {
      const float floor = -16.0f;
      std::vector<float> above;  // listed values sit strictly above the floor
      for (size_t k = 0; k < ids.size(); ++k) {
        above.push_back(floor + static_cast<float>(rng.Uniform(0.01, 16.0)));
      }
      const std::string tag = " ids " + std::to_string(ids.size());
      std::vector<ArgmaxCase> cases = {
          {"gaussian" + tag, values(gauss), values(gauss), floor, ids, above},
          {"ties" + tag, values(coarse), std::vector<float>(n, 0.0f), floor,
           ids, above},
          {"ties at the floor" + tag, values(coarse),
           std::vector<float>(n, 0.0f), floor, ids,
           std::vector<float>(ids.size(), floor + 1.0f)},
          {"signed zeros" + tag, values(signed_zero), values(signed_zero),
           -0.0f, ids, std::vector<float>(ids.size(), 0.0f)},
          {"all -inf" + tag, std::vector<float>(n, -kInf),
           std::vector<float>(n, 0.0f), floor, ids, above},
          {"dense gaussian", values(gauss), {}, 0.0f, {}, {}},
          {"dense ties", values(coarse), {}, 0.0f, {}, {}},
          {"dense signed zeros", values(signed_zero), {}, 0.0f, {}, {}},
          {"dense all -inf", std::vector<float>(n, -kInf), {}, 0.0f, {}, {}},
      };
      // NaN at index 0, in the middle, at the maximum and in the bias;
      // infinities of both signs.
      ArgmaxCase c = cases[0];
      c.what = "nan at 0" + tag;
      c.y[0] = kNan;
      cases.push_back(c);
      c = cases[0];
      c.what = "nan at max" + tag;
      const int top = ScalarMaskedArgmax(c.y, c.b, c.floor, c.ids, c.vals);
      c.y[top] = kNan;
      c.y[n / 2] = kNan;
      cases.push_back(c);
      c = cases[0];
      c.what = "nan bias" + tag;
      c.b[n - 1] = kNan;
      c.b[n / 3] = kNan;
      cases.push_back(c);
      c = cases[1];
      c.what = "infinities" + tag;
      c.y[n / 2] = kInf;
      c.y[n - 1] = kInf;
      c.y[n / 3] = -kInf;
      cases.push_back(c);
      c = cases[5];
      c.what = "dense nan at 0";
      c.y[0] = kNan;
      cases.push_back(c);
      c = cases[5];
      c.what = "dense infinities and nan";
      c.y[n - 1] = kInf;
      c.y[n / 2] = kInf;
      c.y[n / 4] = kNan;
      cases.push_back(c);
      for (const ArgmaxCase& each : cases) ExpectMatchesScalar(each);
    }
  }
}

TEST(MaskedArgmaxTest, ListedEntryWinsOrLosesByItsMask) {
  // A listed entry scores vals[k], not the floor: it can beat a higher raw
  // score elsewhere, and a later equal score never displaces an earlier one.
  std::vector<float> y(40, 0.0f);
  y[3] = 5.0f;
  const std::vector<float> b(40, 0.0f);
  const std::vector<int> ids = {10, 30};
  const std::vector<float> vals = {-1.0f, -1.0f};
  y[10] = 30.0f;  // 30 - 1 beats 5 - 20
  EXPECT_EQ(MaskedArgmax(y.data(), b.data(), -20.0f, ids.data(), vals.data(),
                         2, 40),
            10);
  y[30] = 30.0f;  // ties 29 at index 10: the first stays
  EXPECT_EQ(MaskedArgmax(y.data(), b.data(), -20.0f, ids.data(), vals.data(),
                         2, 40),
            10);
  y[10] = y[30] = 0.0f;  // unlisted 5 - 20 = -15 loses to listed 0 - 1
  EXPECT_EQ(MaskedArgmax(y.data(), b.data(), -20.0f, ids.data(), vals.data(),
                         2, 40),
            10);
}

TEST_F(CoreFixture, RnTrajRecLossIsFiniteAndBackpropagates) {
  SeedGlobalRng(38);
  RnTrajRec model(SmallConfig(), *ctx_);
  model.BeginBatch();
  Tensor loss = model.TrainLoss(dataset_->train()[0]);
  EXPECT_TRUE(std::isfinite(loss.item()));
  loss.Backward();
  auto params = model.Parameters();
  const double norm = ClipGradNorm(params, 1e9);
  EXPECT_GT(norm, 0.0);
  EXPECT_TRUE(std::isfinite(norm));
}

TEST_F(CoreFixture, RnTrajRecTrainingReducesLoss) {
  SeedGlobalRng(39);
  RnTrajRec model(SmallConfig(), *ctx_);
  TrainConfig tcfg;
  tcfg.epochs = 3;
  tcfg.batch_size = 4;
  tcfg.lr = 2e-3f;
  TrainStats stats = TrainModel(model, dataset_->train(), tcfg);
  ASSERT_EQ(stats.epoch_losses.size(), 3u);
  EXPECT_LT(stats.epoch_losses.back(), stats.epoch_losses.front());
}

TEST_F(CoreFixture, RnTrajRecRecoverIsWellFormed) {
  SeedGlobalRng(40);
  RnTrajRec model(SmallConfig(), *ctx_);
  const auto& s = dataset_->test()[0];
  model.BeginInference();
  model.SetTrainingMode(false);
  MatchedTrajectory rec = model.Recover(s);
  ASSERT_EQ(rec.size(), s.truth.size());
  for (const auto& p : rec.points) {
    EXPECT_GE(p.seg_id, 0);
    EXPECT_LT(p.seg_id, ctx_->rn->num_segments());
    EXPECT_GE(p.ratio, 0.0);
    EXPECT_LT(p.ratio, 1.0);
  }
  EXPECT_DOUBLE_EQ(rec.points.front().t, s.truth.points.front().t);
}

TEST_F(CoreFixture, RnTrajRecAblationVariantsRun) {
  SeedGlobalRng(41);
  for (int variant = 0; variant < 5; ++variant) {
    RnTrajRecConfig cfg = SmallConfig();
    cfg.gpsformer.use_grl = variant != 0;
    cfg.gpsformer.grl.use_gated_fusion = variant != 1;
    cfg.gpsformer.grl.use_graph_norm = variant != 2;
    cfg.gpsformer.grl.use_gat = variant != 3;
    cfg.use_gcl = variant != 4;
    RnTrajRec model(cfg, *ctx_);
    model.BeginBatch();
    Tensor loss = model.TrainLoss(dataset_->train()[1]);
    EXPECT_TRUE(std::isfinite(loss.item())) << "variant " << variant;
  }
}

TEST_F(CoreFixture, ConcurrentRecoverMatchesSerial) {
  SeedGlobalRng(44);
  RnTrajRec model(SmallConfig(), *ctx_);
  ASSERT_TRUE(model.SupportsConcurrentRecover());
  model.SetTrainingMode(false);
  model.BeginInference();
  const auto& samples = dataset_->test();
  std::vector<MatchedTrajectory> serial;
  for (const auto& s : samples) serial.push_back(model.Recover(s));

  std::vector<MatchedTrajectory> parallel(samples.size());
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = t; i < samples.size(); i += 2) {
        parallel[i] = model.Recover(samples[i]);
      }
    });
  }
  for (auto& th : threads) th.join();

  for (size_t i = 0; i < samples.size(); ++i) {
    ASSERT_EQ(parallel[i].size(), serial[i].size());
    for (int j = 0; j < serial[i].size(); ++j) {
      EXPECT_EQ(parallel[i].points[j].seg_id, serial[i].points[j].seg_id);
      EXPECT_DOUBLE_EQ(parallel[i].points[j].ratio, serial[i].points[j].ratio);
    }
  }
}

TEST_F(CoreFixture, EphemeralSampleMatchesDatasetSample) {
  // Serving builds uid < 0 samples that bypass the memo caches; recovery
  // from the same observations must be identical.
  SeedGlobalRng(45);
  RnTrajRec model(SmallConfig(), *ctx_);
  model.SetTrainingMode(false);
  model.BeginInference();
  const auto& s = dataset_->test()[2];
  MatchedTrajectory cached = model.Recover(s);

  std::vector<double> times;
  for (const auto& p : s.truth.points) times.push_back(p.t);
  TrajectorySample eph = MakeEphemeralSample(s.input, s.input_indices, times);
  ASSERT_LT(eph.uid, 0);
  MatchedTrajectory ephemeral = model.Recover(eph);
  ASSERT_EQ(ephemeral.size(), cached.size());
  for (int j = 0; j < cached.size(); ++j) {
    EXPECT_EQ(ephemeral.points[j].seg_id, cached.points[j].seg_id);
    EXPECT_DOUBLE_EQ(ephemeral.points[j].ratio, cached.points[j].ratio);
  }
}

// Ephemeral copy of `s` truncated to its first `keep` input points (a legal
// request: indices stay ascending within the target grid), used to build
// ragged-length batches.
TrajectorySample TruncatedEphemeral(const TrajectorySample& s, int keep) {
  RawTrajectory input;
  input.points.assign(s.input.points.begin(), s.input.points.begin() + keep);
  std::vector<int> indices(s.input_indices.begin(),
                           s.input_indices.begin() + keep);
  std::vector<double> times;
  for (const auto& p : s.truth.points) times.push_back(p.t);
  return MakeEphemeralSample(std::move(input), std::move(indices), times);
}

/// Ephemeral variant with the TARGET truncated to its first `keep` steps
/// (real seg ids and ratios kept, so it trains too); input points whose
/// target position falls beyond the cut are dropped. Exercises the batched
/// decoder's early-finish lane compaction: such lanes leave the step GEMMs
/// before the longer lanes do.
TrajectorySample TruncatedTargetEphemeral(const TrajectorySample& s, int keep) {
  TrajectorySample out;
  out.uid = -1;
  out.truth.points.assign(s.truth.points.begin(),
                          s.truth.points.begin() + keep);
  for (size_t i = 0; i < s.input_indices.size(); ++i) {
    if (s.input_indices[i] < keep) {
      out.input.points.push_back(s.input.points[i]);
      out.input_indices.push_back(s.input_indices[i]);
    }
  }
  return out;
}

void ExpectSameRecovery(const MatchedTrajectory& got,
                        const MatchedTrajectory& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (int j = 0; j < want.size(); ++j) {
    EXPECT_EQ(got.points[j].seg_id, want.points[j].seg_id)
        << what << " step " << j;
    // Within float rounding: the blocked GEMM's row-peel kernels may
    // contract FMAs differently at different batch heights, so a sample's
    // answer inside a batch matches its batch-of-one answer to ~1e-6, not
    // bit-exactly.
    EXPECT_NEAR(got.points[j].ratio, want.points[j].ratio, 1e-5)
        << what << " step " << j;
  }
}

TEST_F(CoreFixture, PointFarFromEveryRoadKeepsAnswersFinite) {
  // One input point 1 km beyond the network: every segment weight
  // exp(-(d/gamma)^2) underflows to 0 there, so sub-graph pooling must not
  // divide by their sum. The answer stays well formed and a batch neighbour
  // is untouched.
  SeedGlobalRng(47);
  RnTrajRec model(SmallConfig(), *ctx_);
  const BBox& b = ctx_->rn->bounds();
  const Vec2 far_point{b.max_x + 1000.0, b.max_y + 1000.0};
  ASSERT_GT(SegmentsWithinRadius(*ctx_->rn, *ctx_->rtree, far_point, 100.0)[0]
                .projection.distance,
            1000.0);
  TrajectorySample far = dataset_->test()[0];
  far.uid = -1;  // bypass the per-sample memo of the unaltered sample
  far.input.points[2].pos = far_point;
  const TrajectorySample& neighbour = dataset_->test()[1];

  model.SetTrainingMode(false);
  model.BeginInference();
  const MatchedTrajectory alone = model.Recover(neighbour);
  const std::vector<MatchedTrajectory> both =
      model.RecoverBatch({&far, &neighbour});
  ASSERT_EQ(both[0].size(), far.truth.size());
  for (const auto& p : both[0].points) {
    EXPECT_TRUE(std::isfinite(p.ratio));
    EXPECT_GE(p.seg_id, 0);
    EXPECT_LT(p.seg_id, ctx_->rn->num_segments());
  }
  // The far step's radius query widens until it lists a road; the mask
  // must rank those roads above every segment it does not list.
  const std::vector<NearbySegment> listed =
      SegmentsWithinRadius(*ctx_->rn, *ctx_->rtree, far_point,
                           SmallConfig().decoder.mask_radius);
  const int far_seg = both[0].points[far.input_indices[2]].seg_id;
  EXPECT_TRUE(std::any_of(
      listed.begin(), listed.end(),
      [far_seg](const NearbySegment& ns) { return ns.seg_id == far_seg; }))
      << "far step decoded to unlisted segment " << far_seg;
  ExpectSameRecovery(both[1], alone, "batch neighbour");

  model.SetTrainingMode(true);
  model.BeginBatch();
  EXPECT_TRUE(std::isfinite(model.TrainLoss(far).item()));
}

TEST_F(CoreFixture, RecoverIsBatchCompositionInvariant) {
  // Each sample alone (B=1) vs inside a ragged, permuted batch: ragged input
  // lengths (truncated ephemeral variants), a duplicated sample, and dataset
  // samples mixed with ephemeral ones.
  SeedGlobalRng(46);
  RnTrajRec model(SmallConfig(), *ctx_);
  model.SetTrainingMode(false);
  model.BeginInference();

  const auto& test = dataset_->test();
  const int full_len = test[0].input.size();
  ASSERT_GE(full_len, 3);
  std::vector<TrajectorySample> ragged;
  ragged.push_back(test[3]);
  ragged.push_back(TruncatedEphemeral(test[1], full_len - 1));
  ragged.push_back(test[0]);
  ragged.push_back(TruncatedEphemeral(test[2], 2));
  ragged.push_back(test[0]);

  std::vector<const TrajectorySample*> ptrs;
  for (const auto& s : ragged) ptrs.push_back(&s);
  std::vector<MatchedTrajectory> batched = model.RecoverBatch(ptrs);
  ASSERT_EQ(batched.size(), ragged.size());
  for (size_t i = 0; i < ragged.size(); ++i) {
    ExpectSameRecovery(batched[i], model.RecoverBatch({&ragged[i]}).front(),
                       "ragged");
  }
}

TEST_F(CoreFixture, TrainLossIsBatchCompositionInvariant) {
  SeedGlobalRng(47);
  RnTrajRec model(SmallConfig(), *ctx_);
  model.SetTrainingMode(true);
  model.BeginBatch();

  // The training split in a permuted order, plus a ragged ephemeral lane.
  const auto& train = dataset_->train();
  const TrajectorySample truncated =
      TruncatedTargetEphemeral(train[1], train[1].truth.size() / 2);
  std::vector<const TrajectorySample*> ptrs;
  for (size_t i = 0; i < train.size(); ++i) {
    ptrs.push_back(&train[(i * 3) % train.size()]);
  }
  ptrs.push_back(&truncated);
  std::vector<Tensor> batched = model.TrainLossBatch(ptrs);
  ASSERT_EQ(batched.size(), ptrs.size());
  for (size_t i = 0; i < ptrs.size(); ++i) {
    const float alone = model.TrainLoss(*ptrs[i]).item();
    EXPECT_TRUE(std::isfinite(batched[i].item()));
    EXPECT_NEAR(batched[i].item(), alone, 1e-5 * (1.0 + std::abs(alone)))
        << "lane " << i;
  }

  // The batched losses backpropagate through the padded path.
  Tensor total;
  for (const Tensor& l : batched) {
    total = total.defined() ? Add(total, l) : l;
  }
  total.Backward();
  bool any_grad = false;
  for (auto& p : model.Parameters()) {
    for (float g : p.grad()) {
      if (g != 0.0f) {
        any_grad = true;
        break;
      }
    }
    if (any_grad) break;
  }
  EXPECT_TRUE(any_grad);
}

TEST_F(CoreFixture, BatchedDecoderEarlyFinishLaneCompaction) {
  // Ragged TARGET lengths: lanes finish at different timesteps, so the
  // batched decoder's active set shrinks mid-decode (batch -> ... -> 1).
  // Every lane — including the ones that drop out of the GEMMs first — must
  // match its batch-of-one decode/loss.
  SeedGlobalRng(49);
  RnTrajRec model(SmallConfig(), *ctx_);
  const auto& test = dataset_->test();
  const int full = test[0].truth.size();
  ASSERT_GE(full, 6);
  std::vector<TrajectorySample> ragged;
  ragged.push_back(test[0]);  // full-length lane, survives to the last step
  ragged.push_back(TruncatedTargetEphemeral(test[1], full / 2));
  ragged.push_back(TruncatedTargetEphemeral(test[2], 2));
  ragged.push_back(TruncatedTargetEphemeral(test[3], full - 1));
  std::vector<const TrajectorySample*> ptrs;
  for (const auto& s : ragged) ptrs.push_back(&s);

  model.SetTrainingMode(false);
  model.BeginInference();
  std::vector<MatchedTrajectory> batched = model.RecoverBatch(ptrs);
  ASSERT_EQ(batched.size(), ragged.size());
  for (size_t i = 0; i < ragged.size(); ++i) {
    EXPECT_EQ(batched[i].size(), ragged[i].truth.size()) << "lane " << i;
    ExpectSameRecovery(batched[i], model.Recover(ragged[i]), "early-finish");
  }

  // The training path compacts the same way; losses still match B=1.
  model.SetTrainingMode(true);
  model.BeginBatch();
  std::vector<Tensor> losses = model.TrainLossBatch(ptrs);
  ASSERT_EQ(losses.size(), ragged.size());
  for (size_t i = 0; i < ragged.size(); ++i) {
    const float reference = model.TrainLoss(ragged[i]).item();
    EXPECT_TRUE(std::isfinite(losses[i].item()));
    EXPECT_NEAR(losses[i].item(), reference, 1e-6 * (1.0 + std::abs(reference)))
        << "lane " << i;
  }
}

TEST_F(CoreFixture, BatchedDecoderFlipsIndependentOfLaneOrder) {
  // Scheduled-sampling coin flips are keyed by (sampling epoch, sample uid),
  // never by lane index: permuting a batch must permute its losses and
  // nothing else, and every ordering must match the batch-of-one TrainLoss
  // stream (which a lane-order-dependent flip could not).
  SeedGlobalRng(50);
  RnTrajRec model(SmallConfig(), *ctx_);
  model.SetTrainingMode(true);
  model.SetTeacherForcing(0.5);  // actually stochastic: both outcomes occur
  model.BeginBatch();
  const auto& train = dataset_->train();
  const size_t n = std::min<size_t>(6, train.size());
  std::vector<const TrajectorySample*> forward;
  std::vector<const TrajectorySample*> reversed;
  for (size_t i = 0; i < n; ++i) forward.push_back(&train[i]);
  for (size_t i = n; i-- > 0;) reversed.push_back(&train[i]);

  std::vector<Tensor> a = model.TrainLossBatch(forward);
  std::vector<Tensor> b = model.TrainLossBatch(reversed);
  ASSERT_EQ(a.size(), n);
  ASSERT_EQ(b.size(), n);
  for (size_t i = 0; i < n; ++i) {
    const float reference = model.TrainLoss(train[i]).item();
    EXPECT_NEAR(a[i].item(), reference, 1e-5 * (1.0 + std::abs(reference)))
        << "forward order, sample " << i;
    EXPECT_NEAR(b[n - 1 - i].item(), reference,
                1e-5 * (1.0 + std::abs(reference)))
        << "reversed order, sample " << i;
  }
}

TEST_F(CoreFixture, TrainerLossIsMeanOfBatchOfOneLosses) {
  // One epoch as one mini-batch at lr 0: the trainer's reported loss is the
  // mean of its batched per-sample losses, which must equal the mean of the
  // same samples' batch-of-one losses under the same schedule state.
  TrainConfig cfg;
  cfg.epochs = 1;
  cfg.batch_size = static_cast<int>(dataset_->train().size());
  cfg.lr = 0.0f;
  SeedGlobalRng(48);
  RnTrajRec trained(SmallConfig(), *ctx_);
  TrainStats stats = TrainModel(trained, dataset_->train(), cfg);
  ASSERT_EQ(stats.epoch_losses.size(), 1u);

  SeedGlobalRng(48);
  RnTrajRec reference(SmallConfig(), *ctx_);
  reference.SetTrainingMode(true);
  reference.SetTeacherForcing(1.0 - 0.7);  // the single-epoch schedule
  reference.BeginBatch();
  double sum = 0.0;
  for (const auto& s : dataset_->train()) sum += reference.TrainLoss(s).item();
  const double mean = sum / dataset_->train().size();
  EXPECT_NEAR(stats.epoch_losses[0], mean, 1e-5 * (1.0 + std::abs(mean)));
}

// Golden values: the recovery and training losses of a fixed tiny model,
// recorded from the original unbatched, unfused forward. The one forward
// must keep every segment id and stay within 1e-5 on every float.
TEST_F(CoreFixture, ForwardMatchesRecordedGoldenValues) {
  SeedGlobalRng(2023);
  RnTrajRec model(SmallConfig(), *ctx_);
  model.SetTrainingMode(true);
  model.BeginBatch();
  const float kLosses[] = {4.7315917f, 6.21522522f, 6.13049221f};
  for (int i = 0; i < 3; ++i) {
    EXPECT_NEAR(model.TrainLoss(dataset_->train()[i]).item(), kLosses[i],
                1e-5)
        << "train sample " << i;
  }

  model.SetTrainingMode(false);
  model.BeginInference();
  const std::vector<std::vector<int>> kIds = {
      {30, 29, 29, 28, 27, 116, 25, 25, 24, 106, 106, 95,
       95, 95, 93, 93,  93,  93, 93, 93, 93, 93,  93,  93},
      {136, 127, 127, 155, 155, 118, 155, 34, 34,  106, 155, 118,
       155, 127, 157, 135, 43,  147, 147, 147, 147, 147, 147, 147}};
  const std::vector<std::vector<double>> kRatios = {
      {0.5481323,   0.540060759, 0.536242425, 0.74454993,  0.572454453,
       0.67064178,  0.645034432, 0.660037398, 0.626026094, 0.639146447,
       0.634950101, 0.662495375, 0.664716959, 0.664780915, 0.677345574,
       0.674331367, 0.673223972, 0.672860324, 0.672491729, 0.672002971,
       0.671415985, 0.670764446, 0.670072317, 0.6693542},
      {0.630815089, 0.657203138, 0.638499916, 0.842422664, 0.835738897,
       0.621704221, 0.853280187, 0.680186093, 0.702652454, 0.693671465,
       0.866697192, 0.649518788, 0.862996221, 0.654606044, 0.829618871,
       0.669532657, 0.806912422, 0.693905115, 0.696862042, 0.69710511,
       0.69695437,  0.696775436, 0.696565688, 0.696280658}};
  for (int i = 0; i < 2; ++i) {
    MatchedTrajectory rec = model.Recover(dataset_->test()[i]);
    ASSERT_EQ(rec.size(), static_cast<int>(kIds[i].size())) << "test " << i;
    for (int j = 0; j < rec.size(); ++j) {
      EXPECT_EQ(rec.points[j].seg_id, kIds[i][j])
          << "test " << i << " step " << j;
      EXPECT_NEAR(rec.points[j].ratio, kRatios[i][j], 1e-5)
          << "test " << i << " step " << j;
    }
  }
}

TEST_F(CoreFixture, ConfigSyncIsAppliedByConstructorAndIdempotent) {
  // Forgetting Sync() used to silently build mismatched sub-module dims;
  // the constructor now applies it itself.
  RnTrajRecConfig unsynced;
  unsynced.dim = 16;
  unsynced.delta = 250.0;
  unsynced.max_subgraph_nodes = 16;
  unsynced.gridgnn.gnn_layers = 1;
  unsynced.gridgnn.heads = 2;
  unsynced.gpsformer.blocks = 1;
  unsynced.gpsformer.heads = 2;
  unsynced.gpsformer.grl.heads = 2;
  ASSERT_NE(unsynced.gridgnn.dim, unsynced.dim);  // would mismatch if unsynced

  RnTrajRecConfig synced = unsynced;
  synced.Sync();
  RnTrajRecConfig twice = synced;
  twice.Sync();  // idempotent
  EXPECT_EQ(twice.gpsformer.dim, synced.gpsformer.dim);
  EXPECT_EQ(twice.gpsformer.ffn_dim, synced.gpsformer.ffn_dim);
  EXPECT_EQ(twice.decoder.dim, synced.decoder.dim);

  RnTrajRec from_unsynced(unsynced, *ctx_);
  RnTrajRec from_synced(synced, *ctx_);
  EXPECT_EQ(from_unsynced.config().gridgnn.dim, 16);
  EXPECT_EQ(from_unsynced.config().gpsformer.dim, 16);
  EXPECT_EQ(from_unsynced.config().gpsformer.ffn_dim, 32);
  EXPECT_EQ(from_unsynced.config().decoder.dim, 16);
  EXPECT_EQ(from_unsynced.ParameterCount(), from_synced.ParameterCount());

  // And the resulting model actually runs end to end.
  from_unsynced.SetTrainingMode(false);
  from_unsynced.BeginInference();
  MatchedTrajectory out = from_unsynced.Recover(dataset_->test()[0]);
  EXPECT_EQ(out.size(), dataset_->test()[0].truth.size());
}

TEST_F(CoreFixture, SubGraphCacheIsStableAcrossCalls) {
  SeedGlobalRng(42);
  RnTrajRec model(SmallConfig(), *ctx_);
  const auto& s = dataset_->train()[3];
  model.BeginInference();
  model.SetTrainingMode(false);
  MatchedTrajectory a = model.Recover(s);
  MatchedTrajectory b = model.Recover(s);
  ASSERT_EQ(a.size(), b.size());
  for (int i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.points[i].seg_id, b.points[i].seg_id);
    EXPECT_DOUBLE_EQ(a.points[i].ratio, b.points[i].ratio);
  }
}

TEST_F(CoreFixture, ParameterCountGrowsWithBlocks) {
  RnTrajRecConfig one = SmallConfig();
  one.gpsformer.blocks = 1;
  RnTrajRecConfig two = SmallConfig();
  two.gpsformer.blocks = 2;
  RnTrajRec m1(one, *ctx_);
  RnTrajRec m2(two, *ctx_);
  EXPECT_GT(m2.ParameterCount(), m1.ParameterCount());
}

}  // namespace
}  // namespace rntraj
