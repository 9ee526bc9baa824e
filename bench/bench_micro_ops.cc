// Kernel microbenchmarks (google-benchmark): the hot paths underneath
// training and inference — matmul, softmax, GAT layers, Dijkstra rows,
// R-tree queries, sub-graph extraction, HMM matching, one full RNTrajRec
// inference and BeginInference on growing simulator cities.

#include <benchmark/benchmark.h>

#include <atomic>
#include <optional>
#include <thread>

#include "src/baselines/two_stage.h"
#include "src/baselines/zoo.h"
#include "src/common/random.h"
#include "src/core/decoder.h"
#include "src/core/trainer.h"
#include "src/mapmatch/hmm.h"
#include "src/nn/attention.h"
#include "src/nn/graph.h"
#include "src/nn/rnn.h"
#include "src/serve/roadnet_cache.h"
#include "src/roadnet/subgraph.h"
#include "src/sim/city.h"
#include "src/sim/presets.h"
#include "src/tensor/buffer_pool.h"
#include "src/tensor/fusion.h"
#include "src/tensor/ops.h"

namespace rntraj {
namespace {

void BM_Matmul(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  SeedGlobalRng(1);
  Tensor a = Tensor::Randn({n, n}, 1.0f);
  Tensor b = Tensor::Randn({n, n}, 1.0f);
  NoGradGuard guard;
  BufferPoolScope pool;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Matmul(a, b).data().data());
  }
  state.SetItemsProcessed(state.iterations() * int64_t{2} * n * n * n);
}
BENCHMARK(BM_Matmul)->Arg(32)->Arg(64)->Arg(128);

// (n,k)x(k,m) at the model's own shapes (d = 24, head width 8, 270- and
// 848-segment id heads, decoder batches), whose output widths are mostly
// not multiples of the GEMM's 32-wide tile. Args: n, k, m, and 1 to also run
// the backward (dA = dC B^T and dB = A^T dC). Items are flops.
void BM_MatmulShape(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int k = static_cast<int>(state.range(1));
  const int m = static_cast<int>(state.range(2));
  const bool backward = state.range(3) == 1;
  SeedGlobalRng(3);
  Tensor a = Tensor::Randn({n, k}, 1.0f, backward);
  Tensor b = Tensor::Randn({k, m}, 1.0f, backward);
  std::optional<NoGradGuard> no_grad;
  if (!backward) no_grad.emplace();
  BufferPoolScope pool;
  for (auto _ : state) {
    Tensor out = Matmul(a, b);
    if (backward) {
      TensorImpl& o = *out.impl();
      o.grad.assign(o.data.size(), 1.0f);
      o.node->backward(o);
    }
    benchmark::DoNotOptimize(out.data().data());
  }
  state.SetItemsProcessed(state.iterations() * int64_t{backward ? 6 : 2} * n *
                          k * m);
  state.SetLabel(backward ? "fwd+bwd" : "fwd");
}
BENCHMARK(BM_MatmulShape)
    ->ArgsProduct({{270}, {24}, {8, 24, 48, 72}, {0, 1}})
    ->Args({8, 24, 270, 0})
    ->Args({8, 24, 270, 1})
    ->Args({16, 24, 848, 0})
    ->Args({16, 24, 848, 1})
    ->Args({8, 52, 72, 0})
    ->Args({8, 52, 72, 1})
    ->Args({1530, 24, 8, 0})
    ->Args({1530, 24, 8, 1});

void BM_SoftmaxRows(benchmark::State& state) {
  SeedGlobalRng(2);
  Tensor a = Tensor::Randn({64, static_cast<int>(state.range(0))}, 1.0f);
  NoGradGuard guard;
  BufferPoolScope pool;
  for (auto _ : state) {
    benchmark::DoNotOptimize(SoftmaxRows(a).data().data());
  }
}
BENCHMARK(BM_SoftmaxRows)->Arg(64)->Arg(512);

// One sequence of length arg0 as a padded batch of one.
void BM_SelfAttention(benchmark::State& state) {
  SeedGlobalRng(4);
  MultiHeadSelfAttention mha(32, 4);
  const int l = static_cast<int>(state.range(0));
  PaddedBatch x = PaddedBatch::FromFlat(Tensor::Randn({l, 32}, 1.0f), {l});
  NoGradGuard guard;
  BufferPoolScope pool;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mha.ForwardBatched(x).data().data());
  }
}
BENCHMARK(BM_SelfAttention)->Arg(8)->Arg(48);

// GPSFormer forward as one padded batched pass over B ragged trajectories
// with chain sub-graphs per timestep. Arg0 is use_grl: 0 isolates the
// temporal (transformer) half, 1 runs the full encoder.
struct GpsFormerBatchFixture {
  GpsFormerConfig cfg;
  std::unique_ptr<GpsFormer> gf;
  std::unique_ptr<GpsFormer> gf_nogrl;
  std::vector<int> lengths;
  Tensor h0_flat;
  Tensor z0_flat;
  /// Every sub-graph across the batch as the components of one graph, built
  /// once like the per-batch graph of the serving path.
  CsrGraph graphs;

  GpsFormerBatchFixture() {
    SeedGlobalRng(6);
    const int dim = 32;
    const int batch = 16;
    cfg.dim = dim;
    cfg.ffn_dim = 2 * dim;
    cfg.grl.dim = dim;
    gf = std::make_unique<GpsFormer>(cfg);
    gf->SetTraining(false);
    GpsFormerConfig nogrl = cfg;
    nogrl.use_grl = false;
    gf_nogrl = std::make_unique<GpsFormer>(nogrl);
    gf_nogrl->SetTraining(false);
    std::vector<Tensor> h0_parts;
    std::vector<Tensor> z0_parts;
    CsrGraphBuilder builder;
    for (int s = 0; s < batch; ++s) {
      const int l = 3 + s % 4;
      lengths.push_back(l);
      h0_parts.push_back(Tensor::Randn({l, dim}, 1.0f));
      for (int t = 0; t < l; ++t) {
        const int n = 10 + (s + t) % 7;
        z0_parts.push_back(Tensor::Randn({n, dim}, 1.0f));
        std::vector<std::pair<int, int>> edges;
        for (int i = 0; i + 1 < n; ++i) edges.push_back({i, i + 1});
        builder.Add(n, edges);
      }
    }
    h0_flat = ConcatRows(h0_parts);
    z0_flat = ConcatRows(z0_parts);
    graphs = builder.Build();
  }
};

GpsFormerBatchFixture& TheGpsFormerFixture() {
  static GpsFormerBatchFixture f;
  return f;
}

void BM_GpsFormerBatch(benchmark::State& state) {
  auto& f = TheGpsFormerFixture();
  const bool use_grl = state.range(0) == 1;
  GpsFormer& gf = use_grl ? *f.gf : *f.gf_nogrl;
  NoGradGuard guard;
  BufferPoolScope pool;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        gf.ForwardBatch(f.h0_flat, f.lengths, f.z0_flat, f.graphs)
            .h.data()
            .data());
  }
  state.SetLabel(std::string(use_grl ? "full encoder" : "transformer half") +
                 ", B=16");
}
BENCHMARK(BM_GpsFormerBatch)->Arg(1)->Arg(0);

// Isolated GRL record over the same B=16 ragged batch as BM_GpsFormerBatch:
// one ForwardBatch (fat fusion GEMMs + ONE GAT pass over the batch graph).
void BM_GrlBatch(benchmark::State& state) {
  auto& f = TheGpsFormerFixture();
  static GraphRefinementLayer* grl = [] {
    GrlConfig cfg;
    cfg.dim = 32;
    auto* layer = new GraphRefinementLayer(cfg);
    layer->SetTraining(false);
    return layer;
  }();
  NoGradGuard guard;
  BufferPoolScope pool;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        grl->ForwardBatch(f.h0_flat, f.z0_flat, f.graphs, f.lengths)
            .data()
            .data());
  }
  state.SetLabel("one batched GRL pass, B=16, d=32");
}
BENCHMARK(BM_GrlBatch);

// The fused kernels on the encoder's elementwise spine: scale+length-masked
// softmax (attention weights), residual-add+LayerNorm (post-attention),
// bias+ReLU (FFN), and a second residual-add+LayerNorm — everything in a
// transformer block EXCEPT the GEMMs. Arg0: 0 = the generic op chains the
// kernels replace, spelled out below; 1 = the fused single-pass kernels.
void BM_FusedChain(benchmark::State& state) {
  const bool fused = state.range(0) == 1;
  const int n = 48, d = 64;
  SeedGlobalRng(12);
  Tensor scores = Tensor::Randn({n, n}, 1.0f);
  std::vector<int> valid(n);
  for (int i = 0; i < n; ++i) valid[i] = i + 1;
  Tensor row_mask = Tensor::Full({n, 1}, 1.0f);
  Tensor x = Tensor::Randn({n, d}, 1.0f);
  Tensor attn_out = Tensor::Randn({n, d}, 1.0f);
  Tensor gamma1 = Tensor::Randn({d}, 0.1f);
  Tensor beta1 = Tensor::Randn({d}, 0.1f);
  Tensor gamma2 = Tensor::Randn({d}, 0.1f);
  Tensor beta2 = Tensor::Randn({d}, 0.1f);
  Tensor bias = Tensor::Randn({d}, 0.1f);
  const float scale = 0.125f;
  const auto layer_norm_chain = [&](const Tensor& a, const Tensor& b,
                                    const Tensor& gamma, const Tensor& beta) {
    Tensor sum = Add(a, b);
    Tensor xc = Sub(sum, RowMean(sum));
    Tensor y = Div(xc, Sqrt(AddScalar(RowMean(Square(xc)), 1e-5f)));
    return Mul(Add(Mul(y, gamma), beta), row_mask);
  };
  NoGradGuard guard;
  BufferPoolScope pool;
  for (auto _ : state) {
    Tensor w, out;
    if (fused) {
      w = fusion::ScaleLengthMaskedSoftmax(scores, scale, valid);
      Tensor y = fusion::ResidualLayerNorm(x, attn_out, gamma1, beta1, 1e-5f,
                                           row_mask);
      Tensor ff = fusion::BiasAct(y, bias, fusion::Act::kRelu);
      out = fusion::ResidualLayerNorm(y, ff, gamma2, beta2, 1e-5f, row_mask);
    } else {
      w = LengthMaskedSoftmaxRows(MulScalar(scores, scale), valid);
      Tensor y = layer_norm_chain(x, attn_out, gamma1, beta1);
      Tensor ff = Relu(Add(y, bias));
      out = layer_norm_chain(y, ff, gamma2, beta2);
    }
    benchmark::DoNotOptimize(w.data().data());
    benchmark::DoNotOptimize(out.data().data());
  }
  state.SetLabel(std::string(fused ? "fused single-pass kernels"
                                   : "generic op chains") +
                 ", n=48, d=64");
}
BENCHMARK(BM_FusedChain)->Arg(0)->Arg(1);

// The binary elementwise ops, one benchmark per (op, broadcast) pair at the
// GridGNN grid-GRU shape (270, 24) and the steady-dense GRL shape
// (12288, 24). Arg0: op (0 add, 1 sub, 2 mul, 3 div); Arg1: b's broadcast
// (0 same shape, 1 scalar, 2 row (d), 3 column (n,1)); Arg2: rows; Arg3: 1
// also runs the op's backward into both operands.
void BM_Binary(benchmark::State& state) {
  const int op = static_cast<int>(state.range(0));
  const int bc = static_cast<int>(state.range(1));
  const int n = static_cast<int>(state.range(2));
  const bool backward = state.range(3) == 1;
  const int d = 24;
  static const char* const kOps[] = {"add", "sub", "mul", "div"};
  static const char* const kBroadcasts[] = {"same", "scalar", "row", "col"};
  const std::vector<int> b_shapes[] = {{n, d}, {1}, {d}, {n, 1}};
  const std::vector<int>& b_shape = b_shapes[bc];
  SeedGlobalRng(13);
  Tensor a = Tensor::Randn({n, d}, 1.0f, backward);
  Tensor b = Tensor::Uniform(b_shape, 0.5f, 2.0f, backward);
  const auto apply = [op](const Tensor& x, const Tensor& y) {
    switch (op) {
      case 0: return Add(x, y);
      case 1: return Sub(x, y);
      case 2: return Mul(x, y);
      default: return Div(x, y);
    }
  };
  std::optional<NoGradGuard> no_grad;
  if (!backward) no_grad.emplace();
  BufferPoolScope pool;
  for (auto _ : state) {
    Tensor out = apply(a, b);
    if (backward) {
      // Seed d(loss)/d(out) and run just this op's backward.
      TensorImpl& o = *out.impl();
      o.grad.assign(o.data.size(), 1.0f);
      o.node->backward(o);
    }
    benchmark::DoNotOptimize(out.data().data());
  }
  state.SetItemsProcessed(state.iterations() * int64_t{n} * d);
  state.SetLabel(std::string(kOps[op]) + " " + kBroadcasts[bc] +
                 (backward ? " fwd+bwd" : " fwd"));
}
BENCHMARK(BM_Binary)
    ->ArgsProduct({{0, 1, 2, 3}, {0, 1, 2, 3}, {270, 12288}, {0, 1}});

// One GRU cell step, hidden and input width 24, at GridGNN's 270 grid
// sequences of the Chengdu network and at a decoder batch of 8. Arg0: rows;
// Arg1: 1 also runs the backward (every parameter and both inputs).
void BM_GruCell(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const bool backward = state.range(1) == 1;
  const int d = 24;
  SeedGlobalRng(14);
  GruCell cell(d, d);
  Tensor x = Tensor::Randn({n, d}, 1.0f, backward);
  Tensor h = Tensor::Randn({n, d}, 0.5f, backward);
  std::optional<NoGradGuard> no_grad;
  if (!backward) no_grad.emplace();
  BufferPoolScope pool;
  for (auto _ : state) {
    Tensor out = cell.Forward(x, h);
    if (backward) SumAll(out).Backward();
    benchmark::DoNotOptimize(out.data().data());
  }
  state.SetItemsProcessed(state.iterations() * int64_t{n});
  state.SetLabel(backward ? "fwd+bwd" : "fwd");
}
BENCHMARK(BM_GruCell)->ArgsProduct({{270, 8}, {0, 1}});

struct World {
  std::unique_ptr<Dataset> ds;
  World() {
    DatasetConfig cfg = ChengduConfig(BenchScale::kTiny);
    cfg.num_train = 4;
    cfg.num_val = 1;
    cfg.num_test = 8;
    ds = BuildDataset(cfg);
  }
};

World& TheWorld() {
  static World w;
  return w;
}

void BM_DijkstraRow(benchmark::State& state) {
  auto& w = TheWorld();
  int src = 0;
  for (auto _ : state) {
    NetworkDistance nd(&w.ds->roadnet());  // fresh cache each iteration
    benchmark::DoNotOptimize(nd.StartToStart(src, 1));
    src = (src + 1) % w.ds->roadnet().num_segments();
  }
}
BENCHMARK(BM_DijkstraRow);

void BM_RTreeRadiusQuery(benchmark::State& state) {
  auto& w = TheWorld();
  Rng rng(5);
  const BBox& b = w.ds->roadnet().bounds();
  for (auto _ : state) {
    Vec2 p{rng.Uniform(b.min_x, b.max_x), rng.Uniform(b.min_y, b.max_y)};
    benchmark::DoNotOptimize(
        SegmentsWithinRadius(w.ds->roadnet(), w.ds->rtree(), p, 300.0));
  }
}
BENCHMARK(BM_RTreeRadiusQuery);

/// The batched counterpart: `Arg` points per call through
/// BatchSegmentsWithinRadius (chunk-parallel with scratch reuse). Compare
/// items_per_second against BM_RTreeRadiusQuery's iterations/sec to read the
/// per-point speedup.
void BM_RTreeRadiusQueryBatch(benchmark::State& state) {
  auto& w = TheWorld();
  Rng rng(5);
  const BBox& b = w.ds->roadnet().bounds();
  std::vector<Vec2> points(state.range(0));
  for (auto& p : points) {
    p = {rng.Uniform(b.min_x, b.max_x), rng.Uniform(b.min_y, b.max_y)};
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        BatchSegmentsWithinRadius(w.ds->roadnet(), w.ds->rtree(), points, 300.0));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RTreeRadiusQueryBatch)->Arg(64)->Arg(256);

/// Serving-cache variant: the same random points answered through a warm
/// CellCandidateCache (exact grid-cell-keyed candidates).
void BM_RTreeRadiusQueryCached(benchmark::State& state) {
  auto& w = TheWorld();
  serve::CellCandidateCache cache(&w.ds->roadnet(), &w.ds->rtree(),
                                  &w.ds->grid(), {300.0});
  Rng rng(5);
  const BBox& b = w.ds->roadnet().bounds();
  for (auto _ : state) {
    Vec2 p{rng.Uniform(b.min_x, b.max_x), rng.Uniform(b.min_y, b.max_y)};
    benchmark::DoNotOptimize(cache.WithinRadius(p, 300.0));
  }
}
BENCHMARK(BM_RTreeRadiusQueryCached);

void BM_SubGraphExtraction(benchmark::State& state) {
  auto& w = TheWorld();
  Rng rng(6);
  const BBox& b = w.ds->roadnet().bounds();
  for (auto _ : state) {
    Vec2 p{rng.Uniform(b.min_x, b.max_x), rng.Uniform(b.min_y, b.max_y)};
    benchmark::DoNotOptimize(ExtractPointSubGraph(
        w.ds->roadnet(), w.ds->rtree(), p, 300.0, 30.0));
  }
}
BENCHMARK(BM_SubGraphExtraction);

void BM_HmmMatchTrajectory(benchmark::State& state) {
  auto& w = TheWorld();
  NetworkDistance nd(&w.ds->roadnet());
  size_t i = 0;
  for (auto _ : state) {
    const auto& s = w.ds->test()[i % w.ds->test().size()];
    benchmark::DoNotOptimize(
        HmmMapMatch(w.ds->roadnet(), w.ds->rtree(), nd, s.raw_noisy));
    ++i;
  }
}
BENCHMARK(BM_HmmMatchTrajectory);

/// Linear+HMM, the serving ladder's degraded rung, over one shared, warmed
/// NetworkDistance on Chengdu small keep 1/8 (270 segments). Arg0 = threads
/// matching at once: the timed thread plus Arg0 - 1 helpers looping the same
/// matches. Arg1 = the row cap (0 = unbounded, 1024 = the serving cap). Time
/// is per match on the timed thread, so Arg0 = 3 over Arg0 = 1 is the
/// slowdown a match sees when three sessions run the fallback together.
void BM_HmmShared(benchmark::State& state) {
  static const std::unique_ptr<Dataset> ds =
      BuildDataset(ChengduConfig(BenchScale::kSmall, 8));
  NetworkDistance nd(&ds->roadnet(), static_cast<int>(state.range(1)));
  ModelContext ctx = ModelContext::FromDataset(*ds);
  ctx.netdist = &nd;
  LinearHmmModel model(ctx);
  const std::vector<TrajectorySample>& samples = ds->test();
  for (const auto& s : samples) model.Recover(s);  // warm the shared rows
  std::atomic<bool> stop{false};
  std::vector<std::thread> helpers;
  for (int t = 1; t < state.range(0); ++t) {
    helpers.emplace_back([&, t] {
      for (size_t i = t; !stop.load(std::memory_order_relaxed); ++i) {
        benchmark::DoNotOptimize(model.Recover(samples[i % samples.size()]));
      }
    });
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Recover(samples[i++ % samples.size()]));
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& h : helpers) h.join();
  state.counters["cached_rows"] = nd.cached_rows();
}
BENCHMARK(BM_HmmShared)
    ->ArgsProduct({{1, 3}, {0, 1024}})
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

void BM_RnTrajRecInference(benchmark::State& state) {
  auto& w = TheWorld();
  SeedGlobalRng(7);
  ModelContext ctx = ModelContext::FromDataset(*w.ds);
  auto model = MakeModel("rntrajrec", ctx, 16);
  model->SetTrainingMode(false);
  model->BeginInference();
  size_t i = 0;
  for (auto _ : state) {
    const auto& s = w.ds->test()[i % w.ds->test().size()];
    benchmark::DoNotOptimize(model->Recover(s));
    ++i;
  }
}
BENCHMARK(BM_RnTrajRecInference);

// GAT layer forward (d=32, 4 heads) on the graphs the model runs it on.
// Arg0 = 0: 64 GPS-point sub-graphs of the 270-segment Chengdu network
// (delta 300 m, at most 32 nodes: about 32 nodes and 57 edges each) as one
// batch graph, the GRL shape; 1: that 270-segment road graph and 2: the
// 848-segment Shanghai-L one, the GridGNN shapes.
struct GatGraphs {
  CsrGraph graphs[3];
  std::string labels[3];

  GatGraphs() {
    const RoadNetwork chengdu =
        GenerateCity(ChengduConfig(BenchScale::kSmall).city);
    const RTree rtree = BuildSegmentRTree(chengdu);
    Rng rng(3);
    const BBox& b = chengdu.bounds();
    CsrGraphBuilder builder;
    for (int i = 0; i < 64; ++i) {
      const Vec2 p{rng.Uniform(b.min_x, b.max_x), rng.Uniform(b.min_y, b.max_y)};
      const PointSubGraph sg =
          ExtractPointSubGraph(chengdu, rtree, p, 300.0, 30.0, 32);
      builder.Add(sg.size(), sg.local_edges);
    }
    graphs[0] = builder.Build();
    graphs[1] = BuildCsrGraph(chengdu.num_segments(), chengdu.edges());
    const RoadNetwork shanghai =
        GenerateCity(ShanghaiLConfig(BenchScale::kFull).city);
    graphs[2] = BuildCsrGraph(shanghai.num_segments(), shanghai.edges());
    labels[0] = "64 sub-graphs";
    labels[1] = "Chengdu road graph";
    labels[2] = "Shanghai-L road graph";
  }
};

void BM_GatLayer(benchmark::State& state) {
  static GatGraphs g;
  const CsrGraph& graph = g.graphs[state.range(0)];
  const bool backward = state.range(1) == 1;
  SeedGlobalRng(3);
  GatLayer gat(32, 4);
  Tensor h = Tensor::Randn({graph.num_nodes(), 32}, 1.0f, backward);
  std::optional<NoGradGuard> no_grad;
  if (!backward) no_grad.emplace();
  BufferPoolScope pool;
  for (auto _ : state) {
    Tensor out = gat.Forward(h, graph);
    if (backward) SumAll(out).Backward();
    benchmark::DoNotOptimize(out.data().data());
  }
  state.SetItemsProcessed(state.iterations() * graph.num_edges());
  state.SetLabel(g.labels[state.range(0)] + ", " +
                 std::to_string(graph.num_nodes()) + " nodes, " +
                 std::to_string(graph.num_edges()) + " edges incl. self-loops" +
                 (backward ? ", fwd+bwd" : ", fwd"));
}
BENCHMARK(BM_GatLayer)->ArgsProduct({{0, 1, 2}, {0, 1}});

// RNTrajRec BeginInference (the GridGNN forward over every segment) on
// simulator cities of Arg0 x Arg0 intersections: 18 -> 1,057 segments,
// 26 -> 2,258, 36 -> 4,348. Cost should grow with |V| + |E|.
void BM_BeginInference(benchmark::State& state) {
  DatasetConfig cfg;
  cfg.city.rows = cfg.city.cols = static_cast<int>(state.range(0));
  cfg.num_train = cfg.num_val = cfg.num_test = 0;
  std::unique_ptr<Dataset> ds = BuildDataset(cfg);
  SeedGlobalRng(9);
  RnTrajRec model(DefaultRnTrajRecConfig(24), ModelContext::FromDataset(*ds));
  model.SetTrainingMode(false);
  for (auto _ : state) model.BeginInference();
  state.SetLabel(std::to_string(ds->roadnet().num_segments()) + " segments, " +
                 std::to_string(ds->roadnet().edges().size()) + " edges");
}
BENCHMARK(BM_BeginInference)
    ->Arg(18)
    ->Arg(26)
    ->Arg(36)
    ->Unit(benchmark::kMillisecond);

/// Isolated decoder record: one DecodeBatch over a micro-batch of B samples
/// (fixed encoder outputs, warm mask caches) — per target step, one fat
/// GRU/attention/constraint-softmax pass.
struct DecoderBatchWorld {
  ModelContext ctx;
  DecoderConfig cfg;
  std::unique_ptr<Decoder> dec;
  std::vector<const TrajectorySample*> ptrs;
  std::vector<Tensor> enc;
  std::vector<Tensor> traj;

  DecoderBatchWorld() : ctx(ModelContext::FromDataset(*TheWorld().ds)) {
    SeedGlobalRng(8);
    cfg.dim = 32;
    dec = std::make_unique<Decoder>(cfg, &ctx);
    const auto& test = TheWorld().ds->test();
    for (int i = 0; i < 16; ++i) {
      const TrajectorySample& s = test[i % test.size()];
      ptrs.push_back(&s);
      enc.push_back(
          Tensor::Randn({static_cast<int>(s.input.size()), cfg.dim}, 1.0f));
      traj.push_back(Tensor::Randn({1, cfg.dim}, 0.5f));
    }
    // Warm the per-sample mask caches up front so the timed loop measures
    // pure decoding, not R-tree work.
    NoGradGuard guard;
    dec->DecodeBatch(enc, traj, ptrs);
  }
};

DecoderBatchWorld& TheDecoderWorld() {
  static DecoderBatchWorld w;
  return w;
}

void BM_DecoderBatch(benchmark::State& state) {
  auto& w = TheDecoderWorld();
  const int b = static_cast<int>(state.range(0));
  std::vector<const TrajectorySample*> samples(w.ptrs.begin(),
                                               w.ptrs.begin() + b);
  std::vector<Tensor> enc(w.enc.begin(), w.enc.begin() + b);
  std::vector<Tensor> traj(w.traj.begin(), w.traj.begin() + b);
  NoGradGuard guard;
  BufferPoolScope pool;
  for (auto _ : state) {
    benchmark::DoNotOptimize(w.dec->DecodeBatch(enc, traj, samples));
  }
  state.SetItemsProcessed(state.iterations() * b);
  state.SetLabel("one batched decode, B=" + std::to_string(b) + ", d=32");
}
BENCHMARK(BM_DecoderBatch)->Arg(4)->Arg(8)->Arg(16);

}  // namespace
}  // namespace rntraj

BENCHMARK_MAIN();
