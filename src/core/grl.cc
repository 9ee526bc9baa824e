#include "src/core/grl.h"

#include "src/obs/stage_profiler.h"
#include "src/tensor/fusion.h"

#include "src/nn/init.h"

namespace rntraj {

GraphRefinementLayer::GraphRefinementLayer(const GrlConfig& config)
    : cfg_(config),
      fuse_lin_(2 * config.dim, config.dim),
      fwd_ffn_(config.dim, 2 * config.dim),
      gn1_(config.dim),
      gn2_(config.dim),
      ln1_(config.dim),
      ln2_(config.dim) {
  wz1_ = RegisterParameter("wz1", XavierUniform(cfg_.dim, cfg_.dim));
  wz2_ = RegisterParameter("wz2", XavierUniform(cfg_.dim, cfg_.dim));
  bz_ = RegisterParameter("bz", Tensor::Zeros({cfg_.dim}));
  RegisterChild("fuse_lin", &fuse_lin_);
  RegisterChild("fwd_ffn", &fwd_ffn_);
  for (int p = 0; p < cfg_.gat_layers; ++p) {
    gat_.push_back(std::make_unique<GatLayer>(cfg_.dim, cfg_.heads));
    RegisterChild("gat" + std::to_string(p), gat_.back().get());
  }
  if (cfg_.use_graph_norm) {
    RegisterChild("gn1", &gn1_);
    RegisterChild("gn2", &gn2_);
  } else {
    RegisterChild("ln1", &ln1_);
    RegisterChild("ln2", &ln2_);
  }
}

Tensor GraphRefinementLayer::NormaliseBatch(
    int which, const Tensor& flat, const std::vector<int>& graph_sizes,
    const std::vector<int>& sample_graph_counts) {
  // LayerNorm is row-local: one pass over the whole batch equals
  // per-sample passes exactly.
  if (!cfg_.use_graph_norm) {
    return (which == 0 ? ln1_ : ln2_).Forward(flat);
  }
  // GraphNorm: statistics must span exactly one sample's sub-graphs, so
  // slice the flat tensor per sample — but only while training: eval-mode
  // GraphNorm reads running statistics only (row-local), so one pass over
  // the whole batch is elementwise identical to per-sample passes and skips
  // the slice/concat churn.
  GraphNorm& gn = which == 0 ? gn1_ : gn2_;
  if (!gn.training()) {
    return gn.Forward(flat, graph_sizes);
  }
  std::vector<Tensor> parts;
  parts.reserve(sample_graph_counts.size());
  int g = 0;
  int row = 0;
  for (int count : sample_graph_counts) {
    std::vector<int> sizes(graph_sizes.begin() + g,
                           graph_sizes.begin() + g + count);
    int rows = 0;
    for (int s : sizes) rows += s;
    parts.push_back(gn.Forward(SliceRows(flat, row, rows), sizes));
    g += count;
    row += rows;
  }
  return parts.size() == 1 ? parts[0] : ConcatRows(parts);
}

Tensor GraphRefinementLayer::ForwardBatch(
    const Tensor& tr, const Tensor& z, const CsrGraph& graphs,
    const std::vector<int>& sample_graph_counts) {
  const std::vector<int>& graph_sizes = graphs.sizes;
  const int num_graphs = static_cast<int>(graph_sizes.size());
  RNTRAJ_CHECK(tr.dim(0) == num_graphs);
  std::vector<int> node2graph;
  node2graph.reserve(graphs.num_nodes());
  for (int g = 0; g < num_graphs; ++g) {
    node2graph.insert(node2graph.end(), graph_sizes[g], g);
  }
  RNTRAJ_CHECK(z.dim(0) == graphs.num_nodes());

  // Sub-layer 1: GraphNorm(x + GatedFusion(x)), fused across the batch. The
  // node-side and timestep-side projections are single fat GEMMs over all
  // nodes / all timesteps; GatherRows broadcasts each timestep's row to its
  // sub-graph's nodes.
  // Stage attribution: kGrl times the fusion + norm sub-layers, kGat the
  // GAT propagation alone — disjoint scopes, so the profile splits "graph
  // attention" from "the rest of the refinement layer" (RNTrajRec Fig. 6's
  // efficiency axis; the fusion-target data for ROADMAP open item 1).
  Tensor a;
  {
    obs::ScopedStage stage(obs::Stage::kGrl);
    Tensor trx = GatherRows(tr, node2graph);  // (total_nodes, d)
    Tensor fuse_out;
    if (cfg_.use_gated_fusion) {
      // Eq. (7): z = sigma(tr W1 + Z W2 + b); out = z*tr + (1-z)*Z.
      Tensor trw1 = Matmul(tr, wz1_);  // (num_graphs, d)
      Tensor gate =
          fusion::BiasAct(Add(Matmul(z, wz2_), bz_),
                          GatherRows(trw1, node2graph), fusion::Act::kSigmoid);
      fuse_out = Add(Mul(gate, trx), Mul(AddScalar(Neg(gate), 1.0f), z));
    } else {
      // Table V "w/o GF": concatenation + feed-forward.
      fuse_out = Relu(fuse_lin_.Forward(ConcatCols({trx, z})));
    }
    a = NormaliseBatch(0, Add(z, fuse_out), graph_sizes,
                       sample_graph_counts);
  }

  // Sub-layer 2: GraphNorm(x + GraphForward(x)). GAT propagation runs ONE
  // pass over the batch graph (each node's softmax spans its own in-edges,
  // so neighbourhoods stay inside their sub-graph); the w/o-GAT feed-forward
  // replacement is row-local and runs in one GEMM.
  Tensor forwarded;
  if (cfg_.use_gat) {
    Tensor prop = a;
    {
      obs::ScopedStage stage(obs::Stage::kGat);
      for (auto& layer : gat_) prop = layer->Forward(prop, graphs);
    }
    forwarded = Add(a, prop);
  } else {
    obs::ScopedStage stage(obs::Stage::kGrl);
    forwarded = Add(a, fwd_ffn_.Forward(a));
  }
  obs::ScopedStage stage(obs::Stage::kGrl);
  return NormaliseBatch(1, forwarded, graph_sizes, sample_graph_counts);
}

}  // namespace rntraj
