#ifndef RNTRAJ_NN_GRAPH_H_
#define RNTRAJ_NN_GRAPH_H_

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "src/nn/linear.h"
#include "src/nn/module.h"
#include "src/tensor/ops.h"

/// \file graph.h
/// Graph neural layers over sparse in-edge graphs. Paper Eq. (3)-(4) define
/// the GAT over each node's in-neighbours (plus itself), and both graphs the
/// model sees are sparse: a 32-node GPS-point sub-graph has about 57 edges
/// and a road segment two or three successors. So a graph stores only its
/// edges, as compressed sparse rows of in-edges, and every layer costs
/// O(|V| + |E|) per head, never |V|^2.

namespace rntraj {

/// Which per-edge weights a CsrGraph carries for the SpMM layers.
enum class EdgeWeights {
  kNone,  ///< Structure only (the GAT computes its own edge values).
  /// GcnLayer: 1 / sqrt(deg(dst) * deg(src)) with deg = in-degree + 1 (the
  /// self-loop) on both sides. This is not the symmetric normaliser of the
  /// symmetrised adjacency: the edge 1<-0 of a one-edge 2-node graph gets
  /// 1/sqrt(2 * 1).
  kGcnNorm,
  /// GinLayer: 1 on each edge from a predecessor, 0 on the self-loop.
  kNeighbours,
};

/// A directed graph, or a batch of disjoint graphs laid out one after another
/// (node ids of graph g follow those of graph g-1). Node i's in-edges are
/// the CSR row i of `csr`: its self-loop and one edge per predecessor, with
/// sources sorted ascending.
struct CsrGraph {
  CsrIndexPtr csr = std::make_shared<const CsrIndex>();
  Tensor weight;  ///< (num_edges) per-edge weights; undefined for kNone.
  EdgeWeights weights = EdgeWeights::kNone;
  std::vector<int> sizes;  ///< Node count of each component graph, in order.

  int num_nodes() const { return csr->num_nodes(); }
  int num_edges() const { return csr->num_edges(); }
};

/// Appends graphs to one CsrGraph. Edges are (src, dst) pairs in the local
/// node ids of the graph being added: dst aggregates from src, so callers
/// pass predecessor-style edges for directed road graphs. Out-of-range
/// edges, self-loops (every node gets one implicitly) and duplicate edges
/// are rejected.
class CsrGraphBuilder {
 public:
  void Add(int n, const std::vector<std::pair<int, int>>& edges) {
    RNTRAJ_CHECK(n >= 0);
    std::vector<int>& off = csr_.offsets;
    std::vector<int>& src = csr_.src;
    const int base = csr_.num_nodes();
    // Row lengths (the self-loop plus the in-degree), then their prefix sum.
    off.resize(static_cast<size_t>(base) + n + 1, 1);
    for (const auto& [s, d] : edges) {
      RNTRAJ_CHECK_MSG(s >= 0 && s < n && d >= 0 && d < n && s != d,
                       "graph: edge " << s << "->" << d << " is invalid in a "
                                      << n << "-node graph");
      ++off[base + d + 1];
    }
    for (int i = 0; i < n; ++i) off[base + i + 1] += off[base + i];
    src.resize(off[base + n]);
    cursor_.assign(off.begin() + base, off.begin() + base + n);
    for (int i = 0; i < n; ++i) src[cursor_[i]++] = base + i;
    for (const auto& [s, d] : edges) src[cursor_[d]++] = base + s;
    for (int i = 0; i < n; ++i) {
      const auto row = src.begin() + off[base + i];
      const auto row_end = src.begin() + off[base + i + 1];
      std::sort(row, row_end);
      RNTRAJ_CHECK_MSG(std::adjacent_find(row, row_end) == row_end,
                       "graph: duplicate edge into node " << i);
    }
    sizes_.push_back(n);
  }

  /// The graph of everything added so far, with the requested edge weights.
  CsrGraph Build(EdgeWeights weights = EdgeWeights::kNone) {
    CsrGraph g;
    g.weights = weights;
    g.sizes = std::move(sizes_);
    if (weights != EdgeWeights::kNone) {
      const std::vector<int>& off = csr_.offsets;
      std::vector<float> w(csr_.src.size());
      for (int i = 0; i < csr_.num_nodes(); ++i) {
        for (int e = off[i]; e < off[i + 1]; ++e) {
          const int j = csr_.src[e];
          if (weights == EdgeWeights::kNeighbours) {
            w[e] = j == i ? 0.0f : 1.0f;
          } else {
            const float deg_i = static_cast<float>(off[i + 1] - off[i]);
            const float deg_j = static_cast<float>(off[j + 1] - off[j]);
            w[e] = 1.0f / std::sqrt(deg_i * deg_j);
          }
        }
      }
      g.weight = Tensor::FromVector({csr_.num_edges()}, std::move(w));
    }
    g.csr = std::make_shared<const CsrIndex>(std::move(csr_));
    csr_ = CsrIndex();
    sizes_.clear();
    return g;
  }

 private:
  CsrIndex csr_;
  std::vector<int> sizes_;
  std::vector<int> cursor_;
};

/// One directed graph of n nodes (see CsrGraphBuilder for the edge rules).
inline CsrGraph BuildCsrGraph(int n,
                              const std::vector<std::pair<int, int>>& edges,
                              EdgeWeights weights = EdgeWeights::kNone) {
  CsrGraphBuilder builder;
  builder.Add(n, edges);
  return builder.Build(weights);
}

/// Multi-head graph attention layer (paper Eq. (3)-(4)).
class GatLayer : public Module {
 public:
  GatLayer(int dim, int num_heads)
      : d_(dim), heads_(num_heads), dh_(dim / num_heads) {
    RNTRAJ_CHECK_MSG(dim % num_heads == 0, "GAT: dim % heads != 0");
    for (int h = 0; h < heads_; ++h) {
      const std::string suffix = "_h" + std::to_string(h);
      w_.push_back(RegisterParameter("w" + suffix, XavierUniform(d_, dh_)));
      w_att_.push_back(RegisterParameter("w_att" + suffix, XavierUniform(d_, dh_)));
      a_src_.push_back(RegisterParameter("a_src" + suffix, XavierUniform(dh_, 1)));
      a_dst_.push_back(RegisterParameter("a_dst" + suffix, XavierUniform(dh_, 1)));
    }
  }

  /// h: (num_nodes, d) -> (num_nodes, d). Each head scores every in-edge
  /// (Eq. (3)), softmaxes over the node's in-edges and aggregates the
  /// sources' features (Eq. (4)); a batch of disjoint graphs is one call.
  Tensor Forward(const Tensor& h, const CsrGraph& g) const {
    RNTRAJ_CHECK(h.dim(0) == g.num_nodes());
    std::vector<Tensor> heads;
    heads.reserve(heads_);
    for (int k = 0; k < heads_; ++k) {
      Tensor hw = Matmul(h, w_[k]);      // (n, dh) aggregation features
      Tensor ha = Matmul(h, w_att_[k]);  // (n, dh) attention features
      Tensor u = Matmul(ha, a_src_[k]);  // (n, 1): centre term
      Tensor v = Matmul(ha, a_dst_[k]);  // (n, 1): neighbour term
      Tensor scores = LeakyRelu(EdgeScores(u, v, g.csr), 0.2f);
      Tensor attn = EdgeSoftmax(scores, g.csr);
      heads.push_back(LeakyRelu(SpMM(attn, hw, g.csr), 0.2f));
    }
    return heads_ == 1 ? heads[0] : ConcatCols(heads);
  }

 private:
  int d_;
  int heads_;
  int dh_;
  std::vector<Tensor> w_;
  std::vector<Tensor> w_att_;
  std::vector<Tensor> a_src_;
  std::vector<Tensor> a_dst_;
};

/// Graph convolution layer (Kipf & Welling); used by the Fig. 7(a)
/// road-representation ablation and the GTS baseline. Propagates over a
/// graph built with EdgeWeights::kGcnNorm.
class GcnLayer : public Module {
 public:
  GcnLayer(int in_dim, int out_dim) : lin_(in_dim, out_dim) {
    RegisterChild("lin", &lin_);
  }

  Tensor Forward(const Tensor& h, const CsrGraph& g) const {
    RNTRAJ_CHECK_MSG(g.weights == EdgeWeights::kGcnNorm,
                     "GcnLayer: graph needs kGcnNorm edge weights");
    return Relu(lin_.Forward(SpMM(g.weight, h, g.csr)));
  }

 private:
  Linear lin_;
};

/// Graph isomorphism layer (Xu et al.): MLP((1+eps) h + sum of in-neighbours),
/// over a graph built with EdgeWeights::kNeighbours.
class GinLayer : public Module {
 public:
  GinLayer(int dim, int hidden_dim)
      : lin1_(dim, hidden_dim), lin2_(hidden_dim, dim) {
    eps_ = RegisterParameter("eps", Tensor::Zeros({1}));
    RegisterChild("lin1", &lin1_);
    RegisterChild("lin2", &lin2_);
  }

  Tensor Forward(const Tensor& h, const CsrGraph& g) const {
    RNTRAJ_CHECK_MSG(g.weights == EdgeWeights::kNeighbours,
                     "GinLayer: graph needs kNeighbours edge weights");
    Tensor agg = SpMM(g.weight, h, g.csr);
    Tensor self = Mul(h, AddScalar(eps_, 1.0f));
    return lin2_.Forward(Relu(lin1_.Forward(Add(agg, self))));
  }

 private:
  Tensor eps_;
  Linear lin1_;
  Linear lin2_;
};

}  // namespace rntraj

#endif  // RNTRAJ_NN_GRAPH_H_
