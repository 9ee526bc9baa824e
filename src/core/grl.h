#ifndef RNTRAJ_CORE_GRL_H_
#define RNTRAJ_CORE_GRL_H_

#include <memory>
#include <vector>

#include "src/nn/graph.h"
#include "src/nn/linear.h"
#include "src/nn/norm.h"
#include "src/nn/transformer.h"
#include "src/tensor/ops.h"

/// \file grl.h
/// Graph Refinement Layer (paper §IV-D, Fig. 3): the spatial half of a
/// GPSFormer block. Per sub-layer residual structure
/// GraphNorm(x + SubLayer(x)), where the first sub-layer is GatedFusion
/// (Eq. (7)) mixing the transformer output into each sub-graph's node
/// features and the second is GraphForward (a stack of P GAT layers).
///
/// Ablation switches reproduce Table V variants: `use_gated_fusion=false`
/// replaces gated fusion by concat+FFN (w/o GF), `use_graph_norm=false`
/// swaps GraphNorm for LayerNorm (w/o GN), `use_gat=false` swaps
/// GraphForward for a feed-forward network (w/o GAT).

namespace rntraj {

/// GRL hyper-parameters and ablation switches.
struct GrlConfig {
  int dim = 32;
  int gat_layers = 1;  ///< P (paper: 1).
  int heads = 4;
  bool use_gated_fusion = true;
  bool use_graph_norm = true;
  bool use_gat = true;
};

/// One graph refinement layer. Operates on all timesteps of each trajectory
/// jointly so GraphNorm sees the trajectory's full set of sub-graphs (paper
/// Eq. (9)).
class GraphRefinementLayer : public Module {
 public:
  explicit GraphRefinementLayer(const GrlConfig& config);

  /// Cross-sample batched layer (a single trajectory is a batch of one).
  /// `tr` holds the valid encoder rows of every sample back to back ((sum of
  /// lengths, d)); `z` is the flat node-feature tensor of all sub-graphs
  /// across the batch (samples in order, timesteps in order within each
  /// sample), and `graphs` holds those sub-graphs as disjoint components in
  /// the same order; `sample_graph_counts[s]` is sample s's timestep count.
  ///
  /// Everything is batched: the gated-fusion projections run as single fat
  /// GEMMs over all nodes / all timesteps of the whole batch, and GAT
  /// propagation is ONE GatLayer::Forward over the batch graph (sub-graphs
  /// share no edges, so they never attend across each other).
  /// Normalisation stays per sample, so GraphNorm batch statistics cover
  /// exactly one trajectory's sub-graphs (paper Eq. (9)) and every node
  /// feature is batch-composition invariant within float rounding. Returns
  /// the refined flat tensor.
  Tensor ForwardBatch(const Tensor& tr, const Tensor& z,
                      const CsrGraph& graphs,
                      const std::vector<int>& sample_graph_counts);

 private:
  /// Per-sample normalisation of a flat (sum nodes, d) tensor, with
  /// GraphNorm or LayerNorm: GraphNorm statistics are computed per sample
  /// over that sample's sub-graph span.
  Tensor NormaliseBatch(int which, const Tensor& flat,
                        const std::vector<int>& graph_sizes,
                        const std::vector<int>& sample_graph_counts);

  GrlConfig cfg_;
  // Gated fusion parameters (Eq. (7)).
  Tensor wz1_;
  Tensor wz2_;
  Tensor bz_;
  // w/o GF replacement.
  Linear fuse_lin_;
  // Graph forward: P GAT layers, or the w/o-GAT feed-forward.
  std::vector<std::unique_ptr<GatLayer>> gat_;
  FeedForward fwd_ffn_;
  // Normalisation (two sub-layers).
  GraphNorm gn1_;
  GraphNorm gn2_;
  LayerNorm ln1_;
  LayerNorm ln2_;
};

}  // namespace rntraj

#endif  // RNTRAJ_CORE_GRL_H_
