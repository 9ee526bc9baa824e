#ifndef RNTRAJ_CORE_GRIDGNN_H_
#define RNTRAJ_CORE_GRIDGNN_H_

#include <memory>
#include <vector>

#include "src/nn/graph.h"
#include "src/nn/linear.h"
#include "src/nn/rnn.h"
#include "src/roadnet/grid.h"
#include "src/roadnet/road_network.h"
#include "src/tensor/ops.h"

/// \file gridgnn.h
/// GridGNN (paper §IV-B): the road-network representation module. Every
/// segment is a grid-cell sequence aggregated by a GRU (Eq. (1)-(2)), added
/// to a per-segment id embedding, refined by M GAT layers (Eq. (3)-(4)), and
/// concatenated with the static features f_road before a linear projection to
/// X_road in R^{|V| x d}.
///
/// The grid GRU runs *batched over all segments*: one GRUCell step advances
/// every segment's sequence at once (padded with a freeze mask), which is the
/// CPU-friendly equivalent of the paper's per-segment recurrence.

namespace rntraj {

/// Road-representation variants (Fig. 7(a) compares GridGNN against plain
/// GCN / GIN / GAT over segment-id embeddings only).
enum class RoadEncoderKind { kGridGnn, kGat, kGcn, kGin };

/// GridGNN hyper-parameters.
struct GridGnnConfig {
  int dim = 32;             ///< Hidden size d.
  int gnn_layers = 2;       ///< M (paper: 2).
  int heads = 4;            ///< GAT attention heads (paper: 8 at d=512).
  RoadEncoderKind kind = RoadEncoderKind::kGridGnn;
};

/// Learns X_road; recomputed every optimiser step (gradients flow into the
/// grid and segment embedding tables).
class GridGnn : public Module {
 public:
  GridGnn(const GridGnnConfig& config, const RoadNetwork* rn,
          const GridMapping* grid);

  /// (|V|, d) road-network representation.
  Tensor Forward() const;

  const GridGnnConfig& config() const { return cfg_; }

 private:
  Tensor GridSequenceEncoding() const;

  GridGnnConfig cfg_;
  const RoadNetwork* rn_;
  Embedding grid_emb_;
  Embedding seg_emb_;
  GruCell grid_gru_;
  std::vector<std::unique_ptr<GatLayer>> gat_;
  std::vector<std::unique_ptr<GcnLayer>> gcn_;
  std::vector<std::unique_ptr<GinLayer>> gin_;
  Linear out_;
  CsrGraph road_graph_;
  Tensor static_features_;  ///< (|V|, 11) constant.
  /// Padded grid sequences: step -> cell index per segment, plus freeze masks.
  std::vector<std::vector<int>> step_cells_;
  std::vector<Tensor> step_masks_;  ///< (|V|, 1) constants: 1 = still active.
};

}  // namespace rntraj

#endif  // RNTRAJ_CORE_GRIDGNN_H_
