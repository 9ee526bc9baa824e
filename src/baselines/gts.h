#ifndef RNTRAJ_BASELINES_GTS_H_
#define RNTRAJ_BASELINES_GTS_H_

#include <memory>
#include <vector>

#include "src/baselines/encdec_base.h"
#include "src/nn/graph.h"
#include "src/nn/rnn.h"

/// \file gts.h
/// GTS [10] + Decoder: graph-based trajectory similarity learning adapted to
/// recovery exactly as the paper does (§VI-A4): road-network "POIs" get GNN
/// embeddings over the network graph; each GPS point is represented by the
/// embedding of its nearest POI (here: nearest segment, the edge-as-node
/// equivalent), followed by a GRU.

namespace rntraj {

/// GTS baseline.
class GtsModel : public EncoderDecoderModel {
 public:
  GtsModel(const BaselineConfig& config, const ModelContext& ctx,
           int gnn_layers = 2);

  /// GNN embeddings are batch-shared like RNTrajRec's road representation.
  void BeginBatch() override;
  void BeginInference() override;

 protected:
  Encoded Encode(const TrajectorySample& sample) override;

 private:
  Embedding seg_emb_;
  std::vector<std::unique_ptr<GcnLayer>> gcn_;
  CsrGraph road_graph_;
  Linear in_proj_;
  Gru gru_;
  Tensor node_repr_;  ///< (|V|, d), refreshed per batch.
};

}  // namespace rntraj

#endif  // RNTRAJ_BASELINES_GTS_H_
