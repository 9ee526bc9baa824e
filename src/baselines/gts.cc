#include "src/baselines/gts.h"

#include "src/core/features.h"

namespace rntraj {

GtsModel::GtsModel(const BaselineConfig& config, const ModelContext& ctx,
                   int gnn_layers)
    : EncoderDecoderModel("GTS+Decoder", config, ctx),
      seg_emb_(ctx.rn->num_segments(), cfg_.dim),
      road_graph_(BuildCsrGraph(ctx.rn->num_segments(), ctx.rn->edges(),
                               EdgeWeights::kGcnNorm)),
      in_proj_(cfg_.dim + 1, cfg_.dim),
      gru_(cfg_.dim, cfg_.dim) {
  RegisterChild("seg_emb", &seg_emb_);
  RegisterChild("in_proj", &in_proj_);
  RegisterChild("gru", &gru_);
  for (int i = 0; i < gnn_layers; ++i) {
    gcn_.push_back(std::make_unique<GcnLayer>(cfg_.dim, cfg_.dim));
    RegisterChild("gcn" + std::to_string(i), gcn_.back().get());
  }
  seg_emb_.mutable_table().data() =
      GeometricSegmentTable(*ctx.rn, cfg_.dim).data();
}

void GtsModel::BeginBatch() {
  Tensor h = seg_emb_.table();
  for (auto& layer : gcn_) h = layer->Forward(h, road_graph_);
  node_repr_ = h;
}

void GtsModel::BeginInference() {
  NoGradGuard guard;
  BeginBatch();
}

EncoderDecoderModel::Encoded GtsModel::Encode(const TrajectorySample& sample) {
  RNTRAJ_CHECK_MSG(node_repr_.defined(), "GTS: BeginBatch() not called");
  // Nearest-POI lookup per GPS point.
  std::vector<int> nearest;
  nearest.reserve(sample.input.size());
  for (const auto& p : sample.input.points) {
    nearest.push_back(
        SegmentsWithinRadius(*ctx_.rn, *ctx_.rtree, p.pos, 100.0)[0].seg_id);
  }
  Tensor g = GatherRows(node_repr_, nearest);
  Tensor x = in_proj_.Forward(ConcatCols({g, InputTimeColumn(sample)}));
  Tensor outputs = gru_.Forward(x).outputs;
  return {outputs, MakeTrajH(outputs, sample)};
}

}  // namespace rntraj
