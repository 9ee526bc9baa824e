#include "src/core/gridgnn.h"

#include <algorithm>

#include "src/core/features.h"

namespace rntraj {

GridGnn::GridGnn(const GridGnnConfig& config, const RoadNetwork* rn,
                 const GridMapping* grid)
    : cfg_(config),
      rn_(rn),
      grid_emb_(grid->num_cells(), config.dim),
      seg_emb_(rn->num_segments(), config.dim),
      grid_gru_(config.dim, config.dim),
      out_(config.dim + kStaticFeatureDim, config.dim),
      road_graph_(BuildCsrGraph(
          rn->num_segments(), rn->edges(),
          config.kind == RoadEncoderKind::kGcn   ? EdgeWeights::kGcnNorm
          : config.kind == RoadEncoderKind::kGin ? EdgeWeights::kNeighbours
                                                 : EdgeWeights::kNone)) {
  RegisterChild("grid_emb", &grid_emb_);
  RegisterChild("seg_emb", &seg_emb_);
  RegisterChild("grid_gru", &grid_gru_);
  RegisterChild("out", &out_);
  for (int m = 0; m < cfg_.gnn_layers; ++m) {
    const std::string name = "gnn" + std::to_string(m);
    switch (cfg_.kind) {
      case RoadEncoderKind::kGridGnn:
      case RoadEncoderKind::kGat:
        gat_.push_back(std::make_unique<GatLayer>(cfg_.dim, cfg_.heads));
        RegisterChild(name, gat_.back().get());
        break;
      case RoadEncoderKind::kGcn:
        gcn_.push_back(std::make_unique<GcnLayer>(cfg_.dim, cfg_.dim));
        RegisterChild(name, gcn_.back().get());
        break;
      case RoadEncoderKind::kGin:
        gin_.push_back(std::make_unique<GinLayer>(cfg_.dim, cfg_.dim));
        RegisterChild(name, gin_.back().get());
        break;
    }
  }

  // Geometry-informed starting points for the embedding tables (see
  // GeometricSegmentTable / GeometricGridTable).
  seg_emb_.mutable_table().data() =
      GeometricSegmentTable(*rn, cfg_.dim).data();
  grid_emb_.mutable_table().data() =
      GeometricGridTable(*grid, cfg_.dim).data();

  // Static features (constant).
  const int n = rn->num_segments();
  std::vector<float> feats;
  feats.reserve(static_cast<size_t>(n) * kStaticFeatureDim);
  for (int i = 0; i < n; ++i) {
    const auto f = rn->StaticFeatures(i);
    feats.insert(feats.end(), f.begin(), f.end());
  }
  static_features_ = Tensor::FromVector({n, kStaticFeatureDim}, feats);

  // Padded grid sequences for the batched GRU (only used by kGridGnn).
  if (cfg_.kind == RoadEncoderKind::kGridGnn) {
    std::vector<std::vector<int>> seqs(n);
    size_t max_len = 1;
    for (int i = 0; i < n; ++i) {
      seqs[i] = grid->GridSequence(rn->segment(i).geometry);
      max_len = std::max(max_len, seqs[i].size());
    }
    step_cells_.resize(max_len);
    step_masks_.reserve(max_len);
    for (size_t step = 0; step < max_len; ++step) {
      step_cells_[step].resize(n);
      std::vector<float> mask(n);
      for (int i = 0; i < n; ++i) {
        const bool active = step < seqs[i].size();
        step_cells_[step][i] = active ? seqs[i][step] : seqs[i].back();
        mask[i] = active ? 1.0f : 0.0f;
      }
      step_masks_.push_back(Tensor::FromVector({n, 1}, mask));
    }
  }
}

Tensor GridGnn::GridSequenceEncoding() const {
  const int n = rn_->num_segments();
  Tensor state = Tensor::Zeros({n, cfg_.dim});
  for (size_t step = 0; step < step_cells_.size(); ++step) {
    Tensor g = grid_emb_.Forward(step_cells_[step]);  // (|V|, d)
    // The step mask freezes finished sequences at their final state.
    state = grid_gru_.Forward(g, state, step_masks_[step]);
  }
  return state;
}

Tensor GridGnn::Forward() const {
  Tensor h;
  if (cfg_.kind == RoadEncoderKind::kGridGnn) {
    // Eq. (2): r0 = ReLU(s_phi + sigma_road).
    h = Relu(Add(GridSequenceEncoding(), seg_emb_.table()));
  } else {
    h = seg_emb_.table();  // ablations: id embeddings only
  }
  for (int m = 0; m < cfg_.gnn_layers; ++m) {
    switch (cfg_.kind) {
      case RoadEncoderKind::kGridGnn:
      case RoadEncoderKind::kGat:
        h = gat_[m]->Forward(h, road_graph_);
        break;
      case RoadEncoderKind::kGcn:
        h = gcn_[m]->Forward(h, road_graph_);
        break;
      case RoadEncoderKind::kGin:
        h = gin_[m]->Forward(h, road_graph_);
        break;
    }
  }
  return out_.Forward(ConcatCols({h, static_features_}));
}

}  // namespace rntraj
