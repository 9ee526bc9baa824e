#include "src/core/gpsformer.h"

#include "src/obs/stage_profiler.h"

namespace rntraj {

GpsFormer::GpsFormer(const GpsFormerConfig& config) : cfg_(config) {
  cfg_.grl.dim = cfg_.dim;
  for (int n = 0; n < cfg_.blocks; ++n) {
    encoder_.push_back(std::make_unique<TransformerEncoderLayer>(
        cfg_.dim, cfg_.heads, cfg_.ffn_dim));
    RegisterChild("enc" + std::to_string(n), encoder_.back().get());
    if (cfg_.use_grl) {
      grl_.push_back(std::make_unique<GraphRefinementLayer>(cfg_.grl));
      RegisterChild("grl" + std::to_string(n), grl_.back().get());
    }
  }
}

GpsFormer::BatchOutput GpsFormer::ForwardBatch(
    const Tensor& h0, const std::vector<int>& lengths, const Tensor& z0,
    const CsrGraph& graphs) {
  // Eq. (12): position embeddings restart at every sample boundary.
  Tensor h = Add(h0, StackedPositionEncoding(lengths, cfg_.dim));
  Tensor z = z0;
  PaddedBatch pb = PaddedBatch::FromFlat(h, lengths);
  const Tensor row_mask = pb.RowMask();
  for (int n = 0; n < cfg_.blocks; ++n) {
    {
      obs::ScopedStage stage(obs::Stage::kTransformer);
      pb = encoder_[n]->ForwardBatched(pb, row_mask);
    }
    if (!cfg_.use_grl) continue;  // Table V "w/o GRL"
    z = grl_[n]->ForwardBatch(pb.Flat(), z, graphs, lengths);
    // Eq. (13): H^l = GraphReadout(Z^l), one masked mean-pool per sub-graph.
    if (n + 1 < cfg_.blocks) {
      pb = PaddedBatch::FromFlat(SegmentMeanRows(z, graphs.sizes), lengths);
    }
  }
  Tensor h_out = cfg_.use_grl ? SegmentMeanRows(z, graphs.sizes) : pb.Flat();
  return {std::move(h_out), std::move(z)};
}

}  // namespace rntraj
