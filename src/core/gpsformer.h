#ifndef RNTRAJ_CORE_GPSFORMER_H_
#define RNTRAJ_CORE_GPSFORMER_H_

#include <memory>
#include <vector>

#include "src/core/grl.h"
#include "src/nn/transformer.h"

/// \file gpsformer.h
/// GPSFormer (paper §IV-F): N stacked GPSFormerBlocks, each a transformer
/// encoder layer (temporal) followed by a Graph Refinement Layer (spatial)
/// and a graph mean-pooling readout (Eq. (13)). Position embeddings are added
/// once before the first block (Eq. (12)).

namespace rntraj {

/// GPSFormer hyper-parameters.
struct GpsFormerConfig {
  int dim = 32;
  int blocks = 2;   ///< N (paper: 2).
  int heads = 4;    ///< Attention heads (paper: 8 at d=512).
  int ffn_dim = 64; ///< Transformer feed-forward width.
  GrlConfig grl;
  bool use_grl = true;  ///< Table V "w/o GRL": plain transformer stack.
};

/// The spatial-temporal trajectory encoder.
class GpsFormer : public Module {
 public:
  explicit GpsFormer(const GpsFormerConfig& config);

  struct BatchOutput {
    Tensor h;  ///< (sum of lengths, d) flat per-point representations H^N.
    Tensor z;  ///< (sum of sub-graph sizes, d) flat final node features Z^N.
  };

  /// One encoder pass for a whole batch of trajectories (a single
  /// trajectory is a batch of one). `h0` stacks every sample's initial point
  /// features back to back ((sum(lengths), d)); `z0` holds all sub-graph
  /// node features across the batch in the same flat order, and `graphs`
  /// holds those sub-graphs as disjoint components (component g = sample s
  /// timestep t in flat order).
  /// Internally the temporal half runs on a PaddedBatch ((B*max_len, d)
  /// blocks) so attention/FFN/LayerNorm see fat GEMMs; the GRL half runs on
  /// the flat layout (batched fusion GEMMs, ONE GAT pass over the batch
  /// graph, per-sample GraphNorm). Batch-composition
  /// invariant: a sample's outputs do not depend on which other samples
  /// share the batch, up to float rounding (~1e-6: the blocked GEMM's
  /// row-peel kernels may contract FMAs differently at different batch
  /// heights).
  BatchOutput ForwardBatch(const Tensor& h0, const std::vector<int>& lengths,
                           const Tensor& z0, const CsrGraph& graphs);

  const GpsFormerConfig& config() const { return cfg_; }

 private:
  GpsFormerConfig cfg_;
  std::vector<std::unique_ptr<TransformerEncoderLayer>> encoder_;
  std::vector<std::unique_ptr<GraphRefinementLayer>> grl_;
};

}  // namespace rntraj

#endif  // RNTRAJ_CORE_GPSFORMER_H_
