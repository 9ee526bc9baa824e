#ifndef RNTRAJ_NN_NORM_H_
#define RNTRAJ_NN_NORM_H_

#include <mutex>
#include <vector>

#include "src/nn/module.h"
#include "src/tensor/fusion.h"
#include "src/tensor/ops.h"

/// \file norm.h
/// LayerNorm (transformer encoder) and GraphNorm (paper Eq. (8)-(9)), the
/// batch-style normalisation for graph features with temporal dependency.

namespace rntraj {

/// Per-row layer normalisation with learned scale/shift.
class LayerNorm : public Module {
 public:
  explicit LayerNorm(int dim, float eps = 1e-5f) : dim_(dim), eps_(eps) {
    gamma_ = RegisterParameter("gamma", Tensor::Full({dim}, 1.0f));
    beta_ = RegisterParameter("beta", Tensor::Zeros({dim}));
  }

  /// x: (n, d) -> (n, d), each row standardised.
  Tensor Forward(const Tensor& x) const {
    Tensor mu = RowMean(x);                                  // (n,1)
    Tensor xc = Sub(x, mu);                                  // col broadcast
    Tensor var = RowMean(Square(xc));                        // (n,1)
    Tensor y = Div(xc, Sqrt(AddScalar(var, eps_)));          // col broadcast
    return Add(Mul(y, gamma_), beta_);                       // row broadcast
  }

  /// Mul(LayerNorm(a + b), row_mask): the padded-batch post-norm residual
  /// sub-layer as one fused kernel. LayerNorm is row-local, so padding never
  /// contaminates valid rows; `row_mask` ((n,1), 1 for valid rows, 0 for
  /// padding) re-zeroes the padding rows so the all-padding-rows-are-zero
  /// invariant survives the affine shift beta.
  Tensor ForwardResidual(const Tensor& a, const Tensor& b,
                         const Tensor& row_mask) const {
    return fusion::ResidualLayerNorm(a, b, gamma_, beta_, eps_, row_mask);
  }

 private:
  int dim_;
  float eps_;
  Tensor gamma_;
  Tensor beta_;
};

/// GraphNorm over the node features of a batch of sub-graphs (paper Eq. (9)).
///
/// The mean is computed per-dimension over the *graph-pooled* features M
/// (Eq. (8)) while the variance is computed over all node features — exactly
/// as written in the paper. Statistics cover all sub-graphs of the mini-batch
/// (here: all timesteps of one trajectory, the b=1 degenerate case documented
/// in DESIGN.md). Running estimates are kept for inference.
class GraphNorm : public Module {
 public:
  explicit GraphNorm(int dim, float eps = 1e-5f, float momentum = 0.1f)
      : dim_(dim), eps_(eps), momentum_(momentum) {
    gamma_ = RegisterParameter("gamma", Tensor::Full({dim}, 1.0f));
    beta_ = RegisterParameter("beta", Tensor::Zeros({dim}));
    // Running statistics are persistent buffers: snapshots must carry them
    // or a restored model would normalise eval-mode forwards differently.
    running_mean_ = RegisterBuffer("running_mean", Tensor::Zeros({dim}));
    running_var_ = RegisterBuffer("running_var", Tensor::Full({dim}, 1.0f));
  }

  /// nodes: (sum of sub-graph sizes, d); sizes: node count per sub-graph.
  Tensor Forward(const Tensor& nodes, const std::vector<int>& sizes) {
    Tensor mu;
    Tensor var;
    if (training()) {
      // Eq. (8): per-graph mean pooling to M (num_graphs, d).
      Tensor m = SegmentMeanRows(nodes, sizes);
      mu = ColMean(m);                                       // (d)
      var = ColMean(Square(Sub(nodes, mu)));                 // (d)
      UpdateRunning(mu, var);
    } else {
      mu = running_mean_;
      var = running_var_;
    }
    Tensor norm = Div(Sub(nodes, mu), Sqrt(AddScalar(var, eps_)));
    // Affine tail as one fused scale+shift kernel.
    return fusion::ScaleShiftRows(norm, gamma_, beta_);
  }

 private:
  void UpdateRunning(const Tensor& mu, const Tensor& var) {
    // Concurrent training-mode forwards fold their batch statistics into the
    // shared running estimates; the lock makes the read-modify-write
    // race-free. The fold order across threads is scheduler-dependent and an
    // EMA is non-commutative, so concurrent training yields running
    // (eval-mode) stats that can differ run-to-run at reordering magnitude —
    // training-mode outputs, which use batch statistics, are unaffected.
    std::lock_guard<std::mutex> lock(running_mu_);
    for (int j = 0; j < dim_; ++j) {
      running_mean_.data()[j] =
          (1.0f - momentum_) * running_mean_.data()[j] + momentum_ * mu.at(j);
      running_var_.data()[j] =
          (1.0f - momentum_) * running_var_.data()[j] + momentum_ * var.at(j);
    }
  }

  int dim_;
  float eps_;
  float momentum_;
  Tensor gamma_;
  Tensor beta_;
  Tensor running_mean_;
  Tensor running_var_;
  std::mutex running_mu_;
};

}  // namespace rntraj

#endif  // RNTRAJ_NN_NORM_H_
