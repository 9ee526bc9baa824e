#ifndef RNTRAJ_NN_LINEAR_H_
#define RNTRAJ_NN_LINEAR_H_

#include "src/nn/init.h"
#include "src/nn/module.h"
#include "src/tensor/fusion.h"
#include "src/tensor/ops.h"

/// \file linear.h
/// Affine layer and embedding table.

namespace rntraj {

/// y = x W + b (bias optional). Accepts (n, in) or rank-1 (in) inputs.
class Linear : public Module {
 public:
  Linear(int in_features, int out_features, bool bias = true)
      : in_(in_features), out_(out_features), has_bias_(bias) {
    weight_ = RegisterParameter("weight", XavierUniform(in_features, out_features));
    if (bias) {
      bias_ = RegisterParameter("bias", Tensor::Zeros({out_features}));
    }
  }

  Tensor Forward(const Tensor& x) const {
    Tensor y = Matmul(x, weight_);
    if (has_bias_) y = Add(y, bias_);
    return y;
  }

  /// act(x W + b): the GEMM followed by one fused bias+activation kernel.
  Tensor ForwardAct(const Tensor& x, fusion::Act act,
                    float leaky_slope = 0.2f) const {
    return fusion::BiasAct(Matmul(x, weight_), has_bias_ ? bias_ : Tensor(),
                           act, leaky_slope);
  }

  int in_features() const { return in_; }
  int out_features() const { return out_; }

  /// Handle to the weight matrix (in, out); shares storage with the layer,
  /// letting callers apply custom initialisation.
  Tensor weight() const { return weight_; }

  /// The bias row (out); empty when the layer has no bias.
  const Tensor& bias() const { return bias_; }

 private:
  int in_;
  int out_;
  bool has_bias_;
  Tensor weight_;
  Tensor bias_;
};

/// Learned lookup table: ids -> rows of an (num_embeddings, dim) matrix.
class Embedding : public Module {
 public:
  Embedding(int num_embeddings, int dim)
      : num_(num_embeddings), dim_(dim) {
    table_ = RegisterParameter("table", EmbeddingInit(num_embeddings, dim));
  }

  /// Rows for a batch of ids -> (ids.size(), dim).
  Tensor Forward(const std::vector<int>& ids) const {
    return GatherRows(table_, ids);
  }

  /// Single id -> rank-1 (dim) vector.
  Tensor ForwardOne(int id) const {
    return Reshape(GatherRows(table_, {id}), {dim_});
  }

  /// The full table (used when every row participates, e.g. GridGNN).
  const Tensor& table() const { return table_; }

  /// Handle to the table; shares storage with the layer, letting callers
  /// apply custom initialisation.
  Tensor mutable_table() { return table_; }

  int num_embeddings() const { return num_; }
  int dim() const { return dim_; }

 private:
  int num_;
  int dim_;
  Tensor table_;
};

}  // namespace rntraj

#endif  // RNTRAJ_NN_LINEAR_H_
