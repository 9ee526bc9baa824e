#ifndef RNTRAJ_NN_ATTENTION_H_
#define RNTRAJ_NN_ATTENTION_H_

#include <cmath>
#include <vector>

#include "src/nn/linear.h"
#include "src/nn/module.h"
#include "src/tensor/fusion.h"
#include "src/tensor/ops.h"
#include "src/tensor/padded_batch.h"

/// \file attention.h
/// Scaled dot-product multi-head self-attention (paper Eq. (10)) and the
/// additive (Bahdanau) attention used by the decoder (paper Eq. (14)).

namespace rntraj {

/// Multi-head self-attention over a sequence of rows.
class MultiHeadSelfAttention : public Module {
 public:
  MultiHeadSelfAttention(int model_dim, int num_heads)
      : d_(model_dim),
        heads_(num_heads),
        dh_(model_dim / num_heads),
        wq_(model_dim, model_dim, /*bias=*/false),
        wk_(model_dim, model_dim, /*bias=*/false),
        wv_(model_dim, model_dim, /*bias=*/false),
        wo_(model_dim, model_dim, /*bias=*/false) {
    RNTRAJ_CHECK_MSG(model_dim % num_heads == 0,
                     "model_dim " << model_dim << " % heads " << num_heads);
    RegisterChild("wq", &wq_);
    RegisterChild("wk", &wk_);
    RegisterChild("wv", &wv_);
    RegisterChild("wo", &wo_);
  }

  /// Padded-batch self-attention: one pass for all samples (a single
  /// sequence is a batch of one). The q/k/v/o projections run as single fat
  /// GEMMs over the (B*pad_len, d) storage; scores are block-diagonal
  /// (BatchedMatmulTransB keeps each sample's queries on its own keys) and
  /// the length-masked softmax restricts every row to the sample's valid
  /// keys, zeroing padding query rows. Batch-composition invariant: a
  /// sample's valid rows do not depend on which other samples share the
  /// batch, up to float rounding (~1e-6; the blocked GEMM's row-peel kernels
  /// may contract FMAs differently at different heights).
  Tensor ForwardBatched(const PaddedBatch& x) const {
    const int batch = x.batch();
    const std::vector<int> row_valid = x.RowValidCounts();
    Tensor q = wq_.Forward(x.data);
    Tensor k = wk_.Forward(x.data);
    Tensor v = wv_.Forward(x.data);
    const float scale = 1.0f / std::sqrt(static_cast<float>(dh_));
    std::vector<Tensor> heads;
    heads.reserve(heads_);
    for (int h = 0; h < heads_; ++h) {
      Tensor qh = SliceCols(q, h * dh_, dh_);
      Tensor kh = SliceCols(k, h * dh_, dh_);
      Tensor vh = SliceCols(v, h * dh_, dh_);
      Tensor scores = BatchedMatmulTransB(qh, kh, batch);
      Tensor attn = fusion::ScaleLengthMaskedSoftmax(scores, scale, row_valid);
      heads.push_back(BatchedMatmul(attn, vh, batch));  // (B*pad, dh)
    }
    return wo_.Forward(ConcatCols(heads));
  }

 private:
  int d_;
  int heads_;
  int dh_;
  Linear wq_;
  Linear wk_;
  Linear wv_;
  Linear wo_;
};

/// Additive attention: score_i = v^T tanh(W_g q + W_h k_i) (paper Eq. (14)).
class AdditiveAttention : public Module {
 public:
  explicit AdditiveAttention(int dim) : dim_(dim) {
    wg_ = RegisterParameter("wg", XavierUniform(dim, dim));
    wh_ = RegisterParameter("wh", XavierUniform(dim, dim));
    v_ = RegisterParameter("v", XavierUniform(dim, 1));
  }

  struct Output {
    Tensor weights;  ///< (1, l) attention distribution.
    Tensor context; ///< (1, d) weighted sum of keys.
  };

  /// Key-side projection shared by every query against the same keys;
  /// precompute once per decoded trajectory (the decoder queries the same
  /// encoder outputs at every step).
  struct CachedKeys {
    Tensor keys;  ///< (l, d).
    Tensor kw;    ///< (l, d) = keys W_h.
  };

  CachedKeys Precompute(const Tensor& keys) const {
    return {keys, Matmul(keys, wh_)};
  }

  /// query: (1, d) against precomputed keys.
  Output Forward(const Tensor& query, const CachedKeys& cached) const {
    const int l = cached.keys.dim(0);
    Tensor qw = Matmul(query, wg_);                       // (1, d)
    // Row broadcast of the query over every key row (no (l, d) ExpandRows
    // temporary on the per-decoder-step path).
    Tensor t = Tanh(Add(cached.kw, qw));
    Tensor scores = Reshape(Matmul(t, v_), {1, l});       // (1, l)
    Tensor alpha = SoftmaxRows(scores);
    return {alpha, Matmul(alpha, cached.keys)};
  }

  /// query: (1, d); keys: (l, d).
  Output Forward(const Tensor& query, const Tensor& keys) const {
    return Forward(query, Precompute(keys));
  }

  /// Key-side projection for a padded batch of key blocks: one fat
  /// (B*pad_len, d) GEMM shared by every decoding step of every lane
  /// (padding key rows are zero and W_h has no bias, so they stay zero).
  struct CachedKeysBatch {
    Tensor keys;               ///< (B*pad_len, d), padding rows zero.
    Tensor kw;                 ///< (B*pad_len, d) = keys W_h.
    std::vector<int> lengths;  ///< Valid key rows per block.
    int pad_len = 0;           ///< Block height.
  };

  CachedKeysBatch PrecomputeBatch(const PaddedBatch& keys) const {
    return {keys.data, Matmul(keys.data, wh_), keys.lengths, keys.pad_len};
  }

  struct BatchOutput {
    Tensor weights;  ///< (n, pad_len); row i zero beyond lengths[i].
    Tensor context;  ///< (n, d) weighted key sums.
  };

  /// One additive-attention pass for n queries against the first n key
  /// blocks: queries (n, d), one per leading block. n may be smaller than
  /// the cached batch — the early-finish lane compaction of the batched
  /// decoder keeps active lanes as a prefix and shrinks n as lanes finish.
  /// Batch-composition invariant: a lane's row does not depend on the other
  /// lanes, up to float rounding (fat GEMMs at different heights; the adds,
  /// tanh and softmax prefix are bit-identical — see
  /// LengthMaskedSoftmaxRows).
  BatchOutput ForwardBatched(const Tensor& queries,
                             const CachedKeysBatch& cached) const {
    const int n = queries.dim(0);
    const int pad = cached.pad_len;
    RNTRAJ_CHECK_MSG(n <= static_cast<int>(cached.lengths.size()),
                     "additive_attention_batched: " << n << " queries vs "
                         << cached.lengths.size() << " key blocks");
    Tensor kw = cached.kw;
    Tensor keys = cached.keys;
    if (n * pad < kw.dim(0)) {
      kw = SliceRows(kw, 0, n * pad);
      keys = SliceRows(keys, 0, n * pad);
    }
    Tensor qw = Matmul(queries, wg_);                      // (n, d)
    Tensor t = Tanh(AddBlockBroadcast(kw, qw, pad));       // (n*pad, d)
    Tensor scores = Reshape(Matmul(t, v_), {n, pad});      // (n, pad)
    std::vector<int> valid(cached.lengths.begin(), cached.lengths.begin() + n);
    Tensor alpha = LengthMaskedSoftmaxRows(scores, valid);
    // Padding keys are zero and their weights are zero, so the block product
    // over the full padded height reproduces the valid-prefix product.
    return {alpha, BatchedMatmul(alpha, keys, n)};
  }

 private:
  int dim_;
  Tensor wg_;
  Tensor wh_;
  Tensor v_;
};

}  // namespace rntraj

#endif  // RNTRAJ_NN_ATTENTION_H_
