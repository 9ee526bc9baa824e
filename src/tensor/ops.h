#ifndef RNTRAJ_TENSOR_OPS_H_
#define RNTRAJ_TENSOR_OPS_H_

#include <memory>
#include <vector>

#include "src/common/random.h"
#include "src/tensor/tensor.h"

/// \file ops.h
/// Differentiable tensor operations (reverse-mode). Every op validates shapes
/// with RNTRAJ_CHECK, computes its forward result, and (when grad mode is on
/// and any input requires grad) records a GradNode with a handwritten
/// backward closure. All backwards are verified against numerical derivatives
/// by tests/tensor_gradcheck_test.cc.
///
/// Broadcasting for binary ops (Add/Sub/Mul/Div) supports the four patterns
/// used by the models:
///   same-shape; scalar b (size 1); row vector b of shape (d) or (1,d) against
///   a of shape (n,d); column b of shape (n,1) against a of shape (n,d).

namespace rntraj {

// ----- Binary elementwise (with broadcasting; see file comment) -------------

Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);
Tensor Div(const Tensor& a, const Tensor& b);

/// a + s elementwise.
Tensor AddScalar(const Tensor& a, float s);
/// a * s elementwise.
Tensor MulScalar(const Tensor& a, float s);
/// -a.
Tensor Neg(const Tensor& a);

// ----- Linear algebra --------------------------------------------------------

/// (n,k) x (k,m) -> (n,m). Rank-1 `a` of shape (k) is treated as (1,k) and the
/// result squeezed back to rank 1.
Tensor Matmul(const Tensor& a, const Tensor& b);

/// a * b^T: (n,k) x (m,k) -> (n,m), without materialising the transpose
/// (attention scores Q K^T).
Tensor MatmulTransB(const Tensor& a, const Tensor& b);

/// Rank-2 transpose.
Tensor Transpose(const Tensor& a);

// ----- Batched linear algebra (padded-batch forward path) --------------------
//
// A padded batch stores B samples as one rank-2 tensor of B equal-height row
// blocks (see padded_batch.h). The batched products below run one packed GEMM
// per block over the leading dim, so per-sample attention matrices come out of
// the same blocked kernels as the fat (sum-of-lengths, d) projections.

/// Block-diagonal product: a is (batch*m, k), b is (batch*k, n), both read as
/// `batch` stacked blocks; out(i) = a(i) * b(i), stacked to (batch*m, n).
Tensor BatchedMatmul(const Tensor& a, const Tensor& b, int batch);

/// Block-diagonal a * b^T: a is (batch*m, k), b is (batch*n, k);
/// out(i) = a(i) * b(i)^T, stacked to (batch*m, n). The padded-batch
/// attention-score kernel (one Q K^T per sample, no cross-sample scores).
Tensor BatchedMatmulTransB(const Tensor& a, const Tensor& b, int batch);

// ----- Sparse graph ops (the graph layers of nn/graph.h) --------------------
//
// A graph's in-edges in compressed sparse rows: the edges into node i are
// e in [offsets[i], offsets[i+1]), edge e coming from node src[e]. Per-edge
// tensors are rank-1 of length num_edges in that order. The index is built
// and validated by nn/graph.h's CsrGraphBuilder; the ops trust it. It is
// shared so that backward closures keep it alive after the graph is gone.

struct CsrIndex {
  std::vector<int> offsets{0};  ///< num_nodes + 1 row starts.
  std::vector<int> src;         ///< Source node of every edge, row by row.
  int num_nodes() const { return static_cast<int>(offsets.size()) - 1; }
  int num_edges() const { return static_cast<int>(src.size()); }
};
using CsrIndexPtr = std::shared_ptr<const CsrIndex>;

/// Per-edge outer sum: out[e] = dst_term[i] + src_term[src[e]] for every edge
/// e into node i. Both terms hold one value per node (rank-1, (n,1) or
/// (1,n)). The GAT score of paper Eq. (3).
Tensor EdgeScores(const Tensor& dst_term, const Tensor& src_term,
                  const CsrIndexPtr& csr);

/// Softmax of per-edge values over each node's in-edges.
Tensor EdgeSoftmax(const Tensor& scores, const CsrIndexPtr& csr);

/// Weighted sparse aggregate: out[i, :] = sum over the edges e into i of
/// values[e] * h[src[e], :], shape (num_nodes, d). Gradients flow into both
/// the edge values and h.
Tensor SpMM(const Tensor& values, const Tensor& h, const CsrIndexPtr& csr);

// ----- Fused broadcast ops (attention hot path) ------------------------------

/// Block row broadcast: `a` is (batch*block, d) read as `batch` stacked
/// blocks of height `block`, `rows` is (batch, d);
/// out[i*block + r, :] = a[i*block + r, :] + rows[i, :]. The batched-decoder
/// attention broadcast — each lane's query row is added to every row of its
/// padded key block — without materialising a (batch*block, d) expansion of
/// `rows` (the batched counterpart of Add's row broadcast).
Tensor AddBlockBroadcast(const Tensor& a, const Tensor& rows, int block);

/// Length-masked row softmax: row i is the softmax of its first valid[i]
/// entries (bit-identical to SoftmaxRows over that prefix), with the
/// remaining entries — and entire rows with valid[i] == 0 — set to zero.
/// The padded-batch attention mask: valid keys form a prefix of each padded
/// row, and padding query rows are zeroed outright.
Tensor LengthMaskedSoftmaxRows(const Tensor& a, const std::vector<int>& valid);

// ----- Shape / indexing ------------------------------------------------------

/// Vertically stacks rank-2 tensors with equal column counts; rank-1 inputs of
/// size d are treated as a single (1,d) row.
Tensor ConcatRows(const std::vector<Tensor>& parts);

/// Horizontally concatenates rank-2 tensors with equal row counts.
Tensor ConcatCols(const std::vector<Tensor>& parts);

/// Concatenates rank-1 tensors into one rank-1 tensor.
Tensor ConcatVec(const std::vector<Tensor>& parts);

/// Rows [start, start+len) of a rank-2 tensor.
Tensor SliceRows(const Tensor& a, int start, int len);

/// Columns [start, start+len) of a rank-2 tensor.
Tensor SliceCols(const Tensor& a, int start, int len);

/// Row-gather: out[i, :] = a[idx[i], :]. Duplicate indices accumulate gradient
/// (this is the embedding-lookup primitive).
Tensor GatherRows(const Tensor& a, const std::vector<int>& idx);

/// Element pick per row: out[i] = a[i, idx[i]]; rank-1 output of size n.
Tensor GatherElems(const Tensor& a, const std::vector<int>& idx);

/// Same data viewed under a new shape (sizes must match); data is copied.
Tensor Reshape(const Tensor& a, const std::vector<int>& shape);

/// Repeats a single row ((1,d) or rank-1 (d)) n times into an (n,d) tensor.
Tensor ExpandRows(const Tensor& a, int n);

/// Ragged-to-padded: `a` is (sum(sizes), d) read as consecutive row segments;
/// segment i lands at rows [i*pad_to, i*pad_to + sizes[i]) of the
/// (sizes.size()*pad_to, d) output, the remainder zero-filled. Requires
/// sizes[i] <= pad_to. Inverse of UnpadRows.
Tensor PadRows(const Tensor& a, const std::vector<int>& sizes, int pad_to);

/// Padded-to-ragged: drops the padding rows of a (sizes.size()*pad_to, d)
/// tensor, packing the valid prefixes back to (sum(sizes), d).
Tensor UnpadRows(const Tensor& a, const std::vector<int>& sizes, int pad_to);

// ----- Reductions ------------------------------------------------------------

/// Sum of all elements -> scalar.
Tensor SumAll(const Tensor& a);
/// Mean of all elements -> scalar.
Tensor MeanAll(const Tensor& a);
/// Per-row mean of a rank-2 tensor -> (n,1).
Tensor RowMean(const Tensor& a);
/// Per-column mean of a rank-2 tensor -> rank-1 (d).
Tensor ColMean(const Tensor& a);

/// Masked mean-pool over consecutive row segments: `a` is (sum(sizes), d);
/// out[i, :] = mean of segment i's rows (bit-identical to ColMean of the
/// segment). The batched graph readout / trajectory pooling primitive —
/// padding never enters because the caller passes true lengths as sizes.
Tensor SegmentMeanRows(const Tensor& a, const std::vector<int>& sizes);

// ----- Nonlinearities ---------------------------------------------------------

Tensor Relu(const Tensor& a);
Tensor LeakyRelu(const Tensor& a, float negative_slope = 0.2f);
Tensor Sigmoid(const Tensor& a);
Tensor Tanh(const Tensor& a);
Tensor Sqrt(const Tensor& a);
Tensor Square(const Tensor& a);

/// Row-wise softmax of a rank-2 tensor (additive masks should be applied to
/// the logits by the caller before this op).
Tensor SoftmaxRows(const Tensor& a);

/// Row-wise log-softmax of a rank-2 tensor.
Tensor LogSoftmaxRows(const Tensor& a);

}  // namespace rntraj

#endif  // RNTRAJ_TENSOR_OPS_H_
