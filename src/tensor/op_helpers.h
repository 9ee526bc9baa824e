#ifndef RNTRAJ_TENSOR_OP_HELPERS_H_
#define RNTRAJ_TENSOR_OP_HELPERS_H_

#include <memory>
#include <utility>
#include <vector>

#include "src/tensor/tensor.h"

/// \file op_helpers.h
/// Internal helpers shared by the op implementation files. Not part of the
/// public API.

namespace rntraj {
namespace internal {

/// Allocates an output impl of the given shape (data zero-filled). Storage
/// comes from the thread's buffer pool inside a BufferPoolScope.
inline std::shared_ptr<TensorImpl> NewImpl(const std::vector<int>& shape) {
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = shape;
  impl->data = AcquireZeroedBuffer(static_cast<size_t>(ShapeSize(shape)));
  return impl;
}

/// Like NewImpl but with unspecified data contents: for ops that overwrite
/// every output element, skipping the zero-fill pass.
inline std::shared_ptr<TensorImpl> NewImplUninit(const std::vector<int>& shape) {
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = shape;
  impl->data = AcquireBuffer(static_cast<size_t>(ShapeSize(shape)));
  return impl;
}

/// True when at least one input wants gradient.
inline bool AnyRequiresGrad(
    const std::vector<std::shared_ptr<TensorImpl>>& inputs) {
  for (const auto& t : inputs) {
    if (t->requires_grad) return true;
  }
  return false;
}

/// Finalises an op: marks `out` as requiring grad and attaches a GradNode when
/// grad mode is enabled and any input requires grad. `backward` may assume
/// `out.grad` is populated when invoked.
inline void AttachNode(const char* op, const std::shared_ptr<TensorImpl>& out,
                       std::vector<std::shared_ptr<TensorImpl>> inputs,
                       std::function<void(const TensorImpl&)> backward) {
  if (!GradModeEnabled() || !AnyRequiresGrad(inputs)) return;
  out->requires_grad = true;
  auto node = std::make_shared<GradNode>();
  node->op = op;
  node->inputs = std::move(inputs);
  node->out = out;
  node->backward = std::move(backward);
  out->node = std::move(node);
}

/// acc + x * y, rounded once where the target has FMA. At -O2 and above GCC
/// usually contracts `acc += x * y` into an FMA, but not always (some tunings
/// keep tight register accumulation chains unfused), so kernels whose
/// rounding must not depend on how a loop is written spell it out here.
inline float MulAdd(float x, float y, float acc) {
#ifdef __FP_FAST_FMAF
  return __builtin_fmaf(x, y, acc);
#else
  return acc + x * y;
#endif
}

/// Broadcast pattern for binary elementwise ops.
enum class Broadcast { kSame, kScalar, kRow, kCol };

/// Classifies the (a, b) shape pair; aborts on unsupported combinations.
Broadcast ClassifyBroadcast(const TensorImpl& a, const TensorImpl& b,
                            const char* op);

}  // namespace internal
}  // namespace rntraj

#endif  // RNTRAJ_TENSOR_OP_HELPERS_H_
