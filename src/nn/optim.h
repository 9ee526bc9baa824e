#ifndef RNTRAJ_NN_OPTIM_H_
#define RNTRAJ_NN_OPTIM_H_

#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/tensor/tensor.h"

/// \file optim.h
/// Adam, the optimiser the paper trains every learned method with, and
/// global gradient-norm clipping.

namespace rntraj {

/// Adam (Kingma & Ba) with bias correction.
///
/// The first/second-moment estimates live in two flat arenas laid out
/// exactly like the parameter sequence (one contiguous buffer each, per-
/// parameter offsets), so a checkpoint serialises Adam as (t, m-arena,
/// v-arena), three fields.
class Adam {
 public:
  /// Optimises `params` (a module's LearnableTensors(StateDict()), so the
  /// moment layout follows the state dict's registration order).
  explicit Adam(std::vector<Tensor> params, float lr = 1e-3f,
                float beta1 = 0.9f, float beta2 = 0.999f, float eps = 1e-8f)
      : params_(std::move(params)), lr_(lr), beta1_(beta1), beta2_(beta2),
        eps_(eps) {
    offsets_.reserve(params_.size());
    size_t off = 0;
    for (const auto& p : params_) {
      offsets_.push_back(off);
      off += p.data().size();
    }
    m_.assign(off, 0.0f);
    v_.assign(off, 0.0f);
  }

  /// Clears all parameter gradients.
  void ZeroGrad() {
    for (auto& p : params_) p.ZeroGrad();
  }

  /// Applies one update using the gradients currently stored on parameters.
  void Step() {
    ++t_;
    const float bc1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
    const float bc2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));
    for (size_t i = 0; i < params_.size(); ++i) {
      auto& g = params_[i].grad();
      auto& d = params_[i].data();
      float* m = m_.data() + offsets_[i];
      float* v = v_.data() + offsets_[i];
      for (size_t j = 0; j < d.size(); ++j) {
        m[j] = beta1_ * m[j] + (1.0f - beta1_) * g[j];
        v[j] = beta2_ * v[j] + (1.0f - beta2_) * g[j] * g[j];
        const float mh = m[j] / bc1;
        const float vh = v[j] / bc2;
        d[j] -= lr_ * mh / (std::sqrt(vh) + eps_);
      }
    }
  }

  /// The optimiser's whole mutable state: step counter plus the two moment
  /// arenas, aligned to the construction-time parameter layout. Checkpoints
  /// store exactly this.
  struct State {
    int64_t t = 0;
    std::vector<float> m;
    std::vector<float> v;
  };

  State ExportState() const { return {t_, m_, v_}; }

  /// Restores exported state. Rejects (returns false, no mutation) when the
  /// arenas do not match this optimiser's layout size — a checkpoint from a
  /// different architecture must not be silently misapplied.
  bool ImportState(const State& s, std::string* error = nullptr) {
    if (s.m.size() != m_.size() || s.v.size() != v_.size() || s.t < 0) {
      if (error != nullptr) {
        std::ostringstream oss;
        oss << "Adam state mismatch: got m/v of " << s.m.size() << "/"
            << s.v.size() << " floats (t=" << s.t << "), layout expects "
            << m_.size();
        *error = oss.str();
      }
      return false;
    }
    t_ = static_cast<int>(s.t);
    m_ = s.m;
    v_ = s.v;
    return true;
  }

 private:
  std::vector<Tensor> params_;
  float lr_;
  float beta1_;
  float beta2_;
  float eps_;
  int t_ = 0;
  std::vector<size_t> offsets_;
  std::vector<float> m_;
  std::vector<float> v_;
};

/// Rescales gradients so their global L2 norm is at most `max_norm`.
/// Returns the pre-clip norm (useful for divergence diagnostics).
inline double ClipGradNorm(std::vector<Tensor>& params, double max_norm) {
  double sq = 0.0;
  for (auto& p : params) {
    for (float g : p.grad()) sq += static_cast<double>(g) * g;
  }
  const double norm = std::sqrt(sq);
  if (norm > max_norm && norm > 0.0) {
    const float scale = static_cast<float>(max_norm / norm);
    for (auto& p : params) {
      for (auto& g : p.grad()) g *= scale;
    }
  }
  return norm;
}

}  // namespace rntraj

#endif  // RNTRAJ_NN_OPTIM_H_
