#ifndef RNTRAJ_NN_MODULE_H_
#define RNTRAJ_NN_MODULE_H_

#include <string>
#include <utility>
#include <vector>

#include "src/nn/state_dict.h"
#include "src/tensor/tensor.h"

/// \file module.h
/// Base class for neural-network modules: parameter/buffer registration,
/// recursive state-dict collection, train/eval mode.

namespace rntraj {

/// Base class for all learnable components.
///
/// Concrete modules own their sub-modules as data members and register them
/// (non-owning pointers) in their constructor so that `Parameters()`,
/// `StateDict()` and `SetTraining()` recurse.
class Module {
 public:
  Module() = default;
  virtual ~Module() = default;

  // Modules own parameters and register raw pointers to members; copying
  // would silently detach the registry, so forbid it.
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  /// The canonical named-state surface: every parameter and persistent
  /// buffer under its dotted path, in deterministic registration order
  /// (this module's parameters, then buffers, then each child's subtree).
  /// Duplicate paths abort inside StateDict::Add — two children registered
  /// under one name cannot silently shadow each other.
  rntraj::StateDict StateDict() const {
    rntraj::StateDict out;
    CollectState("", &out);
    return out;
  }

  /// All parameters of this module and its registered children: the
  /// StateDict()'s learnable entries, in its order.
  std::vector<Tensor> Parameters() const {
    return LearnableTensors(StateDict());
  }

  /// Switches train/eval mode recursively (affects dropout and GraphNorm).
  void SetTraining(bool training) {
    training_ = training;
    for (auto& [name, child] : children_) child->SetTraining(training);
  }

  bool training() const { return training_; }

 protected:
  /// Registers a leaf parameter (sets requires_grad).
  Tensor RegisterParameter(const std::string& name, Tensor t) {
    t.set_requires_grad(true);
    params_.emplace_back(name, t);
    return t;
  }

  /// Registers a persistent (non-learned) buffer: carried by StateDict()
  /// and snapshots, skipped by Parameters() and the optimisers. The
  /// registered handle must stay the module's live storage — mutate it in
  /// place, never re-assign the member to a fresh Tensor.
  Tensor RegisterBuffer(const std::string& name, Tensor t) {
    buffers_.emplace_back(name, t);
    return t;
  }

  /// Registers a child module (non-owning; the child must be a member of the
  /// registering module and therefore outlive it).
  void RegisterChild(const std::string& name, Module* child) {
    children_.emplace_back(name, child);
  }

 private:
  void CollectState(const std::string& prefix, rntraj::StateDict* out) const {
    for (const auto& [name, p] : params_) {
      out->Add(prefix.empty() ? name : prefix + "." + name, p,
               /*is_buffer=*/false);
    }
    for (const auto& [name, b] : buffers_) {
      out->Add(prefix.empty() ? name : prefix + "." + name, b,
               /*is_buffer=*/true);
    }
    for (const auto& [name, c] : children_) {
      c->CollectState(prefix.empty() ? name : prefix + "." + name, out);
    }
  }

  std::vector<std::pair<std::string, Tensor>> params_;
  std::vector<std::pair<std::string, Tensor>> buffers_;
  std::vector<std::pair<std::string, Module*>> children_;
  bool training_ = true;
};

}  // namespace rntraj

#endif  // RNTRAJ_NN_MODULE_H_
