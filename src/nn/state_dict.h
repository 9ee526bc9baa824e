#ifndef RNTRAJ_NN_STATE_DICT_H_
#define RNTRAJ_NN_STATE_DICT_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/tensor/tensor.h"

/// \file state_dict.h
/// The canonical named-state surface of a module tree: an ordered,
/// name-unique map from dotted paths to tensors. `Module::StateDict()`
/// produces one in deterministic registration order; the snapshot format
/// (src/snapshot/) serialises one and `snapshot::ApplyStateDict` loads one
/// into a live model.

namespace rntraj {

/// One named tensor of a module's state: a learnable parameter or a
/// persistent buffer (e.g. GraphNorm running statistics).
struct StateEntry {
  std::string name;
  Tensor tensor;
  bool is_buffer = false;
};

/// Ordered collection of named tensors with unique names.
///
/// Entries keep insertion order (the module tree's registration order), so
/// two StateDicts of the same architecture align positionally as well as by
/// name — the property the Adam moment arenas rely on across a checkpoint
/// resume. Name collisions are programmer errors and abort.
class StateDict {
 public:
  void Add(std::string name, Tensor tensor, bool is_buffer = false) {
    auto [it, inserted] = index_.emplace(name, entries_.size());
    RNTRAJ_CHECK_MSG(inserted,
                     "StateDict: duplicate entry name '" << name << "'");
    entries_.push_back({std::move(name), std::move(tensor), is_buffer});
  }

  /// Entry lookup by dotted path; nullptr when absent.
  const StateEntry* Find(const std::string& name) const {
    auto it = index_.find(name);
    return it == index_.end() ? nullptr : &entries_[it->second];
  }

  const std::vector<StateEntry>& entries() const { return entries_; }
  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  const StateEntry& operator[](size_t i) const { return entries_[i]; }
  auto begin() const { return entries_.begin(); }
  auto end() const { return entries_.end(); }

  /// Total scalar count across all entries.
  int64_t ScalarCount() const {
    int64_t n = 0;
    for (const auto& e : entries_) n += e.tensor.size();
    return n;
  }

 private:
  std::vector<StateEntry> entries_;
  std::unordered_map<std::string, size_t> index_;
};

/// The learnable tensors of a state dict (buffers skipped), in the dict's
/// deterministic registration order: the parameters an optimiser updates.
inline std::vector<Tensor> LearnableTensors(const StateDict& sd) {
  std::vector<Tensor> out;
  out.reserve(sd.size());
  for (const StateEntry& e : sd) {
    if (!e.is_buffer) out.push_back(e.tensor);
  }
  return out;
}

}  // namespace rntraj

#endif  // RNTRAJ_NN_STATE_DICT_H_
