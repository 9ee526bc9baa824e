#ifndef RNTRAJ_COMMON_WRITE_ONCE_SLOTS_H_
#define RNTRAJ_COMMON_WRITE_ONCE_SLOTS_H_

#include <atomic>
#include <cstddef>
#include <memory>
#include <vector>

/// \file write_once_slots.h
/// A fixed table of lazily computed values that are never replaced: the
/// storage behind the shared read-mostly caches (NetworkDistance's Dijkstra
/// rows, the serving cell-candidate cache). Each slot is null until one
/// value is published into it by a compare-and-swap; published values are
/// freed only by the destructor. A hit is therefore one acquire load: no
/// lock, no reference count and no shared write.

namespace rntraj {

template <typename T>
class WriteOnceSlots {
 public:
  explicit WriteOnceSlots(size_t n) : slots_(n) {}
  ~WriteOnceSlots() {
    for (auto& slot : slots_) delete slot.load(std::memory_order_relaxed);
  }

  WriteOnceSlots(const WriteOnceSlots&) = delete;
  WriteOnceSlots& operator=(const WriteOnceSlots&) = delete;

  /// The value published in slot `i`, or null.
  const T* Get(size_t i) const {
    return slots_[i].load(std::memory_order_acquire);
  }

  struct Resident {
    const T* value;  ///< The value that holds the slot.
    bool won;        ///< Whether it is the one this call published.
  };

  /// Publishes `value` into slot `i` unless another value got there first;
  /// a losing copy is freed on return.
  Resident Publish(size_t i, std::unique_ptr<T> value) {
    const T* resident = nullptr;
    if (slots_[i].compare_exchange_strong(resident, value.get(),
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
      return {value.release(), true};  // owned by the slot until destruction
    }
    return {resident, false};
  }

 private:
  std::vector<std::atomic<const T*>> slots_;
};

}  // namespace rntraj

#endif  // RNTRAJ_COMMON_WRITE_ONCE_SLOTS_H_
