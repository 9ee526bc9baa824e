#ifndef RNTRAJ_SNAPSHOT_SNAPSHOT_H_
#define RNTRAJ_SNAPSHOT_SNAPSHOT_H_

#include <cstdint>
#include <string>

#include "src/nn/optim.h"
#include "src/nn/state_dict.h"
#include "src/tensor/tensor.h"

/// \file snapshot.h
/// Versioned binary model snapshots (see docs/snapshot_format.md).
///
/// A snapshot file is a fixed header (magic "RNTRSNAP", format version,
/// endianness tag) followed by typed sections. The mandatory state-dict
/// section stores the named-parameter table and the flat arena (every
/// entry's floats back to back in table order, written from and read into
/// the tensors directly, with no intermediate buffer); optional sections
/// carry the trainer state (epoch counters + the Adam moment arenas, for
/// checkpoint/resume) and a model-name meta tag. Nothing derived
/// from the weights is stored: a loaded model recomputes it, so it answers
/// exactly like the weights it was given.
///
/// Every load failure — missing file, truncation, corruption, foreign
/// version or endianness, shape mismatch — is reported through an error
/// string and `false`; the loader never aborts on untrusted bytes.

namespace rntraj {
namespace snapshot {

inline constexpr char kMagic[8] = {'R', 'N', 'T', 'R', 'S', 'N', 'A', 'P'};
inline constexpr uint32_t kFormatVersion = 1;
inline constexpr uint32_t kEndianTag = 0x01020304u;

/// Section type tags (the section table is extensible: readers skip types
/// they do not know, so older readers tolerate newer optional sections).
enum SectionType : uint32_t {
  kSectionStateDict = 1,
  /// Retired: the road representation, derived from the weights and so a
  /// second source of truth. Readers skip it like any unknown type, so old
  /// files still load. Never reuse the tag.
  kSectionRetiredRoadRep = 2,
  kSectionTrainerState = 3,
  kSectionMeta = 4,
};

/// Trainer-side checkpoint payload: how far training got plus the whole
/// Adam state (step counter + flat moment arenas aligned to the state
/// dict's learnable layout).
struct TrainerState {
  uint64_t epochs_done = 0;
  /// Optimiser steps taken (= BeginBatch calls); restored into the model so
  /// step-keyed streams (scheduled-sampling seeds) resume bit-for-bit.
  uint64_t training_steps = 0;
  Adam::State adam;
};

/// In-memory image of a snapshot file. Tensors are owned by the snapshot
/// (fresh storage, no autograd state), never aliased into a live model.
struct Snapshot {
  StateDict state;
  bool has_trainer_state = false;
  TrainerState trainer;
  std::string model_name;  // meta section; empty = absent
};

/// Serialises `snap` to `path` atomically (tmp file + rename, so readers
/// never observe a half-written snapshot). Returns false + `*error` on I/O
/// failure.
bool WriteSnapshot(const std::string& path, const Snapshot& snap,
                   std::string* error);

/// Parses `path` into `*out` with full bounds checking. Returns false +
/// `*error` (and leaves `*out` unspecified) on any malformed input.
bool ReadSnapshot(const std::string& path, Snapshot* out, std::string* error);

/// Copies `loaded` into a live model's state dict `own`, strictly: every
/// `own` entry must be present in `loaded` with exactly its shape, and
/// `loaded` must contain nothing else. On any mismatch returns false with
/// a diagnostic in `*error` and mutates NOTHING (all checks run before the
/// first copy).
bool ApplyStateDict(const StateDict& own, const StateDict& loaded,
                    std::string* error);

}  // namespace snapshot
}  // namespace rntraj

#endif  // RNTRAJ_SNAPSHOT_SNAPSHOT_H_
