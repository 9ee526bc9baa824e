#include "src/snapshot/snapshot.h"

#include <cstdio>
#include <cstring>
#include <utility>
#include <vector>

#include "src/common/byte_io.h"

namespace rntraj {
namespace snapshot {
namespace {

bool SetError(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = "snapshot: " + msg;
  return false;
}

// Caps keeping a corrupted length field from driving a multi-gigabyte
// allocation before the bounds check can reject it.
constexpr size_t kMaxNameLen = 4096;
constexpr uint32_t kMaxRank = 8;

// ---------------------------------------------------------------------------
// Section payload encoders.

std::string EncodeStateDict(const StateDict& sd) {
  std::string out;
  // Named-parameter table: name, kind, dtype, shape per entry — enough to
  // validate against a live model before touching the data block.
  PutU32(&out, static_cast<uint32_t>(sd.size()));
  for (const StateEntry& e : sd) {
    PutString(&out, e.name);
    PutU8(&out, e.is_buffer ? 1 : 0);
    PutU8(&out, 0);  // dtype: 0 = fp32 (the only storage dtype today)
    PutU32(&out, static_cast<uint32_t>(e.tensor.rank()));
    for (int d : e.tensor.shape()) PutU32(&out, static_cast<uint32_t>(d));
  }
  // The flat arena: every entry's floats back to back, in table order.
  PutU64(&out, static_cast<uint64_t>(sd.ScalarCount()));
  for (const StateEntry& e : sd) {
    PutFloats(&out, e.tensor.data().data(), e.tensor.data().size());
  }
  return out;
}

std::string EncodeTrainerState(const TrainerState& ts) {
  std::string out;
  PutU64(&out, ts.epochs_done);
  PutU64(&out, ts.training_steps);
  PutI64(&out, ts.adam.t);
  PutU64(&out, ts.adam.m.size());
  PutFloats(&out, ts.adam.m.data(), ts.adam.m.size());
  PutFloats(&out, ts.adam.v.data(), ts.adam.v.size());
  return out;
}

// ---------------------------------------------------------------------------
// Section payload decoders. Each gets its own sub-reader so a section that
// lies about its payload size cannot read into its neighbour.

bool DecodeStateDict(ByteReader* c, StateDict* sd, std::string* error) {
  // An entry is at least a name length, the buffer and dtype bytes and a
  // rank: 10 bytes.
  uint32_t count = 0;
  if (!c->GetCount(&count, 10)) {
    return SetError(error, "truncated state-dict table");
  }
  struct Meta {
    std::string name;
    bool is_buffer;
    std::vector<int> shape;
    size_t size;
  };
  std::vector<Meta> metas;
  metas.reserve(count);
  uint64_t total = 0;
  for (uint32_t i = 0; i < count; ++i) {
    Meta m;
    uint8_t is_buffer = 0;
    uint8_t dtype = 0;
    uint32_t rank = 0;
    if (!c->GetString(&m.name, kMaxNameLen) || !c->GetU8(&is_buffer) ||
        !c->GetU8(&dtype) || !c->GetU32(&rank)) {
      return SetError(error, "truncated state-dict table");
    }
    if (dtype != 0) {
      return SetError(error, "entry '" + m.name + "' has unknown dtype " +
                                 std::to_string(dtype));
    }
    if (rank > kMaxRank) {
      return SetError(error, "entry '" + m.name + "' has implausible rank " +
                                 std::to_string(rank));
    }
    m.is_buffer = is_buffer != 0;
    size_t n = 1;
    for (uint32_t d = 0; d < rank; ++d) {
      uint32_t dim = 0;
      if (!c->GetU32(&dim)) return SetError(error, "truncated shape");
      if (dim == 0 || dim > (1u << 28) || n > (size_t{1} << 32) / dim) {
        return SetError(error, "entry '" + m.name + "' has implausible shape");
      }
      m.shape.push_back(static_cast<int>(dim));
      n *= dim;
    }
    m.size = rank == 0 ? 1 : n;
    total += m.size;
    metas.push_back(std::move(m));
  }
  uint64_t stored = 0;
  if (!c->GetU64(&stored)) return SetError(error, "truncated arena header");
  if (stored != total) {
    return SetError(error, "arena size " + std::to_string(stored) +
                               " disagrees with the parameter table (" +
                               std::to_string(total) + ")");
  }
  for (const Meta& m : metas) {
    if (sd->Find(m.name) != nullptr) {
      return SetError(error, "duplicate entry '" + m.name + "'");
    }
    std::vector<float> data;
    if (!c->GetFloats(&data, m.size)) {
      return SetError(error, "truncated parameter arena");
    }
    std::vector<int> shape = m.shape.empty() ? std::vector<int>{1} : m.shape;
    sd->Add(m.name, Tensor::FromVector(shape, data), m.is_buffer);
  }
  return true;
}

bool DecodeTrainerState(ByteReader* c, TrainerState* ts, std::string* error) {
  uint64_t moments = 0;
  if (!c->GetU64(&ts->epochs_done) || !c->GetU64(&ts->training_steps) ||
      !c->GetI64(&ts->adam.t) || !c->GetU64(&moments)) {
    return SetError(error, "truncated trainer-state header");
  }
  if (!c->GetFloats(&ts->adam.m, moments) ||
      !c->GetFloats(&ts->adam.v, moments)) {
    return SetError(error, "truncated optimiser moment arenas");
  }
  return true;
}

}  // namespace

bool WriteSnapshot(const std::string& path, const Snapshot& snap,
                   std::string* error) {
  struct Section {
    uint32_t type;
    std::string payload;
  };
  std::vector<Section> sections;
  sections.push_back({kSectionStateDict, EncodeStateDict(snap.state)});
  if (snap.has_trainer_state) {
    sections.push_back({kSectionTrainerState, EncodeTrainerState(snap.trainer)});
  }
  if (!snap.model_name.empty()) {
    std::string meta;
    PutString(&meta, snap.model_name);
    sections.push_back({kSectionMeta, std::move(meta)});
  }

  std::string blob(kMagic, sizeof(kMagic));
  PutU32(&blob, kFormatVersion);
  PutU32(&blob, kEndianTag);
  PutU32(&blob, static_cast<uint32_t>(sections.size()));
  PutU32(&blob, 0);  // reserved
  for (const Section& s : sections) {
    PutU32(&blob, s.type);
    PutU32(&blob, 0);  // reserved (alignment/flags for future versions)
    PutU64(&blob, s.payload.size());
    blob.append(s.payload);
  }

  // Atomic publish: a concurrent reader sees either the old file or the
  // complete new one, never a prefix.
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return SetError(error, "cannot open '" + tmp + "'");
  const size_t written = std::fwrite(blob.data(), 1, blob.size(), f);
  const bool flushed = std::fclose(f) == 0;
  if (written != blob.size() || !flushed) {
    std::remove(tmp.c_str());
    return SetError(error, "short write to '" + tmp + "'");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return SetError(error, "cannot rename '" + tmp + "' to '" + path + "'");
  }
  return true;
}

bool ReadSnapshot(const std::string& path, Snapshot* out, std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return SetError(error, "cannot open '" + path + "'");
  std::fseek(f, 0, SEEK_END);
  const long len = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  if (len < 0) {
    std::fclose(f);
    return SetError(error, "cannot stat '" + path + "'");
  }
  std::string blob(static_cast<size_t>(len), '\0');
  const size_t got = blob.empty() ? 0 : std::fread(blob.data(), 1, blob.size(), f);
  std::fclose(f);
  if (got != blob.size()) return SetError(error, "short read from '" + path + "'");

  ByteReader c(blob.data(), blob.size());
  char magic[sizeof(kMagic)];
  if (!c.GetBytes(magic, sizeof(magic))) {
    return SetError(error, "file too small for header");
  }
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return SetError(error, "bad magic (not a snapshot file)");
  }
  uint32_t version = 0;
  uint32_t endian = 0;
  uint32_t section_count = 0;
  uint32_t reserved = 0;
  if (!c.GetU32(&version) || !c.GetU32(&endian) || !c.GetU32(&section_count) ||
      !c.GetU32(&reserved)) {
    return SetError(error, "truncated header");
  }
  if (endian != kEndianTag) {
    return SetError(error, "endianness mismatch (file written on a foreign-"
                           "endian machine, or corrupted header)");
  }
  if (version != kFormatVersion) {
    return SetError(error, "unsupported format version " +
                               std::to_string(version) + " (reader supports " +
                               std::to_string(kFormatVersion) + ")");
  }

  Snapshot snap;
  bool saw_state_dict = false;
  for (uint32_t i = 0; i < section_count; ++i) {
    uint32_t type = 0;
    uint32_t sreserved = 0;
    uint64_t payload = 0;
    if (!c.GetU32(&type) || !c.GetU32(&sreserved) || !c.GetU64(&payload)) {
      return SetError(error, "truncated section table");
    }
    if (payload > c.remaining()) {
      return SetError(error, "section " + std::to_string(type) +
                                 " claims " + std::to_string(payload) +
                                 " bytes, only " +
                                 std::to_string(c.remaining()) + " remain");
    }
    ByteReader sc;
    c.GetSub(static_cast<size_t>(payload), &sc);
    switch (type) {
      case kSectionStateDict:
        if (saw_state_dict) return SetError(error, "duplicate state-dict section");
        if (!DecodeStateDict(&sc, &snap.state, error)) return false;
        saw_state_dict = true;
        break;
      case kSectionTrainerState:
        if (!DecodeTrainerState(&sc, &snap.trainer, error)) return false;
        snap.has_trainer_state = true;
        break;
      case kSectionMeta:
        if (!sc.GetString(&snap.model_name, kMaxNameLen)) {
          return SetError(error, "truncated meta section");
        }
        break;
      default:
        // Unknown optional section from a newer writer, or the retired
        // road-rep section of an older one: skip by size.
        break;
    }
  }
  if (!saw_state_dict) {
    return SetError(error, "no state-dict section (every snapshot carries one)");
  }
  *out = std::move(snap);
  return true;
}

bool ApplyStateDict(const StateDict& own, const StateDict& loaded,
                    std::string* error) {
  // Validate everything before copying anything: a rejected snapshot must
  // leave the live model exactly as it was.
  for (const StateEntry& e : own) {
    const StateEntry* s = loaded.Find(e.name);
    if (s == nullptr) {
      return SetError(error, "missing entry '" + e.name + "'");
    }
    if (s->tensor.shape() != e.tensor.shape()) {
      auto shape_str = [](const std::vector<int>& shape) {
        std::string txt = "(";
        for (size_t i = 0; i < shape.size(); ++i) {
          if (i) txt += ',';
          txt += std::to_string(shape[i]);
        }
        return txt + ")";
      };
      return SetError(error, "shape mismatch for '" + e.name + "': file has " +
                                 shape_str(s->tensor.shape()) +
                                 ", model expects " +
                                 shape_str(e.tensor.shape()));
    }
  }
  for (const StateEntry& s : loaded) {
    if (own.Find(s.name) == nullptr) {
      return SetError(error, "unexpected entry '" + s.name +
                                 "' (snapshot of a different architecture?)");
    }
  }
  for (const StateEntry& e : own) {
    const StateEntry* s = loaded.Find(e.name);
    Tensor dst = e.tensor;  // shared impl: writes hit the live model
    std::copy(s->tensor.data().begin(), s->tensor.data().end(),
              dst.data().begin());
  }
  return true;
}

}  // namespace snapshot
}  // namespace rntraj
