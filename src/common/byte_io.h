#ifndef RNTRAJ_COMMON_BYTE_IO_H_
#define RNTRAJ_COMMON_BYTE_IO_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

/// \file byte_io.h
/// The one byte codec under every binary format in the tree: snapshot files
/// (src/snapshot/), the metrics codec (src/obs/metrics_wire) and fleet frames
/// (src/fleet/wire). The Put* primitives append host-order scalars to a
/// std::string; each format stamps an endianness tag in its header, so a
/// foreign-endian peer is rejected instead of misparsed.
///
/// ByteReader reads untrusted bytes under three rules:
///   * every getter checks the remaining length before it touches a byte;
///   * a failed getter consumes nothing, and the failure latches: every later
///     getter fails too, so a decoder can read a whole section and test ok()
///     once;
///   * an element count read from the bytes goes through GetCount, which
///     rejects it, before the caller allocates anything, when it is over its
///     cap or when the remaining bytes cannot hold that many elements.

namespace rntraj {

inline void PutBytes(std::string* out, const void* data, size_t n) {
  out->append(static_cast<const char*>(data), n);
}
inline void PutU8(std::string* out, uint8_t v) { PutBytes(out, &v, 1); }
inline void PutU32(std::string* out, uint32_t v) { PutBytes(out, &v, 4); }
inline void PutU64(std::string* out, uint64_t v) { PutBytes(out, &v, 8); }
inline void PutI32(std::string* out, int32_t v) { PutBytes(out, &v, 4); }
inline void PutI64(std::string* out, int64_t v) { PutBytes(out, &v, 8); }
inline void PutF64(std::string* out, double v) { PutBytes(out, &v, 8); }
/// u32 byte count + raw bytes (embedded NULs round-trip).
inline void PutString(std::string* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}
inline void PutFloats(std::string* out, const float* data, size_t n) {
  PutBytes(out, data, n * sizeof(float));
}

/// Bounds-checked, latching reader over an untrusted byte span.
class ByteReader {
 public:
  ByteReader() = default;
  ByteReader(const char* data, size_t size) : p_(data), end_(data + size) {}

  bool ok() const { return ok_; }
  size_t remaining() const { return static_cast<size_t>(end_ - p_); }
  /// Latches failure (for a decoder's own consistency checks); returns false.
  bool Fail() {
    ok_ = false;
    return false;
  }

  bool GetBytes(void* dst, size_t n) {
    if (!ok_ || n > remaining()) return Fail();
    if (n > 0) std::memcpy(dst, p_, n);
    p_ += n;
    return true;
  }
  bool GetU8(uint8_t* v) { return GetBytes(v, sizeof(*v)); }
  bool GetU32(uint32_t* v) { return GetBytes(v, sizeof(*v)); }
  bool GetU64(uint64_t* v) { return GetBytes(v, sizeof(*v)); }
  bool GetI32(int32_t* v) { return GetBytes(v, sizeof(*v)); }
  bool GetI64(int64_t* v) { return GetBytes(v, sizeof(*v)); }
  bool GetF64(double* v) { return GetBytes(v, sizeof(*v)); }

  /// Length-prefixed string, rejected past `max_len` before allocating.
  bool GetString(std::string* s, size_t max_len) {
    const char* start = p_;
    uint32_t n = 0;
    if (!GetU32(&n)) return false;
    if (n > max_len || n > remaining()) return Reject(start);
    s->assign(p_, n);
    p_ += n;
    return true;
  }

  /// `n` floats, rejected before resizing `*out` if fewer bytes remain.
  bool GetFloats(std::vector<float>* out, size_t n) {
    if (!ok_ || n > remaining() / sizeof(float)) return Fail();
    out->resize(n);
    return GetBytes(out->data(), n * sizeof(float));
  }

  /// The next `n` bytes as a reader of their own, advancing past them: a
  /// section parsed through `*sub` cannot read into its neighbour.
  bool GetSub(size_t n, ByteReader* sub) {
    if (!ok_ || n > remaining()) return Fail();
    *sub = ByteReader(p_, n);
    p_ += n;
    return true;
  }

  /// A u32 element count, accepted only if it is at most `cap` and the
  /// remaining bytes can hold that many elements of at least
  /// `min_elem_bytes` (>= 1) each. Check every untrusted count here before
  /// allocating for it.
  bool GetCount(uint32_t* n, size_t min_elem_bytes, size_t cap = UINT32_MAX) {
    const char* start = p_;
    uint32_t v = 0;
    if (!GetU32(&v)) return false;
    if (v > cap || v > remaining() / min_elem_bytes) return Reject(start);
    *n = v;
    return true;
  }

 private:
  bool Reject(const char* start) {
    p_ = start;
    return Fail();
  }

  const char* p_ = nullptr;
  const char* end_ = nullptr;
  bool ok_ = true;
};

}  // namespace rntraj

#endif  // RNTRAJ_COMMON_BYTE_IO_H_
