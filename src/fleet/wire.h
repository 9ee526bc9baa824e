#ifndef RNTRAJ_FLEET_WIRE_H_
#define RNTRAJ_FLEET_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "src/obs/metrics.h"
#include "src/serve/request.h"

/// \file wire.h
/// The fleet's length-prefixed, versioned binary wire protocol (see
/// docs/fleet.md for the byte-level format table).
///
/// Every frame is a fixed 28-byte header — magic "RNTRWIRE", protocol
/// version, endianness tag, frame type, payload length — followed by the
/// payload. The router and workers speak exactly these frames over
/// Unix-domain or TCP sockets: requests and responses (correlation-id
/// multiplexed on the data endpoint), metrics queries, model-swap commands
/// and liveness pings (synchronous on the control endpoint).
///
/// The decoders read through src/common/byte_io.h's ByteReader, so every
/// untrusted count is checked against its cap and the remaining bytes before
/// anything is allocated. Every malformed input — truncation at any byte,
/// bad magic/version/endianness, an oversized length prefix, garbage payload
/// bytes — is reported through an error string and `false`, with outputs
/// untouched. Untrusted bytes never abort a serving process.

namespace rntraj {
namespace fleet {

inline constexpr char kWireMagic[8] = {'R', 'N', 'T', 'R', 'W', 'I', 'R', 'E'};
/// Protocol framing version; payload field layouts are additionally pinned
/// by serve::kRequestWireVersion (mixed builds reject each other here).
inline constexpr uint32_t kWireVersion = 1;
inline constexpr uint32_t kWireEndianTag = 0x01020304u;
/// magic(8) + version(4) + endian(4) + type(4) + payload length(8).
inline constexpr size_t kFrameHeaderBytes = 28;
/// Hard cap on one frame's payload: an oversized length prefix is rejected
/// at header parse, before any allocation or read.
inline constexpr uint64_t kMaxFramePayload = 64ull << 20;
/// Caps inside payloads (trajectories, strings), enforced before allocating.
inline constexpr uint32_t kMaxWirePoints = 1u << 20;
inline constexpr uint32_t kMaxWireString = 1u << 16;

enum class FrameType : uint32_t {
  kRequest = 1,       ///< data: correlation id + RecoveryRequest
  kResponse = 2,      ///< data: correlation id + RecoveryResponse
  kMetricsQuery = 3,  ///< control: empty payload
  kMetricsReply = 4,  ///< control: binary MetricsSnapshot
  kSwapModel = 5,     ///< control: snapshot path to deploy
  kSwapReply = 6,     ///< control: ok + error + new model version
  kPing = 7,          ///< control: empty payload (liveness probe)
  kPong = 8,          ///< control: current queue depth
};

struct FrameHeader {
  FrameType type = FrameType::kRequest;
  uint64_t payload_size = 0;
};

// ---------------------------------------------------------------------------
// Frame header

void AppendFrameHeader(std::string* out, FrameType type, uint64_t payload_size);

/// Validates magic, version, endianness, frame type and the length prefix
/// (<= kMaxFramePayload). `data` must hold at least kFrameHeaderBytes.
bool ParseFrameHeader(const char* data, size_t size, FrameHeader* out,
                      std::string* error);

// ---------------------------------------------------------------------------
// Request / response payloads. The request body is exposed separately from
// the frame because the router hashes the encoded body for consistent
// request sharding (same body -> same worker, independent of correlation
// id).

std::string EncodeRequestBody(const serve::RecoveryRequest& req);
std::string BuildRequestFrame(uint64_t correlation_id,
                              const std::string& encoded_body);
bool DecodeRequestPayload(const char* data, size_t size,
                          uint64_t* correlation_id,
                          serve::RecoveryRequest* out, std::string* error);

/// The response's `trace` pointer is process-local and does not cross the
/// wire; every other field round-trips bit-exactly.
std::string BuildResponseFrame(uint64_t correlation_id,
                               const serve::RecoveryResponse& resp);
bool DecodeResponsePayload(const char* data, size_t size,
                           uint64_t* correlation_id,
                           serve::RecoveryResponse* out, std::string* error);

// ---------------------------------------------------------------------------
// Control payloads

std::string BuildMetricsQueryFrame();
std::string BuildMetricsReplyFrame(const obs::MetricsSnapshot& snap);
bool DecodeMetricsReplyPayload(const char* data, size_t size,
                               obs::MetricsSnapshot* out, std::string* error);

std::string BuildSwapModelFrame(const std::string& snapshot_path);
bool DecodeSwapModelPayload(const char* data, size_t size,
                            std::string* snapshot_path, std::string* error);

std::string BuildSwapReplyFrame(bool ok, const std::string& message,
                                uint64_t model_version);
bool DecodeSwapReplyPayload(const char* data, size_t size, bool* ok,
                            std::string* message, uint64_t* model_version,
                            std::string* error);

std::string BuildPingFrame();
std::string BuildPongFrame(double queue_depth);
bool DecodePongPayload(const char* data, size_t size, double* queue_depth,
                       std::string* error);

/// FNV-1a over the encoded request body — the router's consistent-hash
/// route key (stable across processes and runs; no RNG involved).
uint64_t Fnv1a64(const std::string& bytes);

}  // namespace fleet
}  // namespace rntraj

#endif  // RNTRAJ_FLEET_WIRE_H_
