#include "src/fleet/wire.h"

#include <cstring>
#include <utility>

#include "src/common/byte_io.h"
#include "src/obs/metrics_wire.h"

namespace rntraj {
namespace fleet {

namespace {

bool SetError(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = "fleet wire: " + msg;
  return false;
}

/// A failed GetCount consumes nothing, so fewer than 4 bytes left means the
/// payload ended inside the count field; otherwise the count was out of
/// bounds.
bool CountError(const ByteReader& cur, const std::string& payload,
                const std::string& field, std::string* error) {
  return SetError(error, cur.remaining() < sizeof(uint32_t)
                             ? "truncated " + payload + " payload"
                             : field + " count out of bounds");
}

/// Header + payload in one buffer.
std::string Frame(FrameType type, const std::string& body) {
  std::string frame;
  frame.reserve(kFrameHeaderBytes + body.size());
  AppendFrameHeader(&frame, type, body.size());
  frame.append(body);
  return frame;
}

}  // namespace

// ---------------------------------------------------------------------------
// Frame header

void AppendFrameHeader(std::string* out, FrameType type,
                       uint64_t payload_size) {
  out->append(kWireMagic, sizeof(kWireMagic));
  PutU32(out, kWireVersion);
  PutU32(out, kWireEndianTag);
  PutU32(out, static_cast<uint32_t>(type));
  PutU64(out, payload_size);
}

bool ParseFrameHeader(const char* data, size_t size, FrameHeader* out,
                      std::string* error) {
  if (size < kFrameHeaderBytes) {
    return SetError(error, "truncated frame header (" + std::to_string(size) +
                               " of " + std::to_string(kFrameHeaderBytes) +
                               " bytes)");
  }
  if (std::memcmp(data, kWireMagic, sizeof(kWireMagic)) != 0) {
    return SetError(error, "bad magic (not a fleet frame)");
  }
  ByteReader cur(data + sizeof(kWireMagic), size - sizeof(kWireMagic));
  uint32_t version = 0, endian = 0, type = 0;
  uint64_t payload = 0;
  if (!cur.GetU32(&version) || !cur.GetU32(&endian) || !cur.GetU32(&type) ||
      !cur.GetU64(&payload)) {
    return SetError(error, "truncated frame header");
  }
  if (version != kWireVersion) {
    return SetError(error, "unsupported protocol version " +
                               std::to_string(version) + " (want " +
                               std::to_string(kWireVersion) + ")");
  }
  if (endian != kWireEndianTag) {
    return SetError(error, "foreign endianness tag");
  }
  if (type < static_cast<uint32_t>(FrameType::kRequest) ||
      type > static_cast<uint32_t>(FrameType::kPong)) {
    return SetError(error, "unknown frame type " + std::to_string(type));
  }
  if (payload > kMaxFramePayload) {
    return SetError(error, "oversized payload length prefix (" +
                               std::to_string(payload) + " bytes)");
  }
  out->type = static_cast<FrameType>(type);
  out->payload_size = payload;
  return true;
}

// ---------------------------------------------------------------------------
// Request

std::string EncodeRequestBody(const serve::RecoveryRequest& req) {
  std::string out;
  PutU32(&out, serve::kRequestWireVersion);
  PutU32(&out, static_cast<uint32_t>(req.input.points.size()));
  for (const RawPoint& p : req.input.points) {
    PutF64(&out, p.pos.x);
    PutF64(&out, p.pos.y);
    PutF64(&out, p.t);
  }
  PutU32(&out, static_cast<uint32_t>(req.target_times.size()));
  for (double t : req.target_times) PutF64(&out, t);
  PutU32(&out, static_cast<uint32_t>(req.input_indices.size()));
  for (int k : req.input_indices) PutI32(&out, k);
  PutF64(&out, req.deadline_ms);
  return out;
}

std::string BuildRequestFrame(uint64_t correlation_id,
                              const std::string& encoded_body) {
  std::string body;
  PutU64(&body, correlation_id);
  body.append(encoded_body);
  return Frame(FrameType::kRequest, body);
}

bool DecodeRequestPayload(const char* data, size_t size,
                          uint64_t* correlation_id,
                          serve::RecoveryRequest* out, std::string* error) {
  ByteReader cur(data, size);
  uint64_t id = 0;
  uint32_t layout = 0;
  if (!cur.GetU64(&id) || !cur.GetU32(&layout)) {
    return SetError(error, "truncated request payload");
  }
  if (layout != serve::kRequestWireVersion) {
    return SetError(error, "foreign request layout version " +
                               std::to_string(layout));
  }
  serve::RecoveryRequest req;  // decode locally: *out untouched on failure

  // 24 bytes per point, 8 per target time, 4 per input index.
  uint32_t n = 0;
  if (!cur.GetCount(&n, 24, kMaxWirePoints)) {
    return CountError(cur, "request", "request point", error);
  }
  req.input.points.resize(n);
  for (RawPoint& p : req.input.points) {
    cur.GetF64(&p.pos.x);
    cur.GetF64(&p.pos.y);
    cur.GetF64(&p.t);
  }

  if (!cur.GetCount(&n, 8, kMaxWirePoints)) {
    return CountError(cur, "request", "target time", error);
  }
  req.target_times.resize(n);
  for (double& t : req.target_times) cur.GetF64(&t);

  if (!cur.GetCount(&n, 4, kMaxWirePoints)) {
    return CountError(cur, "request", "input index", error);
  }
  req.input_indices.resize(n);
  for (int& k : req.input_indices) {
    int32_t v = 0;
    cur.GetI32(&v);
    k = v;
  }

  cur.GetF64(&req.deadline_ms);
  if (!cur.ok()) return SetError(error, "truncated request payload");
  if (cur.remaining() != 0) {
    return SetError(error, "trailing bytes after request");
  }
  *correlation_id = id;
  *out = std::move(req);
  return true;
}

// ---------------------------------------------------------------------------
// Response

std::string BuildResponseFrame(uint64_t correlation_id,
                               const serve::RecoveryResponse& resp) {
  std::string body;
  PutU64(&body, correlation_id);
  PutU32(&body, serve::kRequestWireVersion);
  PutU8(&body, resp.ok ? 1 : 0);
  PutU32(&body, static_cast<uint32_t>(resp.kind));
  // A service error string is bounded in practice; truncate defensively so
  // the frame always decodes (the cap is also what the decoder enforces).
  std::string err = resp.error;
  if (err.size() > kMaxWireString) err.resize(kMaxWireString);
  PutString(&body, err);
  PutU8(&body, resp.degraded ? 1 : 0);
  PutU32(&body, static_cast<uint32_t>(resp.recovered.points.size()));
  for (const MatchedPoint& p : resp.recovered.points) {
    PutI32(&body, p.seg_id);
    PutF64(&body, p.ratio);
    PutF64(&body, p.t);
  }
  PutI32(&body, resp.batch_size);
  PutI32(&body, resp.session_id);
  PutU64(&body, resp.model_version);
  PutF64(&body, resp.queue_ms);
  PutF64(&body, resp.infer_ms);
  return Frame(FrameType::kResponse, body);
}

bool DecodeResponsePayload(const char* data, size_t size,
                           uint64_t* correlation_id,
                           serve::RecoveryResponse* out, std::string* error) {
  ByteReader cur(data, size);
  uint64_t id = 0;
  uint32_t layout = 0;
  if (!cur.GetU64(&id) || !cur.GetU32(&layout)) {
    return SetError(error, "truncated response payload");
  }
  if (layout != serve::kRequestWireVersion) {
    return SetError(error, "foreign response layout version " +
                               std::to_string(layout));
  }
  serve::RecoveryResponse resp;
  uint8_t ok_byte = 0, degraded = 0;
  uint32_t kind_raw = 0;
  if (!cur.GetU8(&ok_byte) || !cur.GetU32(&kind_raw) ||
      !cur.GetString(&resp.error, kMaxWireString)) {
    return SetError(error, "truncated response payload");
  }
  if (!serve::ResponseKindFromWire(kind_raw, &resp.kind)) {
    return SetError(error,
                    "unknown response kind " + std::to_string(kind_raw));
  }
  if (!cur.GetU8(&degraded)) {
    return SetError(error, "truncated response payload");
  }
  // 20 bytes per matched point (i32 + 2 * f64).
  uint32_t n = 0;
  if (!cur.GetCount(&n, 20, kMaxWirePoints)) {
    return CountError(cur, "response", "response point", error);
  }
  resp.recovered.points.resize(n);
  for (MatchedPoint& p : resp.recovered.points) {
    int32_t seg = 0;
    cur.GetI32(&seg);
    p.seg_id = seg;
    cur.GetF64(&p.ratio);
    cur.GetF64(&p.t);
  }
  int32_t batch_size = 0, session_id = 0;
  cur.GetI32(&batch_size);
  cur.GetI32(&session_id);
  cur.GetU64(&resp.model_version);
  cur.GetF64(&resp.queue_ms);
  cur.GetF64(&resp.infer_ms);
  if (!cur.ok()) return SetError(error, "truncated response payload");
  if (cur.remaining() != 0) {
    return SetError(error, "trailing bytes after response");
  }
  resp.ok = ok_byte != 0;
  resp.degraded = degraded != 0;
  resp.batch_size = batch_size;
  resp.session_id = session_id;
  *correlation_id = id;
  *out = std::move(resp);
  return true;
}

// ---------------------------------------------------------------------------
// Control frames

std::string BuildMetricsQueryFrame() {
  return Frame(FrameType::kMetricsQuery, "");
}

std::string BuildMetricsReplyFrame(const obs::MetricsSnapshot& snap) {
  std::string body;
  std::string error;
  if (!obs::EncodeMetricsSnapshot(snap, &body, &error)) {
    // A snapshot over the entry caps cannot arise from our registries; ship
    // an empty snapshot rather than a frame the peer must reject.
    body.clear();
    obs::EncodeMetricsSnapshot(obs::MetricsSnapshot{}, &body, nullptr);
  }
  return Frame(FrameType::kMetricsReply, body);
}

bool DecodeMetricsReplyPayload(const char* data, size_t size,
                               obs::MetricsSnapshot* out,
                               std::string* error) {
  return obs::DecodeMetricsSnapshot(data, size, out, error);
}

std::string BuildSwapModelFrame(const std::string& snapshot_path) {
  std::string body;
  PutString(&body, snapshot_path);
  return Frame(FrameType::kSwapModel, body);
}

bool DecodeSwapModelPayload(const char* data, size_t size,
                            std::string* snapshot_path, std::string* error) {
  ByteReader cur(data, size);
  std::string path;
  if (!cur.GetString(&path, kMaxWireString) || cur.remaining() != 0) {
    return SetError(error, "malformed swap-model payload");
  }
  *snapshot_path = std::move(path);
  return true;
}

std::string BuildSwapReplyFrame(bool ok, const std::string& message,
                                uint64_t model_version) {
  std::string body;
  PutU8(&body, ok ? 1 : 0);
  std::string msg = message;
  if (msg.size() > kMaxWireString) msg.resize(kMaxWireString);
  PutString(&body, msg);
  PutU64(&body, model_version);
  return Frame(FrameType::kSwapReply, body);
}

bool DecodeSwapReplyPayload(const char* data, size_t size, bool* ok,
                            std::string* message, uint64_t* model_version,
                            std::string* error) {
  ByteReader cur(data, size);
  uint8_t ok_byte = 0;
  std::string msg;
  uint64_t version = 0;
  if (!cur.GetU8(&ok_byte) || !cur.GetString(&msg, kMaxWireString) ||
      !cur.GetU64(&version) || cur.remaining() != 0) {
    return SetError(error, "malformed swap-reply payload");
  }
  *ok = ok_byte != 0;
  *message = std::move(msg);
  *model_version = version;
  return true;
}

std::string BuildPingFrame() { return Frame(FrameType::kPing, ""); }

std::string BuildPongFrame(double queue_depth) {
  std::string body;
  PutF64(&body, queue_depth);
  return Frame(FrameType::kPong, body);
}

bool DecodePongPayload(const char* data, size_t size, double* queue_depth,
                       std::string* error) {
  ByteReader cur(data, size);
  double depth = 0.0;
  if (!cur.GetF64(&depth) || cur.remaining() != 0) {
    return SetError(error, "malformed pong payload");
  }
  *queue_depth = depth;
  return true;
}

uint64_t Fnv1a64(const std::string& bytes) {
  uint64_t h = 0xcbf29ce484222325ull;  // offset basis
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;  // prime
  }
  return h;
}

}  // namespace fleet
}  // namespace rntraj
