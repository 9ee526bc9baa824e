// Fleet suite (PR 10): the sharded multi-process serving layer.
//
// Three layers of proof, mirroring snapshot_test.cc's discipline for the
// wire protocol and serve_chaos_test.cc's for the serving semantics:
//   * wire protocol: request/response/control payloads round-trip
//     bit-exactly, and EVERY malformed frame — truncation at every byte
//     boundary, bad magic/version/endianness/type, an oversized length
//     prefix, garbage payloads, trailing bytes — is rejected with an error
//     and untouched outputs, never an abort;
//   * sockets: whole-frame transfer over Unix-domain and TCP endpoints,
//     with the same rejection behaviour for on-the-wire garbage;
//   * the fleet itself: worker processes serve answers bit-identical to
//     in-process inference, the router front-end rejects invalid requests
//     without a worker round-trip, SIGKILLing a worker mid-stream leaves
//     zero unanswered futures and survivors keep serving, a restarted
//     worker rejoins, and a malformed frame costs one connection — not the
//     worker.

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "src/common/byte_io.h"
#include "src/common/random.h"
#include "src/core/rntrajrec.h"
#include "src/fleet/process.h"
#include "src/fleet/profiles.h"
#include "src/fleet/router.h"
#include "src/fleet/socket.h"
#include "src/fleet/wire.h"
#include "src/obs/metrics_wire.h"
#include "src/serve/workload.h"
#include "src/sim/dataset.h"

namespace rntraj {
namespace {

using fleet::FrameHeader;
using fleet::FrameType;
using serve::RecoveryRequest;
using serve::RecoveryResponse;
using serve::ResponseKind;

constexpr auto kFutureTimeout = std::chrono::seconds(60);

RecoveryResponse GetOrDie(std::future<RecoveryResponse>& f) {
  EXPECT_EQ(f.wait_for(kFutureTimeout), std::future_status::ready)
      << "future did not resolve: a routed request was dropped or wedged";
  return f.get();
}

RecoveryRequest SampleRequest() {
  RecoveryRequest req;
  req.input.points = {{{10.5, -3.25}, 100.0},
                      {{11.0, -2.0}, 130.0},
                      {{12.75, 0.5}, 190.0}};
  req.target_times = {100.0, 115.0, 130.0, 145.0, 160.0, 175.0, 190.0};
  req.input_indices = {0, 2, 6};
  req.deadline_ms = 250.0;
  return req;
}

RecoveryResponse SampleResponse() {
  RecoveryResponse resp;
  resp.ok = true;
  resp.kind = ResponseKind::kOk;
  resp.degraded = false;
  resp.recovered.points = {{7, 0.25, 100.0}, {9, 0.5, 115.0}, {9, 1.0, 130.0}};
  resp.batch_size = 4;
  resp.session_id = 1;
  resp.model_version = 3;
  resp.queue_ms = 0.75;
  resp.infer_ms = 12.5;
  return resp;
}

// ----- Wire protocol: round trips -------------------------------------------

TEST(FleetWireTest, RequestRoundTripsBitExact) {
  const RecoveryRequest req = SampleRequest();
  const std::string frame =
      fleet::BuildRequestFrame(42, fleet::EncodeRequestBody(req));

  FrameHeader header;
  std::string error;
  ASSERT_TRUE(
      fleet::ParseFrameHeader(frame.data(), frame.size(), &header, &error))
      << error;
  EXPECT_EQ(header.type, FrameType::kRequest);
  EXPECT_EQ(header.payload_size, frame.size() - fleet::kFrameHeaderBytes);

  uint64_t id = 0;
  RecoveryRequest got;
  ASSERT_TRUE(fleet::DecodeRequestPayload(
      frame.data() + fleet::kFrameHeaderBytes, frame.size() -
          fleet::kFrameHeaderBytes, &id, &got, &error))
      << error;
  EXPECT_EQ(id, 42u);
  ASSERT_EQ(got.input.points.size(), req.input.points.size());
  for (size_t i = 0; i < req.input.points.size(); ++i) {
    EXPECT_EQ(got.input.points[i].pos.x, req.input.points[i].pos.x);
    EXPECT_EQ(got.input.points[i].pos.y, req.input.points[i].pos.y);
    EXPECT_EQ(got.input.points[i].t, req.input.points[i].t);
  }
  EXPECT_EQ(got.target_times, req.target_times);
  EXPECT_EQ(got.input_indices, req.input_indices);
  EXPECT_EQ(got.deadline_ms, req.deadline_ms);
}

TEST(FleetWireTest, ResponseRoundTripsBitExactForEveryKind) {
  for (const ResponseKind kind :
       {ResponseKind::kOk, ResponseKind::kValidationError,
        ResponseKind::kDeadlineMissed, ResponseKind::kShed,
        ResponseKind::kInternalError}) {
    RecoveryResponse resp = SampleResponse();
    resp.kind = kind;
    resp.ok = kind == ResponseKind::kOk;
    resp.degraded = kind == ResponseKind::kDeadlineMissed;
    if (!resp.ok) resp.error = "why it failed \x01 with binary bytes \x00ok";

    const std::string frame = fleet::BuildResponseFrame(99, resp);
    FrameHeader header;
    std::string error;
    ASSERT_TRUE(
        fleet::ParseFrameHeader(frame.data(), frame.size(), &header, &error))
        << error;
    EXPECT_EQ(header.type, FrameType::kResponse);

    uint64_t id = 0;
    RecoveryResponse got;
    ASSERT_TRUE(fleet::DecodeResponsePayload(
        frame.data() + fleet::kFrameHeaderBytes,
        frame.size() - fleet::kFrameHeaderBytes, &id, &got, &error))
        << error;
    EXPECT_EQ(id, 99u);
    EXPECT_EQ(got.ok, resp.ok);
    EXPECT_EQ(got.kind, resp.kind);
    EXPECT_EQ(got.error, resp.error);
    EXPECT_EQ(got.degraded, resp.degraded);
    ASSERT_EQ(got.recovered.points.size(), resp.recovered.points.size());
    for (size_t i = 0; i < resp.recovered.points.size(); ++i) {
      EXPECT_EQ(got.recovered.points[i].seg_id,
                resp.recovered.points[i].seg_id);
      EXPECT_EQ(got.recovered.points[i].ratio,
                resp.recovered.points[i].ratio);
      EXPECT_EQ(got.recovered.points[i].t, resp.recovered.points[i].t);
    }
    EXPECT_EQ(got.batch_size, resp.batch_size);
    EXPECT_EQ(got.session_id, resp.session_id);
    EXPECT_EQ(got.model_version, resp.model_version);
    EXPECT_EQ(got.queue_ms, resp.queue_ms);
    EXPECT_EQ(got.infer_ms, resp.infer_ms);
  }
}

TEST(FleetWireTest, RandomRequestsRoundTripProperty) {
  Rng rng(4242);
  for (int iter = 0; iter < 64; ++iter) {
    RecoveryRequest req;
    const int len = static_cast<int>(rng.UniformInt(1, 40));
    double t = rng.Uniform(0.0, 100.0);
    for (int j = 0; j < len; ++j) {
      t += rng.Uniform(0.1, 30.0);
      req.target_times.push_back(t);
    }
    const int pts = static_cast<int>(rng.UniformInt(1, len));
    int idx = -1;
    for (int j = 0; j < pts; ++j) {
      idx += static_cast<int>(rng.UniformInt(1, (len - 1 - idx) / (pts - j) +
                                                    1));
      idx = std::min(idx, len - (pts - j));
      req.input_indices.push_back(idx);
      req.input.points.push_back({{rng.Uniform(-1e4, 1e4),
                                   rng.Uniform(-1e4, 1e4)},
                                  req.target_times[idx]});
    }
    req.deadline_ms = rng.Uniform(0.0, 1e4);
    const uint64_t want_id = static_cast<uint64_t>(rng.UniformInt(0, 1 << 30));

    const std::string body = fleet::EncodeRequestBody(req);
    const std::string frame = fleet::BuildRequestFrame(want_id, body);
    uint64_t id = 0;
    RecoveryRequest got;
    std::string error;
    ASSERT_TRUE(fleet::DecodeRequestPayload(
        frame.data() + fleet::kFrameHeaderBytes,
        frame.size() - fleet::kFrameHeaderBytes, &id, &got, &error))
        << "iter " << iter << ": " << error;
    EXPECT_EQ(id, want_id);
    EXPECT_EQ(got.target_times, req.target_times);
    EXPECT_EQ(got.input_indices, req.input_indices);
    ASSERT_EQ(got.input.points.size(), req.input.points.size());
    for (size_t i = 0; i < req.input.points.size(); ++i) {
      EXPECT_EQ(got.input.points[i].pos.x, req.input.points[i].pos.x);
      EXPECT_EQ(got.input.points[i].t, req.input.points[i].t);
    }
    // The route key is a pure function of the body: identical across
    // re-encodes, the property consistent sharding rests on.
    EXPECT_EQ(fleet::Fnv1a64(body),
              fleet::Fnv1a64(fleet::EncodeRequestBody(req)));
  }
}

// ----- Wire protocol: the malformed-frame rejection matrix ------------------

TEST(FleetWireRejectionTest, HeaderRejectsBadMagic) {
  std::string frame =
      fleet::BuildRequestFrame(1, fleet::EncodeRequestBody(SampleRequest()));
  // Flip each magic byte in turn: never a parse, always a diagnostic.
  for (size_t i = 0; i < sizeof(fleet::kWireMagic); ++i) {
    std::string bad = frame;
    bad[i] ^= 0x5a;
    FrameHeader header;
    std::string error;
    EXPECT_FALSE(
        fleet::ParseFrameHeader(bad.data(), bad.size(), &header, &error));
    EXPECT_NE(error.find("magic"), std::string::npos) << error;
  }
}

TEST(FleetWireRejectionTest, HeaderRejectsForeignVersionEndianAndType) {
  const std::string frame =
      fleet::BuildRequestFrame(1, fleet::EncodeRequestBody(SampleRequest()));
  FrameHeader header;
  std::string error;

  std::string bad = frame;
  bad[8] = static_cast<char>(0x7f);  // version word
  EXPECT_FALSE(
      fleet::ParseFrameHeader(bad.data(), bad.size(), &header, &error));
  EXPECT_NE(error.find("version"), std::string::npos) << error;

  bad = frame;
  bad[12] ^= 0x01;  // endianness tag
  EXPECT_FALSE(
      fleet::ParseFrameHeader(bad.data(), bad.size(), &header, &error));
  EXPECT_NE(error.find("endian"), std::string::npos) << error;

  for (const uint32_t type : {0u, 9u, 0xffffffffu}) {
    bad = frame;
    std::memcpy(&bad[16], &type, sizeof(type));
    EXPECT_FALSE(
        fleet::ParseFrameHeader(bad.data(), bad.size(), &header, &error));
    EXPECT_NE(error.find("frame type"), std::string::npos) << error;
  }
}

TEST(FleetWireRejectionTest, HeaderRejectsOversizedLengthPrefix) {
  std::string frame =
      fleet::BuildRequestFrame(1, fleet::EncodeRequestBody(SampleRequest()));
  const uint64_t huge = fleet::kMaxFramePayload + 1;
  std::memcpy(&frame[20], &huge, sizeof(huge));
  FrameHeader header;
  std::string error;
  EXPECT_FALSE(
      fleet::ParseFrameHeader(frame.data(), frame.size(), &header, &error));
  EXPECT_NE(error.find("oversized"), std::string::npos) << error;
}

TEST(FleetWireRejectionTest, TruncationAtEveryByteBoundaryIsRejected) {
  const RecoveryRequest req = SampleRequest();
  const std::string frame =
      fleet::BuildRequestFrame(7, fleet::EncodeRequestBody(req));

  // A sentinel the decoder must not disturb on any failure.
  const auto sentinel = [] {
    RecoveryRequest s;
    s.deadline_ms = -777.0;
    s.target_times = {1.0, 2.0, 3.0};
    s.input_indices = {0};
    s.input.points = {{{9.0, 9.0}, 9.0}};
    return s;
  };
  const auto is_sentinel = [](const RecoveryRequest& s) {
    return s.deadline_ms == -777.0 && s.target_times.size() == 3 &&
           s.input_indices.size() == 1 && s.input.points.size() == 1;
  };

  for (size_t cut = 0; cut < frame.size(); ++cut) {
    std::string error;
    if (cut < fleet::kFrameHeaderBytes) {
      FrameHeader header;
      EXPECT_FALSE(
          fleet::ParseFrameHeader(frame.data(), cut, &header, &error))
          << "cut " << cut;
      EXPECT_FALSE(error.empty()) << "cut " << cut;
      continue;
    }
    uint64_t id = 0xdead;
    RecoveryRequest out = sentinel();
    EXPECT_FALSE(fleet::DecodeRequestPayload(
        frame.data() + fleet::kFrameHeaderBytes,
        cut - fleet::kFrameHeaderBytes, &id, &out, &error))
        << "cut " << cut;
    EXPECT_FALSE(error.empty()) << "cut " << cut;
    EXPECT_EQ(id, 0xdeadu) << "cut " << cut << ": output id mutated";
    EXPECT_TRUE(is_sentinel(out)) << "cut " << cut << ": output mutated";
  }

  // Same exhaustive sweep over a response payload.
  const std::string rframe = fleet::BuildResponseFrame(7, SampleResponse());
  for (size_t cut = fleet::kFrameHeaderBytes; cut < rframe.size(); ++cut) {
    std::string error;
    uint64_t id = 0xdead;
    RecoveryResponse out;
    out.session_id = -42;
    EXPECT_FALSE(fleet::DecodeResponsePayload(
        rframe.data() + fleet::kFrameHeaderBytes,
        cut - fleet::kFrameHeaderBytes, &id, &out, &error))
        << "cut " << cut;
    EXPECT_FALSE(error.empty()) << "cut " << cut;
    EXPECT_EQ(out.session_id, -42) << "cut " << cut << ": output mutated";
  }
}

TEST(FleetWireRejectionTest, TrailingBytesAreRejected) {
  std::string frame =
      fleet::BuildRequestFrame(7, fleet::EncodeRequestBody(SampleRequest()));
  frame.push_back('\x00');
  uint64_t id = 0;
  RecoveryRequest out;
  std::string error;
  EXPECT_FALSE(fleet::DecodeRequestPayload(
      frame.data() + fleet::kFrameHeaderBytes,
      frame.size() - fleet::kFrameHeaderBytes, &id, &out, &error));
  EXPECT_NE(error.find("trailing"), std::string::npos) << error;
}

TEST(FleetWireRejectionTest, GarbagePayloadsNeverAbortOrOverAllocate) {
  Rng rng(99);
  for (int iter = 0; iter < 256; ++iter) {
    const size_t n = static_cast<size_t>(rng.UniformInt(0, 160));
    std::string junk(n, '\0');
    for (char& c : junk) {
      c = static_cast<char>(rng.UniformInt(0, 255));
    }
    uint64_t id = 0;
    std::string error;
    RecoveryRequest req;
    fleet::DecodeRequestPayload(junk.data(), junk.size(), &id, &req, &error);
    // A random blob that passes the layout check still cannot claim more
    // elements than its own bytes hold (the pre-allocation bound).
    EXPECT_LE(req.input.points.size(), n / 24 + 1);
    RecoveryResponse resp;
    fleet::DecodeResponsePayload(junk.data(), junk.size(), &id, &resp,
                                 &error);
    obs::MetricsSnapshot snap;
    obs::DecodeMetricsSnapshot(junk.data(), junk.size(), &snap, &error);
  }
}

TEST(FleetWireRejectionTest, PointCountBeyondPayloadRejectedBeforeAllocation) {
  // Claim 2^20 points with only a handful of payload bytes behind the
  // count: the decoder must reject on the byte bound, not allocate 24 MB.
  std::string payload;
  PutU64(&payload, 5);  // correlation id
  PutU32(&payload, serve::kRequestWireVersion);
  PutU32(&payload, fleet::kMaxWirePoints);
  PutF64(&payload, 1.0);
  uint64_t id = 0;
  RecoveryRequest out;
  std::string error;
  EXPECT_FALSE(fleet::DecodeRequestPayload(payload.data(), payload.size(),
                                           &id, &out, &error));
  EXPECT_NE(error.find("out of bounds"), std::string::npos) << error;
  EXPECT_TRUE(out.input.points.empty());
}

// ----- Wire protocol: control frames ----------------------------------------

TEST(FleetWireTest, ControlFramesRoundTrip) {
  std::string error;
  {
    const std::string frame = fleet::BuildSwapModelFrame("/tmp/weights.snap");
    std::string path;
    ASSERT_TRUE(fleet::DecodeSwapModelPayload(
        frame.data() + fleet::kFrameHeaderBytes,
        frame.size() - fleet::kFrameHeaderBytes, &path, &error))
        << error;
    EXPECT_EQ(path, "/tmp/weights.snap");
  }
  {
    const std::string frame =
        fleet::BuildSwapReplyFrame(false, "shape mismatch", 4);
    bool ok = true;
    std::string message;
    uint64_t version = 0;
    ASSERT_TRUE(fleet::DecodeSwapReplyPayload(
        frame.data() + fleet::kFrameHeaderBytes,
        frame.size() - fleet::kFrameHeaderBytes, &ok, &message, &version,
        &error))
        << error;
    EXPECT_FALSE(ok);
    EXPECT_EQ(message, "shape mismatch");
    EXPECT_EQ(version, 4u);
  }
  {
    const std::string frame = fleet::BuildPongFrame(17.5);
    double depth = 0.0;
    ASSERT_TRUE(fleet::DecodePongPayload(
        frame.data() + fleet::kFrameHeaderBytes,
        frame.size() - fleet::kFrameHeaderBytes, &depth, &error))
        << error;
    EXPECT_EQ(depth, 17.5);
  }
  {
    FrameHeader header;
    const std::string q = fleet::BuildMetricsQueryFrame();
    ASSERT_TRUE(fleet::ParseFrameHeader(q.data(), q.size(), &header, &error))
        << error;
    EXPECT_EQ(header.type, FrameType::kMetricsQuery);
    EXPECT_EQ(header.payload_size, 0u);
  }
}

obs::MetricsSnapshot SampleMetrics() {
  obs::MetricsSnapshot snap;
  snap.counters["serve.ok"] = 12;
  snap.counters["serve.shed"] = 3;
  snap.gauges["serve.queue.depth"] = 4.5;
  obs::HistogramSnapshot hist;
  hist.edges =
      std::make_shared<const std::vector<double>>(std::vector<double>{
          1.0, 2.0, 4.0, 8.0});
  hist.counts = {0, 2, 5, 1, 0};
  hist.sum = 19.5;
  hist.min = 1.25;
  hist.max = 6.0;
  snap.histograms["serve.latency_ms"] = hist;
  return snap;
}

TEST(FleetWireTest, MetricsSnapshotRoundTripsAndMerges) {
  const obs::MetricsSnapshot snap = SampleMetrics();
  const obs::HistogramSnapshot& hist = snap.histograms.at("serve.latency_ms");

  std::string bytes;
  std::string error;
  ASSERT_TRUE(obs::EncodeMetricsSnapshot(snap, &bytes, &error)) << error;

  obs::MetricsSnapshot a;
  ASSERT_TRUE(obs::DecodeMetricsSnapshot(bytes.data(), bytes.size(), &a,
                                         &error))
      << error;
  EXPECT_EQ(a.counters, snap.counters);
  EXPECT_EQ(a.gauges, snap.gauges);
  ASSERT_EQ(a.histograms.count("serve.latency_ms"), 1u);
  const obs::HistogramSnapshot& h = a.histograms["serve.latency_ms"];
  EXPECT_EQ(*h.edges, *hist.edges);
  EXPECT_EQ(h.counts, hist.counts);
  EXPECT_EQ(h.sum, hist.sum);
  EXPECT_EQ(h.min, hist.min);
  EXPECT_EQ(h.max, hist.max);

  // Two decoded worker snapshots merge exactly: counters and histogram
  // buckets add, so the fleet quantile is computed over the union.
  obs::MetricsSnapshot b;
  ASSERT_TRUE(obs::DecodeMetricsSnapshot(bytes.data(), bytes.size(), &b,
                                         &error));
  a.Merge(b);
  EXPECT_EQ(a.counters["serve.ok"], 24);
  EXPECT_EQ(a.histograms["serve.latency_ms"].TotalCount(),
            2 * hist.TotalCount());
  EXPECT_EQ(a.histograms["serve.latency_ms"].sum, 2 * hist.sum);

  // And the codec is as strict as the frame decoders: every truncation of
  // the metrics payload is an error, not a partial snapshot.
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    obs::MetricsSnapshot out;
    std::string trunc_error;
    EXPECT_FALSE(
        obs::DecodeMetricsSnapshot(bytes.data(), cut, &out, &trunc_error))
        << "cut " << cut;
    EXPECT_TRUE(out.counters.empty()) << "cut " << cut << ": mutated";
  }
}

TEST(FleetWireTest, Fnv1a64MatchesReferenceVectors) {
  // Published FNV-1a 64 test vectors: the route key must never drift, or a
  // router upgrade reshuffles every shard.
  EXPECT_EQ(fleet::Fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(fleet::Fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fleet::Fnv1a64("foobar"), 0x85944171f73967e8ull);
}

// ----- Wire protocol: golden bytes ------------------------------------------

// FNV-1a hashes of fixed protocol-version-1 encodings. A round trip cannot
// see a layout change made the same way on the encoder and the decoder;
// these hashes can. A mismatch means peers built earlier no longer
// interoperate: bump kWireVersion / kRequestWireVersion rather than the hash.
TEST(FleetWireTest, EncodingsMatchGoldenHashes) {
  struct Golden {
    std::string name;
    std::string bytes;
    uint64_t hash;
  };
  std::vector<Golden> goldens = {
      {"request body", fleet::EncodeRequestBody(SampleRequest()),
       0xbb516267f99327e6ull},
      {"metrics reply", fleet::BuildMetricsReplyFrame(SampleMetrics()),
       0x5b42d67c2efba426ull},
      {"swap model", fleet::BuildSwapModelFrame("/tmp/weights.snap"),
       0x9f32253fbdafeb08ull},
      {"swap reply", fleet::BuildSwapReplyFrame(false, "shape mismatch", 4),
       0x42945fbe1c8cb4e3ull},
      {"pong", fleet::BuildPongFrame(17.5), 0xc40ded2f507fb232ull},
  };
  // Indexed by ResponseKind.
  const uint64_t response_hashes[] = {
      0x6b817b23a05cb9e6ull, 0x937bee6fc98f4776ull, 0x5a0c9b71c1190efaull,
      0xa9c65fb86609cc74ull, 0xf1ffd1be1cfe533full};
  for (const ResponseKind kind :
       {ResponseKind::kOk, ResponseKind::kValidationError,
        ResponseKind::kDeadlineMissed, ResponseKind::kShed,
        ResponseKind::kInternalError}) {
    RecoveryResponse resp = SampleResponse();
    resp.kind = kind;
    resp.ok = kind == ResponseKind::kOk;
    resp.degraded = kind == ResponseKind::kDeadlineMissed;
    if (!resp.ok) resp.error = "why it failed";
    goldens.push_back({std::string("response ") + serve::ResponseKindName(kind),
                       fleet::BuildResponseFrame(99, resp),
                       response_hashes[static_cast<int>(kind)]});
  }
  for (const Golden& g : goldens) {
    EXPECT_EQ(fleet::Fnv1a64(g.bytes), g.hash)
        << g.name << ": 0x" << std::hex << fleet::Fnv1a64(g.bytes);
  }
}

// ----- Sockets ---------------------------------------------------------------

std::string TestSocketPath(const char* name) {
  return "unix:/tmp/fleet_test_" + std::to_string(::getpid()) + "_" + name +
         ".sock";
}

TEST(FleetSocketTest, UnixFrameRoundTrip) {
  const std::string endpoint = TestSocketPath("unix_rt");
  fleet::Socket listener;
  std::string error;
  ASSERT_TRUE(fleet::ListenOn(endpoint, 4, &listener, nullptr, &error))
      << error;

  std::thread server([&] {
    fleet::Socket conn;
    std::string server_error;
    ASSERT_TRUE(fleet::AcceptOn(listener, &conn, &server_error))
        << server_error;
    FrameHeader header;
    std::string payload;
    ASSERT_TRUE(fleet::RecvFrame(conn, &header, &payload, &server_error))
        << server_error;
    EXPECT_EQ(header.type, FrameType::kRequest);
    // Echo the payload back as a pong-style response frame.
    ASSERT_TRUE(fleet::SendFrame(conn, fleet::BuildPongFrame(1.0),
                                 &server_error))
        << server_error;
  });

  fleet::Socket client;
  ASSERT_TRUE(fleet::ConnectTo(endpoint, &client, &error)) << error;
  const std::string frame =
      fleet::BuildRequestFrame(5, fleet::EncodeRequestBody(SampleRequest()));
  ASSERT_TRUE(fleet::SendFrame(client, frame, &error)) << error;
  FrameHeader header;
  std::string payload;
  ASSERT_TRUE(fleet::RecvFrame(client, &header, &payload, &error)) << error;
  EXPECT_EQ(header.type, FrameType::kPong);
  server.join();
}

TEST(FleetSocketTest, TcpPortZeroResolvesAndRoundTrips) {
  fleet::Socket listener;
  std::string bound;
  std::string error;
  ASSERT_TRUE(
      fleet::ListenOn("tcp:127.0.0.1:0", 4, &listener, &bound, &error))
      << error;
  // The kernel-assigned port is readable back for clients.
  ASSERT_NE(bound, "tcp:127.0.0.1:0");
  ASSERT_EQ(bound.rfind("tcp:127.0.0.1:", 0), 0u) << bound;

  std::thread server([&] {
    fleet::Socket conn;
    std::string server_error;
    ASSERT_TRUE(fleet::AcceptOn(listener, &conn, &server_error));
    FrameHeader header;
    std::string payload;
    ASSERT_TRUE(fleet::RecvFrame(conn, &header, &payload, &server_error));
    ASSERT_TRUE(
        fleet::SendFrame(conn, fleet::BuildPongFrame(2.0), &server_error));
  });
  fleet::Socket client;
  ASSERT_TRUE(fleet::ConnectTo(bound, &client, &error)) << error;
  ASSERT_TRUE(fleet::SendFrame(client, fleet::BuildPingFrame(), &error));
  FrameHeader header;
  std::string payload;
  ASSERT_TRUE(fleet::RecvFrame(client, &header, &payload, &error)) << error;
  double depth = 0.0;
  ASSERT_TRUE(fleet::DecodePongPayload(payload.data(), payload.size(),
                                       &depth, &error));
  EXPECT_EQ(depth, 2.0);
  server.join();
}

TEST(FleetSocketTest, RecvFrameRejectsGarbageAndOversizedHeaders) {
  const std::string endpoint = TestSocketPath("garbage");
  fleet::Socket listener;
  std::string error;
  ASSERT_TRUE(fleet::ListenOn(endpoint, 4, &listener, nullptr, &error));

  std::thread server([&] {
    for (int round = 0; round < 2; ++round) {
      fleet::Socket conn;
      std::string server_error;
      ASSERT_TRUE(fleet::AcceptOn(listener, &conn, &server_error));
      FrameHeader header;
      std::string payload;
      // Both rounds must fail cleanly — error string, no abort, and
      // critically no payload allocation for the oversized length prefix.
      EXPECT_FALSE(
          fleet::RecvFrame(conn, &header, &payload, &server_error));
      EXPECT_FALSE(server_error.empty());
    }
  });

  {
    fleet::Socket client;
    ASSERT_TRUE(fleet::ConnectTo(endpoint, &client, &error));
    std::string junk(fleet::kFrameHeaderBytes, '\x5a');
    ASSERT_TRUE(fleet::SendAll(client, junk, &error));
  }
  {
    fleet::Socket client;
    ASSERT_TRUE(fleet::ConnectTo(endpoint, &client, &error));
    std::string head;
    fleet::AppendFrameHeader(&head, FrameType::kRequest,
                             fleet::kMaxFramePayload + 1);
    ASSERT_TRUE(fleet::SendAll(client, head, &error));
  }
  server.join();
}

// ----- Router front end (no workers needed) ---------------------------------

TEST(FleetRouterTest, FrontEndRejectsInvalidRequestsWithoutWorkerRoundTrip) {
  // Zero workers: if validation were deferred to a worker, these futures
  // could never resolve with a validation error. This regression-pins the
  // hoisted ValidateRequest at the router front end.
  fleet::FleetRouterConfig cfg;
  fleet::FleetRouter router(cfg);

  RecoveryRequest empty;  // no input points
  auto f1 = router.Submit(std::move(empty));
  RecoveryResponse r1 = GetOrDie(f1);
  EXPECT_FALSE(r1.ok);
  EXPECT_EQ(r1.kind, ResponseKind::kValidationError);
  EXPECT_NE(r1.error.find("empty input"), std::string::npos) << r1.error;

  RecoveryRequest unsorted = SampleRequest();
  unsorted.target_times[1] = unsorted.target_times[0];  // not increasing
  auto f2 = router.Submit(std::move(unsorted));
  RecoveryResponse r2 = GetOrDie(f2);
  EXPECT_EQ(r2.kind, ResponseKind::kValidationError);

  // A VALID request with no workers is an internal error, distinct from
  // validation — and counted separately.
  auto f3 = router.Submit(SampleRequest());
  RecoveryResponse r3 = GetOrDie(f3);
  EXPECT_FALSE(r3.ok);
  EXPECT_EQ(r3.kind, ResponseKind::kInternalError);
  EXPECT_NE(r3.error.find("no alive fleet worker"), std::string::npos)
      << r3.error;

  const fleet::FleetStats stats = router.Stats();
  EXPECT_EQ(stats.submitted, 3);
  EXPECT_EQ(stats.validation_rejected, 2);
  EXPECT_EQ(stats.no_worker_available, 1);
  router.Shutdown();
}

// ----- Cross-process fixture -------------------------------------------------

/// Shares the chaos-tiny universe across the multi-process tests: the
/// profile the workers rebuild by name, the in-process reference answers,
/// and one snapshot every worker loads. Mirrors ServeChaosFixture's model
/// seed so both suites pin the same weights.
class FleetProcessFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    fleet::FleetProfile profile;
    std::string error;
    ASSERT_TRUE(fleet::LookupFleetProfile("chaos-tiny", &profile, &error))
        << error;
    dataset_ = BuildDataset(profile.dataset).release();
    ctx_ = new ModelContext(ModelContext::FromDataset(*dataset_));
    SeedGlobalRng(61);
    model_ = new RnTrajRec(profile.model, *ctx_);
    model_->SetTrainingMode(false);
    model_->BeginInference();
    for (const auto& s : dataset_->test()) {
      serve::RecoveryRequest req = serve::RequestFromSample(s);
      TrajectorySample eph = MakeEphemeralSample(
          std::move(req.input), std::move(req.input_indices),
          req.target_times);
      reference_->push_back(model_->Recover(eph));
    }
    snapshot_path_ = new std::string("/tmp/fleet_test_" +
                                     std::to_string(::getpid()) +
                                     "_model.snapshot");
    ASSERT_TRUE(model_->SaveSnapshot(*snapshot_path_, &error)) << error;
  }

  static void TearDownTestSuite() {
    std::remove(snapshot_path_->c_str());
    delete snapshot_path_;
    delete model_;
    delete ctx_;
    delete dataset_;
    delete reference_;
    snapshot_path_ = nullptr;
    model_ = nullptr;
    ctx_ = nullptr;
    dataset_ = nullptr;
    reference_ = nullptr;
  }

  struct Fleet {
    std::vector<pid_t> pids;
    fleet::FleetRouterConfig config;
    std::vector<fleet::WorkerSpawn> spawns;
  };

  /// Spawns `n` chaos-tiny workers on per-test Unix sockets.
  static Fleet SpawnFleet(int n, const char* tag) {
    Fleet f;
    const std::string base = "/tmp/fleet_test_" +
                             std::to_string(::getpid()) + "_" + tag + "_w";
    for (int i = 0; i < n; ++i) {
      fleet::WorkerSpawn spawn;
      spawn.profile = "chaos-tiny";
      spawn.snapshot_path = *snapshot_path_;
      spawn.data_endpoint = "unix:" + base + std::to_string(i) + ".sock";
      spawn.control_endpoint = "unix:" + base + std::to_string(i) + ".ctl";
      pid_t pid = 0;
      std::string error;
      EXPECT_TRUE(fleet::SpawnWorkerProcess(spawn, &pid, &error)) << error;
      f.pids.push_back(pid);
      f.spawns.push_back(spawn);
      f.config.workers.push_back(
          {spawn.data_endpoint, spawn.control_endpoint});
    }
    return f;
  }

  static void KillFleet(Fleet* f) {
    for (pid_t& pid : f->pids) {
      fleet::KillWorkerProcess(pid);
      pid = -1;
    }
    for (const auto& spawn : f->spawns) {
      std::remove(spawn.data_endpoint.substr(5).c_str());
      std::remove(spawn.control_endpoint.substr(5).c_str());
    }
  }

  static void ExpectMatchesReference(const RecoveryResponse& resp, size_t i) {
    const MatchedTrajectory& ref = (*reference_)[i];
    ASSERT_EQ(resp.recovered.size(), ref.size()) << "request " << i;
    for (int j = 0; j < ref.size(); ++j) {
      EXPECT_EQ(resp.recovered.points[j].seg_id, ref.points[j].seg_id)
          << "request " << i << " step " << j;
      EXPECT_NEAR(resp.recovered.points[j].ratio, ref.points[j].ratio, 1e-5)
          << "request " << i << " step " << j;
    }
  }

  static Dataset* dataset_;
  static ModelContext* ctx_;
  static RnTrajRec* model_;
  static std::vector<MatchedTrajectory>* reference_;
  static std::string* snapshot_path_;
};

Dataset* FleetProcessFixture::dataset_ = nullptr;
ModelContext* FleetProcessFixture::ctx_ = nullptr;
RnTrajRec* FleetProcessFixture::model_ = nullptr;
std::vector<MatchedTrajectory>* FleetProcessFixture::reference_ =
    new std::vector<MatchedTrajectory>();
std::string* FleetProcessFixture::snapshot_path_ = nullptr;

TEST_F(FleetProcessFixture, FleetAnswersAreBitIdenticalToInProcess) {
  Fleet f = SpawnFleet(2, "equiv");
  {
    fleet::FleetRouter router(f.config);
    ASSERT_TRUE(router.WaitForAlive(2, 120000)) << "workers never came up";

    std::vector<std::future<RecoveryResponse>> futures;
    std::vector<size_t> sample_of;
    for (int pass = 0; pass < 3; ++pass) {
      for (size_t i = 0; i < dataset_->test().size(); ++i) {
        futures.push_back(
            router.Submit(serve::RequestFromSample(dataset_->test()[i])));
        sample_of.push_back(i);
      }
    }
    for (size_t k = 0; k < futures.size(); ++k) {
      RecoveryResponse resp = GetOrDie(futures[k]);
      ASSERT_TRUE(resp.ok) << "request " << k << ": " << resp.error;
      EXPECT_EQ(resp.kind, ResponseKind::kOk);
      ExpectMatchesReference(resp, sample_of[k]);
    }

    // Both shards served: consistent hashing spread the 8 distinct bodies.
    const fleet::FleetStats stats = router.Stats();
    int64_t total_sent = 0;
    for (const auto& w : stats.workers) {
      total_sent += w.sent;
      EXPECT_EQ(w.answered, w.sent) << "worker " << w.index;
      EXPECT_EQ(w.failed, 0) << "worker " << w.index;
    }
    EXPECT_EQ(total_sent, static_cast<int64_t>(futures.size()));
    EXPECT_GT(stats.workers[0].sent, 0);
    EXPECT_GT(stats.workers[1].sent, 0);

    // Identical bodies land on identical workers: re-submitting the same
    // request must not move shards (counted via per-worker sent deltas).
    const auto before = router.Stats();
    auto f1 = router.Submit(serve::RequestFromSample(dataset_->test()[0]));
    GetOrDie(f1);
    auto f2 = router.Submit(serve::RequestFromSample(dataset_->test()[0]));
    GetOrDie(f2);
    const auto after = router.Stats();
    int moved = 0;
    for (size_t w = 0; w < after.workers.size(); ++w) {
      if (after.workers[w].sent != before.workers[w].sent) ++moved;
    }
    EXPECT_EQ(moved, 1) << "equal bodies routed to different workers";

    // The merged fleet metrics account for every request served.
    std::string merge_error;
    obs::MetricsSnapshot ms = router.FleetMetrics(&merge_error);
    EXPECT_TRUE(merge_error.empty()) << merge_error;
    EXPECT_EQ(ms.counters["serve.ok"],
              static_cast<int64_t>(futures.size()) + 2);
    router.Shutdown();
  }
  KillFleet(&f);
}

TEST_F(FleetProcessFixture, SigkillMidStreamLeavesZeroUnansweredRequests) {
  Fleet f = SpawnFleet(3, "chaos");
  {
    fleet::FleetRouter router(f.config);
    ASSERT_TRUE(router.WaitForAlive(3, 120000)) << "workers never came up";

    // Flood a stream and SIGKILL one worker while it is in flight.
    std::vector<std::future<RecoveryResponse>> futures;
    std::vector<size_t> sample_of;
    for (int pass = 0; pass < 6; ++pass) {
      for (size_t i = 0; i < dataset_->test().size(); ++i) {
        futures.push_back(
            router.Submit(serve::RequestFromSample(dataset_->test()[i])));
        sample_of.push_back(i);
      }
    }
    fleet::KillWorkerProcess(f.pids[0]);  // SIGKILL: no goodbye frame
    f.pids[0] = -1;

    // The hard guarantee: EVERY submitted future resolves — answered by a
    // worker, or failed with a classified internal error. Never dangling.
    int ok = 0;
    int failed = 0;
    for (size_t k = 0; k < futures.size(); ++k) {
      RecoveryResponse resp = GetOrDie(futures[k]);
      if (resp.ok) {
        ++ok;
        ExpectMatchesReference(resp, sample_of[k]);
      } else {
        ++failed;
        EXPECT_EQ(resp.kind, ResponseKind::kInternalError)
            << "request " << k << ": " << resp.error;
      }
    }
    EXPECT_EQ(ok + failed, static_cast<int>(futures.size()));
    EXPECT_GT(ok, 0) << "survivors served nothing";

    // Wait for the router to notice the death, then verify survivors carry
    // the full load: every post-kill request must succeed.
    const auto death_deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (router.AliveWorkers().size() != 2 &&
           std::chrono::steady_clock::now() < death_deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ASSERT_EQ(router.AliveWorkers().size(), 2u) << "dead worker undetected";

    std::vector<std::future<RecoveryResponse>> after;
    for (size_t i = 0; i < dataset_->test().size(); ++i) {
      after.push_back(
          router.Submit(serve::RequestFromSample(dataset_->test()[i])));
    }
    for (size_t i = 0; i < after.size(); ++i) {
      RecoveryResponse resp = GetOrDie(after[i]);
      ASSERT_TRUE(resp.ok) << "post-kill request " << i << ": " << resp.error;
      ExpectMatchesReference(resp, i);
    }

    // Restart: a fresh worker process on the SAME endpoints rejoins the
    // ring automatically (manager reconnect + unlink-before-bind).
    pid_t replacement = 0;
    std::string error;
    ASSERT_TRUE(fleet::SpawnWorkerProcess(f.spawns[0], &replacement, &error))
        << error;
    f.pids[0] = replacement;
    ASSERT_TRUE(router.WaitForAlive(3, 120000)) << "restart never rejoined";

    std::vector<std::future<RecoveryResponse>> rejoined;
    for (int pass = 0; pass < 2; ++pass) {
      for (size_t i = 0; i < dataset_->test().size(); ++i) {
        rejoined.push_back(
            router.Submit(serve::RequestFromSample(dataset_->test()[i])));
      }
    }
    for (size_t k = 0; k < rejoined.size(); ++k) {
      RecoveryResponse resp = GetOrDie(rejoined[k]);
      ASSERT_TRUE(resp.ok) << "post-restart request " << k << ": "
                           << resp.error;
      ExpectMatchesReference(resp, k % dataset_->test().size());
    }
    router.Shutdown();
  }
  KillFleet(&f);
}

TEST_F(FleetProcessFixture, MalformedFrameClosesOneConnectionNotTheWorker) {
  Fleet f = SpawnFleet(1, "malformed");
  {
    fleet::FleetRouter router(f.config);
    ASSERT_TRUE(router.WaitForAlive(1, 120000)) << "worker never came up";

    // Poison a RAW side connection with garbage bytes: the worker must
    // drop that connection (EOF for us) and nothing else.
    {
      fleet::Socket raw;
      std::string error;
      ASSERT_TRUE(
          fleet::ConnectTo(f.spawns[0].data_endpoint, &raw, &error))
          << error;
      std::string junk(fleet::kFrameHeaderBytes + 16, '\x7e');
      ASSERT_TRUE(fleet::SendAll(raw, junk, &error)) << error;
      FrameHeader header;
      std::string payload;
      EXPECT_FALSE(fleet::RecvFrame(raw, &header, &payload, &error))
          << "worker answered a garbage frame";
    }
    // A well-formed frame with a garbage payload is equally fatal to its
    // own connection only.
    {
      fleet::Socket raw;
      std::string error;
      ASSERT_TRUE(
          fleet::ConnectTo(f.spawns[0].data_endpoint, &raw, &error));
      std::string frame;
      fleet::AppendFrameHeader(&frame, FrameType::kRequest, 24);
      frame.append(24, '\xff');
      ASSERT_TRUE(fleet::SendAll(raw, frame, &error));
      FrameHeader header;
      std::string payload;
      EXPECT_FALSE(fleet::RecvFrame(raw, &header, &payload, &error));
    }

    // The router's connection — and the worker — survived both.
    std::vector<std::future<RecoveryResponse>> futures;
    for (size_t i = 0; i < dataset_->test().size(); ++i) {
      futures.push_back(
          router.Submit(serve::RequestFromSample(dataset_->test()[i])));
    }
    for (size_t i = 0; i < futures.size(); ++i) {
      RecoveryResponse resp = GetOrDie(futures[i]);
      ASSERT_TRUE(resp.ok) << resp.error;
      ExpectMatchesReference(resp, i);
    }
    router.Shutdown();
  }
  KillFleet(&f);
}

TEST_F(FleetProcessFixture, ControlEndpointServesMetricsAndPing) {
  Fleet f = SpawnFleet(1, "control");
  {
    fleet::FleetRouter router(f.config);
    ASSERT_TRUE(router.WaitForAlive(1, 120000));
    std::vector<std::future<RecoveryResponse>> futures;
    for (size_t i = 0; i < dataset_->test().size(); ++i) {
      futures.push_back(
          router.Submit(serve::RequestFromSample(dataset_->test()[i])));
    }
    for (auto& fut : futures) {
      ASSERT_TRUE(GetOrDie(fut).ok);
    }

    // Raw control round trips, the scrape path an external exporter uses.
    fleet::Socket control;
    std::string error;
    ASSERT_TRUE(
        fleet::ConnectTo(f.spawns[0].control_endpoint, &control, &error))
        << error;
    ASSERT_TRUE(
        fleet::SendFrame(control, fleet::BuildMetricsQueryFrame(), &error));
    FrameHeader header;
    std::string payload;
    ASSERT_TRUE(fleet::RecvFrame(control, &header, &payload, &error))
        << error;
    ASSERT_EQ(header.type, FrameType::kMetricsReply);
    obs::MetricsSnapshot snap;
    ASSERT_TRUE(fleet::DecodeMetricsReplyPayload(payload.data(),
                                                 payload.size(), &snap,
                                                 &error))
        << error;
    EXPECT_EQ(snap.counters["serve.ok"],
              static_cast<int64_t>(futures.size()));
    EXPECT_GT(snap.histograms["serve.latency_ms"].TotalCount(), 0);

    // Ping on the same connection: liveness + queue depth (drained: 0).
    ASSERT_TRUE(fleet::SendFrame(control, fleet::BuildPingFrame(), &error));
    ASSERT_TRUE(fleet::RecvFrame(control, &header, &payload, &error));
    ASSERT_EQ(header.type, FrameType::kPong);
    double depth = -1.0;
    ASSERT_TRUE(fleet::DecodePongPayload(payload.data(), payload.size(),
                                         &depth, &error));
    EXPECT_EQ(depth, 0.0);

    // A swap pointed at a nonsense path fails gracefully over the wire and
    // leaves the worker serving generation 0.
    ASSERT_TRUE(fleet::SendFrame(
        control, fleet::BuildSwapModelFrame("/nonexistent/weights.snap"),
        &error));
    ASSERT_TRUE(fleet::RecvFrame(control, &header, &payload, &error));
    ASSERT_EQ(header.type, FrameType::kSwapReply);
    bool swap_ok = true;
    std::string message;
    uint64_t version = 99;
    ASSERT_TRUE(fleet::DecodeSwapReplyPayload(payload.data(), payload.size(),
                                              &swap_ok, &message, &version,
                                              &error));
    EXPECT_FALSE(swap_ok);
    EXPECT_FALSE(message.empty());
    EXPECT_EQ(version, 0u);

    auto still = router.Submit(serve::RequestFromSample(dataset_->test()[0]));
    RecoveryResponse resp = GetOrDie(still);
    ASSERT_TRUE(resp.ok) << resp.error;
    EXPECT_EQ(resp.model_version, 0u);
    router.Shutdown();
  }
  KillFleet(&f);
}

}  // namespace
}  // namespace rntraj
