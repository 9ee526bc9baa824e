// The shared byte codec (src/common/byte_io.h) and every decoder built on
// it: the reader's own contract (latching, consume-nothing-on-failure,
// GetCount's bounds), then a deterministic mutation fuzzer over valid
// snapshot files, fleet frame payloads and metrics snapshots. Each mutant
// must either decode or fail with a non-empty error and an untouched
// output; it must never abort or over-allocate.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/byte_io.h"
#include "src/common/random.h"
#include "src/fleet/wire.h"
#include "src/obs/metrics_wire.h"
#include "src/snapshot/snapshot.h"

namespace rntraj {
namespace {

// ----- ByteReader ------------------------------------------------------------

TEST(ByteReaderTest, PutThenGetRoundTrips) {
  std::string bytes;
  PutU8(&bytes, 0xab);
  PutU32(&bytes, 0xdeadbeefu);
  PutU64(&bytes, 0x0123456789abcdefull);
  PutI32(&bytes, -5);
  PutI64(&bytes, -6);
  PutF64(&bytes, 2.5);
  PutString(&bytes, std::string("a\0b", 3));
  const float floats[] = {1.5f, -0.25f};
  PutFloats(&bytes, floats, 2);
  EXPECT_EQ(bytes.size(), 1u + 4 + 8 + 4 + 8 + 8 + (4 + 3) + 8);

  ByteReader r(bytes.data(), bytes.size());
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  int32_t i32 = 0;
  int64_t i64 = 0;
  double f64 = 0.0;
  std::string s;
  std::vector<float> fs;
  ASSERT_TRUE(r.GetU8(&u8) && r.GetU32(&u32) && r.GetU64(&u64) &&
              r.GetI32(&i32) && r.GetI64(&i64) && r.GetF64(&f64) &&
              r.GetString(&s, 3) && r.GetFloats(&fs, 2));
  EXPECT_EQ(u8, 0xab);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(u64, 0x0123456789abcdefull);
  EXPECT_EQ(i32, -5);
  EXPECT_EQ(i64, -6);
  EXPECT_EQ(f64, 2.5);
  EXPECT_EQ(s, std::string("a\0b", 3));
  EXPECT_EQ(fs, std::vector<float>({1.5f, -0.25f}));
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_TRUE(r.ok());
}

TEST(ByteReaderTest, SubReaderIsConfinedToItsBytes) {
  std::string bytes;
  PutU32(&bytes, 1);
  PutU32(&bytes, 2);
  ByteReader r(bytes.data(), bytes.size());
  ByteReader sub;
  ASSERT_TRUE(r.GetSub(4, &sub));
  EXPECT_EQ(r.remaining(), 4u);
  uint32_t v = 0;
  ASSERT_TRUE(sub.GetU32(&v));
  EXPECT_EQ(v, 1u);
  EXPECT_FALSE(sub.GetU32(&v));  // the neighbour's bytes are out of reach
  ASSERT_TRUE(r.GetU32(&v));
  EXPECT_EQ(v, 2u);
  EXPECT_FALSE(r.GetSub(1, &sub));
}

// After any failed read, every getter fails, consumes nothing and leaves its
// output alone — whichever getter failed first.
TEST(ByteReaderTest, FailureLatchesForEveryGetter) {
  std::string bytes;
  PutU32(&bytes, 100);  // a string length / count far past the data
  PutU64(&bytes, 7);
  PutU64(&bytes, 8);
  const std::vector<std::pair<std::string, std::function<bool(ByteReader&)>>>
      first_failures = {
          {"GetString over its cap",
           [](ByteReader& r) {
             std::string s;
             return r.GetString(&s, 8);
           }},
          {"GetCount past the remaining bytes",
           [](ByteReader& r) {
             uint32_t n = 0;
             return r.GetCount(&n, 1);
           }},
          {"GetCount over its cap",
           [](ByteReader& r) {
             uint32_t n = 0;
             return r.GetCount(&n, 1, 99);
           }},
          {"GetFloats past the end",
           [](ByteReader& r) {
             std::vector<float> f;
             return r.GetFloats(&f, 6);
           }},
          {"GetSub past the end",
           [](ByteReader& r) {
             ByteReader sub;
             return r.GetSub(21, &sub);
           }},
          {"Fail", [](ByteReader& r) { return r.Fail(); }},
      };
  for (const auto& [what, fail] : first_failures) {
    ByteReader r(bytes.data(), bytes.size());
    EXPECT_FALSE(fail(r)) << what;
    EXPECT_FALSE(r.ok()) << what;
    ASSERT_EQ(r.remaining(), bytes.size()) << what << " consumed bytes";

    uint8_t u8 = 1;
    uint32_t u32 = 2;
    uint64_t u64 = 3;
    int32_t i32 = 4;
    int64_t i64 = 5;
    double f64 = 6.0;
    char raw = 'x';
    std::string s = "keep";
    std::vector<float> fs = {9.0f};
    ByteReader sub(bytes.data(), 1);
    EXPECT_FALSE(r.GetBytes(&raw, 1)) << what;
    EXPECT_FALSE(r.GetBytes(&raw, 0)) << what;
    EXPECT_FALSE(r.GetU8(&u8)) << what;
    EXPECT_FALSE(r.GetU32(&u32)) << what;
    EXPECT_FALSE(r.GetU64(&u64)) << what;
    EXPECT_FALSE(r.GetI32(&i32)) << what;
    EXPECT_FALSE(r.GetI64(&i64)) << what;
    EXPECT_FALSE(r.GetF64(&f64)) << what;
    EXPECT_FALSE(r.GetString(&s, 1000)) << what;
    EXPECT_FALSE(r.GetFloats(&fs, 0)) << what;
    EXPECT_FALSE(r.GetFloats(&fs, 1)) << what;
    EXPECT_FALSE(r.GetSub(0, &sub)) << what;
    EXPECT_FALSE(r.GetCount(&u32, 1)) << what;
    EXPECT_EQ(r.remaining(), bytes.size()) << what;
    EXPECT_EQ(u8, 1);
    EXPECT_EQ(u32, 2u);
    EXPECT_EQ(u64, 3u);
    EXPECT_EQ(i32, 4);
    EXPECT_EQ(i64, 5);
    EXPECT_EQ(f64, 6.0);
    EXPECT_EQ(raw, 'x');
    EXPECT_EQ(s, "keep");
    EXPECT_EQ(fs, std::vector<float>({9.0f}));
    EXPECT_EQ(sub.remaining(), 1u);
  }
}

TEST(ByteReaderTest, GetCountChecksCapAndRemainingBytes) {
  // count, then three 8-byte elements.
  const auto payload = [](uint32_t count) {
    std::string b;
    PutU32(&b, count);
    for (int i = 0; i < 3; ++i) PutU64(&b, i);
    return b;
  };
  struct Case {
    uint32_t count;
    size_t cap;
    bool ok;
  };
  for (const Case& c : std::vector<Case>{
           {3, 10, true},             // exactly fits
           {4, 10, false},            // one element too many
           {3, 3, true},              // at the cap
           {3, 2, false},             // over the cap
           {0, 0, true},              // empty
           {0xFFFFFFFFu, UINT32_MAX, false},
       }) {
    const std::string b = payload(c.count);
    ByteReader r(b.data(), b.size());
    uint32_t n = 77;
    EXPECT_EQ(r.GetCount(&n, 8, c.cap), c.ok) << c.count << " cap " << c.cap;
    EXPECT_EQ(r.ok(), c.ok);
    EXPECT_EQ(n, c.ok ? c.count : 77u);
    EXPECT_EQ(r.remaining(), c.ok ? 24u : b.size());
  }
  // The element size is a minimum: with 1-byte elements, 24 remaining bytes
  // admit a count of 24 but not 25.
  const std::string b = payload(25);
  ByteReader r(b.data(), b.size());
  uint32_t n = 0;
  EXPECT_FALSE(r.GetCount(&n, 1));
  const std::string c = payload(24);
  ByteReader r2(c.data(), c.size());
  EXPECT_TRUE(r2.GetCount(&n, 1));
  EXPECT_EQ(n, 24u);
}

// ----- Mutation fuzzer ------------------------------------------------------

/// One decoder under test: a valid encoding to mutate, and a decode into a
/// sentinel output that reports whether the sentinel survived.
struct FuzzTarget {
  std::string name;
  std::string seed;
  std::function<bool(const std::string& bytes, std::string* error,
                     bool* untouched)>
      decode;
};

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

std::vector<FuzzTarget> FuzzTargets() {
  std::vector<FuzzTarget> targets;

  // Snapshot: every section type the writer emits plus one the reader
  // skips, decoded from a file as a worker would.
  snapshot::Snapshot snap;
  snap.state.Add("w", Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6}));
  snap.state.Add("b", Tensor::FromVector({3}, {7, 8, 9}));
  snap.state.Add("stat", Tensor::FromVector({1}, {0.5f}), /*is_buffer=*/true);
  snap.has_trainer_state = true;
  snap.trainer.epochs_done = 3;
  snap.trainer.training_steps = 12;
  snap.trainer.adam = {4, {0.5f, -0.5f}, {0.25f, 0.125f}};
  snap.model_name = "fuzz";
  const std::string snap_path = ::testing::TempDir() + "byte_io_fuzz.snap";
  std::string err;
  EXPECT_TRUE(snapshot::WriteSnapshot(snap_path, snap, &err)) << err;
  std::string snap_bytes = FileBytes(snap_path);
  {  // Append a section of the retired type 2 and count it in the header.
    uint32_t sections = 0;
    std::memcpy(&sections, snap_bytes.data() + 16, sizeof(sections));
    ++sections;
    std::memcpy(snap_bytes.data() + 16, &sections, sizeof(sections));
    const float payload[] = {1, 2, 3, 4};
    PutU32(&snap_bytes, 2);
    PutU32(&snap_bytes, 0);
    PutU64(&snap_bytes, sizeof(payload));
    PutFloats(&snap_bytes, payload, 4);
  }
  const std::string mutant_path = ::testing::TempDir() + "byte_io_mutant.snap";
  targets.push_back(
      {"snapshot", snap_bytes,
       [mutant_path](const std::string& bytes, std::string* error,
                     bool* untouched) {
         std::ofstream(mutant_path, std::ios::binary | std::ios::trunc)
             << bytes;
         snapshot::Snapshot out;
         out.model_name = "sentinel";
         const bool ok = snapshot::ReadSnapshot(mutant_path, &out, error);
         *untouched = out.model_name == "sentinel" && out.state.size() == 0 &&
                      !out.has_trainer_state;
         return ok;
       }});

  const auto payload_of = [](const std::string& frame) {
    return frame.substr(fleet::kFrameHeaderBytes);
  };

  // Frame header.
  targets.push_back(
      {"frame header", fleet::BuildPongFrame(1.0).substr(0, 28),
       [](const std::string& bytes, std::string* error, bool* untouched) {
         fleet::FrameHeader out;
         out.type = fleet::FrameType::kPing;
         out.payload_size = 99;
         const bool ok =
             fleet::ParseFrameHeader(bytes.data(), bytes.size(), &out, error);
         *untouched = out.type == fleet::FrameType::kPing &&
                      out.payload_size == 99;
         return ok;
       }});

  // Request payload.
  serve::RecoveryRequest req;
  req.input.points = {{{10.5, -3.25}, 100.0}, {{12.75, 0.5}, 190.0}};
  req.target_times = {100.0, 145.0, 190.0};
  req.input_indices = {0, 2};
  req.deadline_ms = 250.0;
  targets.push_back(
      {"request",
       payload_of(fleet::BuildRequestFrame(7, fleet::EncodeRequestBody(req))),
       [](const std::string& bytes, std::string* error, bool* untouched) {
         uint64_t id = 0xdead;
         serve::RecoveryRequest out;
         out.deadline_ms = -777.0;
         const bool ok = fleet::DecodeRequestPayload(
             bytes.data(), bytes.size(), &id, &out, error);
         *untouched = id == 0xdead && out.deadline_ms == -777.0 &&
                      out.input.points.empty() && out.target_times.empty();
         return ok;
       }});

  // Response payload.
  serve::RecoveryResponse resp;
  resp.ok = false;
  resp.kind = serve::ResponseKind::kDeadlineMissed;
  resp.error = "late";
  resp.degraded = true;
  resp.recovered.points = {{7, 0.25, 100.0}, {9, 0.5, 115.0}};
  resp.batch_size = 4;
  resp.session_id = 1;
  resp.model_version = 3;
  targets.push_back(
      {"response", payload_of(fleet::BuildResponseFrame(9, resp)),
       [](const std::string& bytes, std::string* error, bool* untouched) {
         uint64_t id = 0xdead;
         serve::RecoveryResponse out;
         out.session_id = -42;
         const bool ok = fleet::DecodeResponsePayload(
             bytes.data(), bytes.size(), &id, &out, error);
         *untouched = id == 0xdead && out.session_id == -42 &&
                      out.recovered.points.empty();
         return ok;
       }});

  // Metrics snapshot (the metrics-reply payload).
  obs::MetricsSnapshot metrics;
  metrics.counters["serve.ok"] = 12;
  metrics.gauges["serve.queue.depth"] = 4.5;
  obs::HistogramSnapshot hist;
  hist.edges = std::make_shared<const std::vector<double>>(
      std::vector<double>{1.0, 2.0, 4.0});
  hist.counts = {0, 2, 5, 1};
  hist.sum = 19.5;
  hist.min = 1.25;
  hist.max = 6.0;
  metrics.histograms["serve.latency_ms"] = hist;
  targets.push_back(
      {"metrics", payload_of(fleet::BuildMetricsReplyFrame(metrics)),
       [](const std::string& bytes, std::string* error, bool* untouched) {
         obs::MetricsSnapshot out;
         out.counters["sentinel"] = 1;
         const bool ok = fleet::DecodeMetricsReplyPayload(
             bytes.data(), bytes.size(), &out, error);
         *untouched = out.counters.size() == 1 && out.counters.count("sentinel") &&
                      out.gauges.empty() && out.histograms.empty();
         return ok;
       }});

  // Control payloads.
  targets.push_back(
      {"swap model", payload_of(fleet::BuildSwapModelFrame("/tmp/w.snap")),
       [](const std::string& bytes, std::string* error, bool* untouched) {
         std::string path = "sentinel";
         const bool ok = fleet::DecodeSwapModelPayload(
             bytes.data(), bytes.size(), &path, error);
         *untouched = path == "sentinel";
         return ok;
       }});
  targets.push_back(
      {"swap reply",
       payload_of(fleet::BuildSwapReplyFrame(false, "shape mismatch", 4)),
       [](const std::string& bytes, std::string* error, bool* untouched) {
         bool ok_flag = true;
         std::string message = "sentinel";
         uint64_t version = 77;
         const bool ok = fleet::DecodeSwapReplyPayload(
             bytes.data(), bytes.size(), &ok_flag, &message, &version, error);
         *untouched = ok_flag && message == "sentinel" && version == 77;
         return ok;
       }});
  targets.push_back(
      {"pong", payload_of(fleet::BuildPongFrame(17.5)),
       [](const std::string& bytes, std::string* error, bool* untouched) {
         double depth = -1.0;
         const bool ok = fleet::DecodePongPayload(bytes.data(), bytes.size(),
                                                  &depth, error);
         *untouched = depth == -1.0;
         return ok;
       }});
  return targets;
}

/// Applies one random mutation: a bit flip, a truncation, a splice from
/// another seed, or a u32 field set to 0, 0xFFFFFFFF or a random value.
void Mutate(Rng& rng, const std::vector<FuzzTarget>& targets,
            std::string* b) {
  const auto pos = [&](size_t n) {
    return static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(n)));
  };
  switch (rng.UniformInt(0, 3)) {
    case 0:  // bit flip
      if (!b->empty()) {
        (*b)[pos(b->size() - 1)] ^= static_cast<char>(1 << rng.UniformInt(0, 7));
      }
      break;
    case 1:  // truncation
      b->resize(pos(b->size()));
      break;
    case 2: {  // splice: overwrite or insert a chunk of any seed
      const std::string& donor =
          targets[pos(targets.size() - 1)].seed;
      const size_t from = pos(donor.size());
      const std::string chunk = donor.substr(from, pos(donor.size() - from));
      const size_t at = pos(b->size());
      if (rng.UniformInt(0, 1) == 0) {
        b->insert(at, chunk);
      } else {
        b->replace(at, chunk.size(), chunk);
      }
      break;
    }
    default: {  // u32 field
      if (b->size() < 4) break;
      size_t at = pos(b->size() - 4);
      if (rng.UniformInt(0, 1) == 0) at &= ~size_t{3};  // often aligned
      const int64_t pick = rng.UniformInt(0, 2);
      const uint32_t v =
          pick == 0 ? 0u
          : pick == 1 ? 0xFFFFFFFFu
                      : static_cast<uint32_t>(rng.UniformInt(0, UINT32_MAX));
      std::memcpy(&(*b)[at], &v, sizeof(v));
      break;
    }
  }
}

TEST(ByteCodecFuzzTest, MutantsDecodeOrFailCleanly) {
  const std::vector<FuzzTarget> targets = FuzzTargets();
  for (const FuzzTarget& t : targets) {  // every seed is a valid encoding
    std::string error;
    bool untouched = true;
    ASSERT_TRUE(t.decode(t.seed, &error, &untouched)) << t.name << ": " << error;
  }

  constexpr int kIterationsPerTarget = 3000;
  Rng rng(20261017);
  for (const FuzzTarget& t : targets) {
    int rejected = 0;
    for (int iter = 0; iter < kIterationsPerTarget; ++iter) {
      std::string mutant = t.seed;
      const int64_t mutations = rng.UniformInt(1, 3);
      for (int64_t m = 0; m < mutations; ++m) Mutate(rng, targets, &mutant);
      std::string error;
      bool untouched = false;
      if (t.decode(mutant, &error, &untouched)) continue;
      ++rejected;
      EXPECT_FALSE(error.empty()) << t.name << " iter " << iter;
      EXPECT_TRUE(untouched) << t.name << " iter " << iter
                             << ": a rejected decode changed its output";
    }
    // The mutations must reach the rejection paths, not just benign bytes.
    EXPECT_GT(rejected, kIterationsPerTarget / 4) << t.name;
  }
}

}  // namespace
}  // namespace rntraj
