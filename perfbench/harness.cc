// Benchmark harness: one process runs one workload once.
//
//   perfbench --workload <name> --seed <n> --seconds <s> [--trace 0|1]
//             [--trace-out <file>]
//
// A workload is one row of kWorkloads: a road-network universe, a front end
// (an in-process RecoveryService, worker processes behind a FleetRouter, or
// the trainer) and a load shape. One thread generates the load: it submits
// on a schedule (open loop) or keeps N requests in flight (closed loop),
// polls the outstanding futures every 200 us and stamps each completion. An
// open-loop request is timed from when it was due, so a stall of the
// generator or the service shows in every request behind it; the
// generator's own lateness is reported as loadgen.lag.
//
// --seed picks the trajectories (DatasetConfig::seed; the city is fixed),
// the arrival times and request order, and the training order. Weights are
// fixed (SeedGlobalRng(12345)). Every answer is checked against an offline
// reference computed before the service starts: full-model answers against
// RnTrajRec::RecoverBatch, degraded answers against Linear+HMM.
//
// With --trace 1 the run also records spans around every call into a
// layer, turns on stage profiling and request tracing in the service, and
// replays the pool offline through each layer. Those numbers are the
// per-layer metrics; --trace 0 runs report the end-to-end metrics.
//
// Human-readable lines go to stdout; the last stdout line is one JSON
// object that perfbench/run.py turns into the benchmark's result line.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/baselines/two_stage.h"
#include "src/baselines/zoo.h"
#include "src/common/random.h"
#include "src/core/rntrajrec.h"
#include "src/core/trainer.h"
#include "src/fleet/process.h"
#include "src/fleet/profiles.h"
#include "src/fleet/router.h"
#include "src/obs/quantile.h"
#include "src/obs/stage_profiler.h"
#include "src/serve/recovery_service.h"
#include "src/serve/roadnet_cache.h"
#include "src/serve/workload.h"
#include "src/sim/presets.h"
#include "src/tensor/buffer_pool.h"

namespace rntraj {
namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using serve::RecoveryRequest;
using serve::RecoveryResponse;
using serve::ResponseKind;

constexpr uint64_t kWeightSeed = 12345;
constexpr int kModelDim = 24;
constexpr int kPoolSize = 512;
// nproc - 1 on the 4-core box the workloads were sized on; fixed rather
// than detected, so a record means the same configuration on every box.
constexpr int kSessions = 3;
constexpr int kFleetWorkers = 2;
constexpr int kTrainBatch = 8;
constexpr float kTrainLr = 3e-3f;
constexpr int kReplayBatch = 16;
constexpr size_t kFallbackReplay = 128;
constexpr double kRatioTolerance = 1e-5;
constexpr auto kPollInterval = std::chrono::microseconds(200);
constexpr auto kDrainLimit = std::chrono::seconds(60);
constexpr double kWarmupS = 2.0;  ///< Unmeasured load before the window.
constexpr int kSetupReps = 5;     ///< setup_s is the median of this many.
// Request trees written to the trace file (and retained by the service's
// tracer); self times cover every request.
constexpr int64_t kTraceRequestsWritten = 32;

// ----- Workloads -------------------------------------------------------------

enum class Front { kService, kFleet, kTrain };

struct Workload {
  const char* name;
  Front front;
  /// City and sample rate; split sizes and the seed are set per run.
  DatasetConfig (*universe)();
  double rate_rps;     ///< > 0: open loop, Poisson arrivals at this rate.
  int inflight;        ///< > 0: closed loop with this many in flight.
  double deadline_ms;  ///< 0: no deadline.
  size_t queue_depth;  ///< 0: the service default.
};

// The fleet universe is the one the workers rebuild from their profile, so
// requests built here run on the same road network over there.
constexpr const char* kFleetProfile = "bench-small";

fleet::FleetProfile FleetProfile() {
  fleet::FleetProfile p;
  std::string error;
  if (!fleet::LookupFleetProfile(kFleetProfile, &p, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    std::exit(2);
  }
  return p;
}

DatasetConfig DenseChengdu() { return ChengduConfig(BenchScale::kSmall, 2); }
DatasetConfig SparseShanghai() {
  return ShanghaiLConfig(BenchScale::kFull, 16);
}
DatasetConfig Chengdu() { return ChengduConfig(BenchScale::kSmall, 8); }
DatasetConfig FleetChengdu() { return FleetProfile().dataset; }

// Why each row exists is recorded in BENCHMARK.json and perfbench/README.md.
// Overload offers 4000 req/s, past the fallback's capacity as well as the
// full model's, so the ladder stays on its degraded and shedding rungs; at
// 3000 req/s it flips back to the full model for runs at a time and goodput
// moved by 20% between runs.
const Workload kWorkloads[] = {
    {"steady-dense", Front::kService, DenseChengdu, 280.0, 0, 250.0, 0},
    {"saturate-sparse", Front::kService, SparseShanghai, 0.0, 48, 0.0, 0},
    {"overload", Front::kService, Chengdu, 4000.0, 0, 250.0, 32},
    {"fleet", Front::kFleet, FleetChengdu, 0.0, 32, 0.0, 0},
    {"train", Front::kTrain, Chengdu, 0.0, 0, 0.0, 0},
};

RnTrajRecConfig ModelConfig(const Workload& w) {
  if (w.front == Front::kFleet) return FleetProfile().model;
  return DefaultRnTrajRecConfig(kModelDim);
}

serve::RecoveryServiceConfig ServiceConfig(const Workload& w,
                                           const RnTrajRecConfig& m,
                                           bool traced) {
  serve::RecoveryServiceConfig c;
  c.num_sessions = kSessions;
  c.batcher.max_batch_size = 16;
  c.batcher.max_batch_delay_us = 1000;
  if (w.queue_depth > 0) c.batcher.max_queue_depth = w.queue_depth;
  c.cache_radii = {m.delta, m.decoder.mask_radius,
                   m.decoder.spatial_prior_radius};
  c.prefetch_radii = {m.delta};
  c.max_dijkstra_rows = 1024;
  c.warm_model = false;  // set-up times BeginInference itself
  c.policy.enabled = true;
  if (traced) {
    c.profile_stages = true;
    c.trace.sample_rate = 1.0;
    c.trace.ring_capacity = kTraceRequestsWritten;
  }
  return c;
}

TrainConfig TrainingConfig(uint64_t seed, bool traced) {
  TrainConfig c;
  c.epochs = 1;
  c.batch_size = kTrainBatch;
  c.lr = kTrainLr;
  c.seed = seed;
  c.profile_stages = traced;
  return c;
}

// ----- Small helpers ---------------------------------------------------------

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
double Ms(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
Clock::duration FromSeconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}
double Quantile(std::vector<double> v, double q) {
  return obs::ExactQuantile(std::move(v), q);
}
double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double MaxRssMb(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

bool SameAnswer(const MatchedTrajectory& got, const MatchedTrajectory& want) {
  if (got.size() != want.size()) return false;
  for (int j = 0; j < want.size(); ++j) {
    if (got.points[j].seg_id != want.points[j].seg_id ||
        std::abs(got.points[j].ratio - want.points[j].ratio) >
            kRatioTolerance) {
      return false;
    }
  }
  return true;
}

/// Named values of one run, printed as "name value unit" lines and as JSON.
class Report {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    entries_.push_back({name, value, unit});
  }
  void Print(const char* title) const {
    std::printf("%s\n", title);
    for (const Entry& e : entries_) {
      std::printf("  %-42s %16.6f %s\n", e.name.c_str(), e.value,
                  e.unit.c_str());
    }
  }
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < entries_.size(); ++i) {
      out += (i > 0 ? ", \"" : "\"") + entries_[i].name +
             "\": {\"value\": " + JsonNumber(entries_[i].value) +
             ", \"unit\": \"" + entries_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

// ----- Spans -----------------------------------------------------------------

/// Spans recorded around calls into each layer, kept in memory and written
/// once at exit. Times are microseconds since the run began.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  int Add(const char* name, int parent, int64_t request, Clock::time_point a,
          Clock::time_point b) {
    return AddUs(name, parent, request, Us(a), Us(b));
  }
  int AddUs(const char* name, int parent, int64_t request, double start_us,
            double end_us) {
    spans_.push_back({name, parent, request, start_us, end_us});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int span, Clock::time_point b) { spans_[span].end_us = Us(b); }
  double Us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  /// Every parent precedes its child, and the child lies inside the
  /// parent's interval and shares its request id.
  bool WellFormed(std::string* why) const {
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.end_us < s.start_us) {
        *why = std::string("span ends before it starts: ") + s.name;
        return false;
      }
      if (s.parent < 0) continue;
      const Span& p = spans_[s.parent];
      if (s.parent >= static_cast<int>(i) || s.start_us < p.start_us ||
          s.end_us > p.end_us || s.request != p.request) {
        *why = std::string("span ") + s.name + " escapes its parent " + p.name;
        return false;
      }
    }
    return true;
  }

  /// Self time per span name: each span's duration minus the part of it
  /// that its children cover, summed over the spans of that name.
  std::map<std::string, double> SelfMs() const {
    std::vector<std::vector<int>> children(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].parent >= 0) {
        children[spans_[i].parent].push_back(static_cast<int>(i));
      }
    }
    std::map<std::string, double> self;
    for (size_t i = 0; i < spans_.size(); ++i) {
      std::vector<std::pair<double, double>> cover;
      for (int c : children[i]) {
        cover.emplace_back(spans_[c].start_us, spans_[c].end_us);
      }
      std::sort(cover.begin(), cover.end());
      double covered = 0.0, reach = spans_[i].start_us;
      for (const auto& [a, b] : cover) {
        const double lo = std::max(a, reach);
        if (b > lo) covered += b - lo;
        reach = std::max(reach, b);
      }
      self[spans_[i].name] +=
          (spans_[i].end_us - spans_[i].start_us - covered) / 1000.0;
    }
    return self;
  }

  /// Every span outside requests, plus the trees of the first
  /// kTraceRequestsWritten requests.
  std::string Json() const {
    std::ostringstream out;
    out << "[";
    bool first = true;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.request >= kTraceRequestsWritten) continue;
      out << (first ? "\n" : ",\n") << "  {\"id\": " << i << ", \"name\": \""
          << s.name << "\", \"parent\": " << s.parent
          << ", \"request\": " << s.request
          << ", \"start_us\": " << JsonNumber(s.start_us)
          << ", \"end_us\": " << JsonNumber(s.end_us) << "}";
      first = false;
    }
    out << "\n]";
    return out.str();
  }

 private:
  struct Span {
    const char* name;
    int parent;       ///< Index of the parent span; -1 for a root.
    int64_t request;  ///< Request (or training step) id; -1 outside them.
    double start_us, end_us;
  };
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// ----- Run context -----------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  std::string trace_out;
};

/// Everything a run produces.
struct Run {
  Run(const Args& a, const Workload& wl)
      : args(a), w(wl), log(Clock::now()) {}

  const Args& args;
  const Workload& w;
  Report metrics;  ///< End-to-end (untraced) or per-layer (traced) metrics.
  std::map<std::string, double> checks;  ///< Counts behind the verdict.
  std::vector<std::string> problems;     ///< Empty when correct.
  int64_t attempted = 0;
  int64_t failed = 0;  ///< Wrong answers and errors, not refusals.
  SpanLog log;
  std::string service_traces = "[]";  ///< The service tracer's ring dump.

  void Require(bool ok, const std::string& what) {
    if (!ok) problems.push_back(what);
  }
};

// ----- Universe and references ----------------------------------------------

/// Road network, request pool and model of one set-up.
struct Universe {
  std::unique_ptr<Dataset> ds;
  ModelContext ctx;
  std::unique_ptr<RnTrajRec> model;
  std::vector<RecoveryRequest> pool;
  std::vector<TrajectorySample> samples;  ///< The pool as ephemeral samples.
};

/// Time points of one set-up. The gap between `model_done` and `start_begin`
/// holds the benchmark's own untimed work (the request pool and reference
/// answers), so set-up time is the sum of the three phases, not the wall
/// time.
struct SetupTimes {
  Clock::time_point begin, dataset_done, model_done, start_begin, ready;
  double begin_inference_ms = 0.0;

  double dataset_s() const { return Seconds(begin, dataset_done); }
  double model_s() const { return Seconds(dataset_done, model_done); }
  double start_s() const { return Seconds(start_begin, ready); }
  double total_s() const { return dataset_s() + model_s() + start_s(); }

  void AddSpans(const char* start_name, SpanLog* log) const {
    const int root = log->Add("setup", -1, -1, begin, ready);
    log->Add("setup.dataset", root, -1, begin, dataset_done);
    log->Add("setup.model", root, -1, dataset_done, model_done);
    log->Add("setup.inputs", root, -1, model_done, start_begin);
    log->Add(start_name, root, -1, start_begin, ready);
  }
};

DatasetConfig UniverseConfig(const Workload& w, uint64_t seed) {
  DatasetConfig cfg = w.universe();
  cfg.seed = seed;
  cfg.num_val = 0;
  if (w.front == Front::kTrain) {
    cfg.num_test = 0;  // keeps the small-scale train split: 192 samples
  } else {
    cfg.num_train = 0;
    cfg.num_test = kPoolSize;
  }
  return cfg;
}

/// The dataset and model phases of a set-up.
void BuildUniverse(const Workload& w, uint64_t seed, Universe* u,
                   SetupTimes* t) {
  t->begin = Clock::now();
  u->ds = BuildDataset(UniverseConfig(w, seed));
  u->ctx = ModelContext::FromDataset(*u->ds);
  t->dataset_done = Clock::now();
  SeedGlobalRng(kWeightSeed);
  u->model = std::make_unique<RnTrajRec>(ModelConfig(w), u->ctx);
  if (w.front != Front::kTrain) {
    u->model->SetTrainingMode(false);
    const auto b0 = Clock::now();
    u->model->BeginInference();
    t->begin_inference_ms = Ms(b0, Clock::now());
  }
  t->model_done = Clock::now();
  const auto& split = w.front == Front::kTrain ? u->ds->train() : u->ds->test();
  for (const TrajectorySample& s : split) {
    u->pool.push_back(serve::RequestFromSample(s));
    RecoveryRequest r = u->pool.back();
    u->samples.push_back(MakeEphemeralSample(
        std::move(r.input), std::move(r.input_indices), r.target_times));
  }
}

int HelperThreads() {
  return std::clamp(static_cast<int>(std::thread::hardware_concurrency()), 1,
                    4);
}

std::vector<const TrajectorySample*> Batch(
    const std::vector<TrajectorySample>& samples, size_t lo) {
  std::vector<const TrajectorySample*> ptrs;
  for (size_t i = lo; i < std::min(samples.size(), lo + kReplayBatch); ++i) {
    ptrs.push_back(&samples[i]);
  }
  return ptrs;
}

/// Answers for every sample through `model.RecoverBatch`, in fixed batches
/// of kReplayBatch in pool order: batched answers agree across batch
/// compositions only within float rounding, so the composition is part of
/// the reference.
std::vector<MatchedTrajectory> RecoverPool(
    RecoveryModel& model, const std::vector<TrajectorySample>& samples) {
  std::vector<MatchedTrajectory> out(samples.size());
  std::atomic<size_t> next{0};
  const auto work = [&] {
    BufferPoolScope pool_scope;
    for (size_t lo; (lo = next.fetch_add(kReplayBatch)) < samples.size();) {
      std::vector<MatchedTrajectory> got = model.RecoverBatch(Batch(samples, lo));
      for (size_t k = 0; k < got.size(); ++k) out[lo + k] = std::move(got[k]);
    }
  };
  std::vector<std::thread> helpers;
  for (int i = 1; i < HelperThreads(); ++i) helpers.emplace_back(work);
  work();
  for (std::thread& t : helpers) t.join();
  return out;
}

struct References {
  std::vector<MatchedTrajectory> full;      ///< RnTrajRec answers.
  std::vector<MatchedTrajectory> fallback;  ///< Linear+HMM answers.

  bool Matches(int index, const RecoveryResponse& resp) const {
    const auto& want = resp.degraded ? fallback : full;
    return index < static_cast<int>(want.size()) &&
           SameAnswer(resp.recovered, want[index]);
  }
};

/// Computed before the service starts, with the model querying the R-tree
/// directly: an independent path from the service's cell cache.
References ComputeReferences(const Workload& w, Universe& u) {
  References refs;
  refs.full = RecoverPool(*u.model, u.samples);
  if (w.front == Front::kService) {  // only in-process services degrade
    LinearHmmModel fallback(u.ctx, serve::RecoveryServiceConfig{}.fallback_hmm);
    refs.fallback = RecoverPool(fallback, u.samples);
  }
  return refs;
}

// ----- Load generator --------------------------------------------------------

using SubmitFn = std::function<std::future<RecoveryResponse>(RecoveryRequest)>;

/// One submitted request, as the generator saw it.
struct Sent {
  int pool_index = 0;
  bool measured = false;  ///< Due inside the measured window.
  bool answered = false;  ///< The future resolved.
  bool matches = false;   ///< ok and equal to its reference.
  Clock::time_point due, submit_start, submit_end, done;
  ResponseKind kind = ResponseKind::kInternalError;
  bool degraded = false;
  double queue_ms = 0.0, infer_ms = 0.0;
  int batch_size = 0;

  double latency_ms() const { return Ms(due, done); }
};

struct LoadResult {
  std::vector<Sent> sent;
  Clock::time_point window_start, window_end;
};

/// Drives `submit` for a warmup, then for the measured window, from this
/// thread alone.
LoadResult DriveLoad(const Workload& w, const std::vector<RecoveryRequest>& pool,
                     const SubmitFn& submit, const References& refs,
                     uint64_t seed, double window_s) {
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 0x51);
  LoadResult r;
  const auto start = Clock::now();
  r.window_start = start + FromSeconds(kWarmupS);
  r.window_end = r.window_start + FromSeconds(window_s);

  // Open loop: each phase gets exactly rate x length arrivals at sorted
  // uniform times (a Poisson process conditioned on its count), so seeds
  // change when requests arrive, not how many.
  std::vector<Clock::time_point> schedule;
  const bool open = w.rate_rps > 0.0;
  if (open) {
    for (const auto& [from, len] : {std::pair{start, kWarmupS},
                                    std::pair{r.window_start, window_s}}) {
      std::vector<double> at(
          static_cast<size_t>(std::llround(w.rate_rps * len)));
      for (double& t : at) t = rng.Uniform(0.0, len);
      std::sort(at.begin(), at.end());
      for (double t : at) schedule.push_back(from + FromSeconds(t));
    }
  }

  struct Pending {
    size_t slot;
    std::future<RecoveryResponse> future;
  };
  std::vector<Pending> pending;
  const auto issue = [&](Clock::time_point due) {
    Sent s;
    s.pool_index = static_cast<int>(
        rng.UniformInt(0, static_cast<int64_t>(pool.size()) - 1));
    s.due = due;
    s.measured = due >= r.window_start && due < r.window_end;
    RecoveryRequest req = pool[s.pool_index];
    req.deadline_ms = w.deadline_ms;
    s.submit_start = Clock::now();
    std::future<RecoveryResponse> f = submit(std::move(req));
    s.submit_end = Clock::now();
    pending.push_back({r.sent.size(), std::move(f)});
    r.sent.push_back(s);
  };

  size_t next = 0;
  for (int i = 0; i < w.inflight; ++i) issue(start);
  for (;;) {
    auto now = Clock::now();
    while (next < schedule.size() && schedule[next] <= now) {
      issue(schedule[next++]);
    }
    for (size_t i = 0; i < pending.size();) {
      if (pending[i].future.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++i;
        continue;
      }
      const auto done = Clock::now();
      const RecoveryResponse resp = pending[i].future.get();
      Sent& s = r.sent[pending[i].slot];
      s.answered = true;
      s.done = done;
      s.kind = resp.kind;
      s.degraded = resp.degraded;
      s.queue_ms = resp.queue_ms;
      s.infer_ms = resp.infer_ms;
      s.batch_size = resp.batch_size;
      s.matches = resp.ok && refs.Matches(s.pool_index, resp);
      pending[i] = std::move(pending.back());
      pending.pop_back();
      // Closed loop: the freed slot is refilled at once, due now.
      if (!open && done < r.window_end) issue(done);
    }
    now = Clock::now();
    const bool issuing = open ? next < schedule.size() : now < r.window_end;
    if (!issuing && pending.empty()) break;
    if (now > r.window_end + kDrainLimit) break;  // counted as unanswered
    auto wake = now + kPollInterval;
    if (next < schedule.size()) wake = std::min(wake, schedule[next]);
    std::this_thread::sleep_until(wake);
  }
  return r;
}

/// Outcome counts over the measured requests (those due in the window).
struct Scored {
  /// Correct answers within the deadline that completed inside the window,
  /// whenever they were due: the goodput numerator.
  int64_t delivered = 0;
  int64_t attempted = 0, answered = 0, full = 0, degraded = 0;
  int64_t validation_error = 0, deadline_missed = 0, shed = 0;
  int64_t internal_error = 0, unanswered = 0, mismatches = 0, late = 0;
  std::vector<double> latency_ms, lag_ms, submit_us, queue_ms, infer_ms,
      outside_ms;
  double forward_ms = 0.0;
  int64_t batch_slots = 0;
};

Scored Score(const Workload& w, const LoadResult& r) {
  Scored s;
  for (const Sent& x : r.sent) {
    const bool good =
        x.answered && x.kind == ResponseKind::kOk && x.matches &&
        (w.deadline_ms <= 0.0 || x.latency_ms() <= w.deadline_ms);
    if (good && x.done >= r.window_start && x.done < r.window_end) {
      ++s.delivered;
    }
    if (!x.measured) continue;
    ++s.attempted;
    s.lag_ms.push_back(Ms(x.due, x.submit_start));
    s.submit_us.push_back(1000.0 * Ms(x.submit_start, x.submit_end));
    if (!x.answered) {
      ++s.unanswered;
      continue;
    }
    switch (x.kind) {
      case ResponseKind::kOk: break;
      case ResponseKind::kValidationError: ++s.validation_error; continue;
      case ResponseKind::kDeadlineMissed: ++s.deadline_missed; continue;
      case ResponseKind::kShed: ++s.shed; continue;
      case ResponseKind::kInternalError: ++s.internal_error; continue;
    }
    ++(x.degraded ? s.degraded : s.full);
    s.queue_ms.push_back(x.queue_ms);
    s.infer_ms.push_back(x.infer_ms);
    s.forward_ms += x.infer_ms;
    s.batch_slots += x.batch_size;
    s.outside_ms.push_back(x.latency_ms() - Ms(x.due, x.submit_start) -
                           x.queue_ms - x.infer_ms);
    if (!x.matches) {
      ++s.mismatches;
    } else if (w.deadline_ms > 0.0 && x.latency_ms() > w.deadline_ms) {
      ++s.late;  // answered by the service, but after the caller's deadline
    } else {
      ++s.answered;
      s.latency_ms.push_back(x.latency_ms());
    }
  }
  return s;
}

/// Request spans rebuilt from the generator's stamps and the times each
/// response carries back. A response carries its share of its batch's
/// forward, and it resolves when the whole batch is done, so serve.infer
/// spans the batch (share x batch size) and ends at the completion stamp;
/// between the queue and the forward lies the session's dispatch work, left
/// as the request's self time with the completion poll.
void AddRequestSpans(const LoadResult& r, const char* submit_name,
                     SpanLog* log) {
  int64_t id = 0;
  for (const Sent& x : r.sent) {
    if (!x.measured || !x.answered) continue;
    const int root = log->Add("request", -1, id, x.due, x.done);
    log->Add("loadgen.lag", root, id, x.due, x.submit_start);
    log->Add(submit_name, root, id, x.submit_start, x.submit_end);
    const double end = log->Us(x.done);
    const double q0 = std::min(log->Us(x.submit_end), end);
    const double q1 = std::min(q0 + 1000.0 * x.queue_ms, end);
    log->AddUs("serve.queue", root, id, q0, q1);
    log->AddUs("serve.infer", root, id,
               std::max(q1, end - 1000.0 * x.infer_ms * x.batch_size), end);
    ++id;
  }
}

// ----- Metrics shared by the serving fronts ----------------------------------

int64_t Counter(const obs::MetricsSnapshot& m, const char* name) {
  const auto it = m.counters.find(name);
  return it == m.counters.end() ? 0 : it->second;
}
double Gauge(const obs::MetricsSnapshot& m, const char* name) {
  const auto it = m.gauges.find(name);
  return it == m.gauges.end() ? 0.0 : it->second;
}

/// The verdict and the printed counts of a serving run. Shed and
/// deadline-missed requests are refusals the service is designed to make
/// under load: they lower goodput, but they are not failures.
void ScoreServing(Run* run, const Scored& s) {
  const double window = run->args.seconds;
  run->attempted = s.attempted;
  run->failed =
      s.mismatches + s.validation_error + s.internal_error + s.unanswered;
  run->Require(s.mismatches == 0,
               std::to_string(s.mismatches) + " answers differ from the reference");
  run->Require(s.unanswered == 0, "futures never resolved");
  run->Require(s.validation_error + s.internal_error == 0,
               "requests failed with an error");
  const double att = static_cast<double>(std::max<int64_t>(1, s.attempted));
  auto& c = run->checks;
  c["answered"] = static_cast<double>(s.answered);
  c["full"] = static_cast<double>(s.full);
  c["degraded"] = static_cast<double>(s.degraded);
  c["shed"] = static_cast<double>(s.shed);
  c["deadline_missed"] = static_cast<double>(s.deadline_missed);
  c["late"] = static_cast<double>(s.late);
  c["mismatches"] = static_cast<double>(s.mismatches);
  c["failed_frac"] = (s.attempted - s.answered) / att;
  c["degraded_frac"] = s.degraded / att;
  c["full_goodput_per_s"] = s.full / window;
  c["latency_p99_ms"] = Quantile(s.latency_ms, 0.99);
  c["latency_samples"] = static_cast<double>(s.latency_ms.size());
  c["loadgen_lag_p99_ms"] = Quantile(s.lag_ms, 0.99);
}

/// Every submission ends in exactly one outcome counter of the service.
void CheckConservation(Run* run, int64_t submitted, int64_t outcomes) {
  run->checks["service_submitted"] = static_cast<double>(submitted);
  run->Require(submitted == outcomes,
               "service submitted " + std::to_string(submitted) +
                   " != sum of its outcomes " + std::to_string(outcomes));
}

void EndToEnd(Run* run, const std::vector<double>& setups, double goodput,
              const std::vector<double>& latency_ms, double rss_mb) {
  run->metrics.Add("setup_s", Quantile(setups, 0.5), "s");
  run->metrics.Add("goodput_per_s", goodput, "1/s");
  run->metrics.Add("latency_p50_ms", Quantile(latency_ms, 0.50), "ms");
  run->metrics.Add("latency_p90_ms", Quantile(latency_ms, 0.90), "ms");
  run->metrics.Add("rss_peak_mb", rss_mb, "MB");
}

void SetupLayers(Run* run, const SetupTimes& t) {
  run->metrics.Add("setup.dataset_s", t.dataset_s(), "s");
  run->metrics.Add("setup.model_s", t.model_s(), "s");
  run->metrics.Add("setup.start_s", t.start_s(), "s");
}

/// Per-layer numbers of a serving run seen from the generator and the
/// responses.
void RequestLayers(Run* run, const Scored& s, int sessions) {
  Report& m = run->metrics;
  const double att = static_cast<double>(std::max<int64_t>(1, s.attempted));
  m.Add("loadgen.lag_p99_ms", Quantile(s.lag_ms, 0.99), "ms");
  m.Add("serve.batch_size_mean",
        Ratio(static_cast<double>(s.batch_slots),
              static_cast<double>(s.full + s.degraded)),
        "count");
  // Forward time summed over answers (each carries its share of its
  // batch's forward) per session-second of the window.
  m.Add("serve.session_busy_frac",
        s.forward_ms / 1000.0 / (run->args.seconds * sessions), "fraction");
  m.Add("serve.shed_frac", s.shed / att, "fraction");
  m.Add("serve.deadline_missed_frac", (s.deadline_missed + s.late) / att,
        "fraction");
  m.Add("serve.degraded_frac", s.degraded / att, "fraction");
  m.Add("serve.queue_ms_p50", Quantile(s.queue_ms, 0.5), "ms");
  m.Add("serve.queue_ms_p90", Quantile(s.queue_ms, 0.9), "ms");
  m.Add("serve.infer_ms_p50", Quantile(s.infer_ms, 0.5), "ms");
  m.Add("obs.traced_goodput_per_s", s.delivered / run->args.seconds, "1/s");
}

void BufferPoolLayers(Run* run, double hits, double misses,
                      double cached_bytes, double requests) {
  run->metrics.Add("tensor.bufpool.hit_rate", Ratio(hits, hits + misses),
                   "fraction");
  run->metrics.Add("tensor.bufpool.misses_per_req", Ratio(misses, requests),
                   "count");
  run->metrics.Add("tensor.bufpool.cached_mb", cached_bytes / (1 << 20), "MB");
}

void CacheLayers(Run* run, const obs::MetricsSnapshot& m) {
  const double hits = static_cast<double>(Counter(m, "serve.cache.hits"));
  const double misses = static_cast<double>(Counter(m, "serve.cache.misses"));
  run->metrics.Add("roadnet.cell_cache_hit_rate", Ratio(hits, hits + misses),
                   "fraction");
  run->metrics.Add("roadnet.cell_cache_entries",
                   Gauge(m, "serve.cache.entries"), "count");
}

/// Offline replays of the pool through each layer, on one thread: the
/// model with its per-stage split, the Linear+HMM fallback, and a cell
/// candidate cache.
void LayerReplays(Run* run, RnTrajRec& model, const Universe& u,
                  double begin_inference_ms) {
  Report& m = run->metrics;
  SpanLog& log = run->log;
  m.Add("core.begin_inference_ms", begin_inference_ms, "ms");

  obs::StageProfiler& prof = obs::StageProfiler::Global();
  const bool was_enabled = prof.enabled();
  prof.set_enabled(true);
  const obs::StageProfile before = prof.Snapshot();
  const auto r0 = Clock::now();
  const int replay = log.Add("core.replay", -1, -1, r0, r0);
  {
    BufferPoolScope pool_scope;
    for (size_t lo = 0; lo < u.samples.size(); lo += kReplayBatch) {
      const auto b0 = Clock::now();
      model.RecoverBatch(Batch(u.samples, lo));
      log.Add("core.recover_batch", replay, -1, b0, Clock::now());
    }
  }
  const auto r1 = Clock::now();
  log.End(replay, r1);
  const obs::StageProfile stages = prof.Snapshot().Delta(before);
  prof.set_enabled(was_enabled);
  const double n = static_cast<double>(u.samples.size());
  m.Add("core.recover_ms_per_req", Ms(r0, r1) / n, "ms");
  double staged_ms = 0.0;
  for (int i = 0; i < obs::kStageCount; ++i) {
    staged_ms += stages.stages[i].Ms();
    m.Add(std::string("core.stage.") +
              obs::StageName(static_cast<obs::Stage>(i)) + "_ms_per_req",
          stages.stages[i].Ms() / n, "ms");
  }
  m.Add("core.stage.other_ms_per_req", (Ms(r0, r1) - staged_ms) / n, "ms");

  const size_t nf = std::min(kFallbackReplay, u.samples.size());
  LinearHmmModel fallback(u.ctx, serve::RecoveryServiceConfig{}.fallback_hmm);
  const auto f0 = Clock::now();
  for (size_t i = 0; i < nf; ++i) fallback.Recover(u.samples[i]);
  const auto f1 = Clock::now();
  log.Add("serve.fallback_replay", -1, -1, f0, f1);
  m.Add("serve.fallback_ms_per_req", Ms(f0, f1) / static_cast<double>(nf),
        "ms");

  // A fresh cache, filled by one pass and timed on the second: the cost of
  // a warm lookup at the decoder's mask radius.
  const double radius = model.config().decoder.mask_radius;
  serve::CellCandidateCache cache(u.ctx.rn, u.ctx.rtree, u.ctx.grid, {radius});
  std::vector<Vec2> points;
  for (const RecoveryRequest& req : u.pool) {
    for (const RawPoint& p : req.input.points) points.push_back(p.pos);
  }
  for (const Vec2& p : points) cache.WithinRadius(p, radius);
  const auto p0 = Clock::now();
  size_t found = 0;
  for (const Vec2& p : points) found += cache.WithinRadius(p, radius).size();
  const auto p1 = Clock::now();
  log.Add("roadnet.probe", -1, -1, p0, p1);
  m.Add("roadnet.within_radius_us",
        1000.0 * Ms(p0, p1) / static_cast<double>(points.size()), "us");
  run->checks["probe_candidates"] = static_cast<double>(found);
}

// ----- In-process service ----------------------------------------------------

void RunService(Run* run) {
  const Workload& w = run->w;
  const Args& a = run->args;
  const RnTrajRecConfig mcfg = ModelConfig(w);
  std::vector<double> setups;
  for (int i = 0; i + 1 < kSetupReps; ++i) {  // timed, then dropped
    Universe u;
    SetupTimes t;
    BuildUniverse(w, a.seed, &u, &t);
    t.start_begin = Clock::now();
    serve::RecoveryService service(u.model.get(), u.ctx,
                                   ServiceConfig(w, mcfg, a.traced));
    t.ready = Clock::now();
    setups.push_back(t.total_s());
  }
  Universe u;
  SetupTimes t;
  BuildUniverse(w, a.seed, &u, &t);
  const References refs = ComputeReferences(w, u);
  t.start_begin = Clock::now();
  auto service = std::make_unique<serve::RecoveryService>(
      u.model.get(), u.ctx, ServiceConfig(w, mcfg, a.traced));
  t.ready = Clock::now();
  setups.push_back(t.total_s());

  const LoadResult load = DriveLoad(
      w, u.pool,
      [&](RecoveryRequest r) { return service->Submit(std::move(r)); }, refs,
      a.seed, a.seconds);
  const serve::ServeStats st = service->Stats();
  const obs::MetricsSnapshot metrics = service->Metrics();
  const Scored s = Score(w, load);
  ScoreServing(run, s);
  CheckConservation(run, st.submitted,
                    st.ok + st.degraded + st.validation_error +
                        st.deadline_missed + st.shed + st.internal_error);
  if (!a.traced) {
    EndToEnd(run, setups, s.delivered / a.seconds, s.latency_ms,
             MaxRssMb(RUSAGE_SELF));
    return;
  }

  t.AddSpans("setup.service", &run->log);
  AddRequestSpans(load, "serve.submit", &run->log);
  int64_t malformed = 0;
  for (const auto& trace : service->tracer()->Retained()) {
    malformed += trace->WellFormed() ? 0 : 1;
  }
  run->Require(malformed == 0, "service request traces are malformed");
  run->service_traces = service->tracer()->DumpJson();
  service.reset();  // the replays must not warm or read the service's cache

  SetupLayers(run, t);
  RequestLayers(run, s, kSessions);
  run->metrics.Add("serve.submit_us_p99", Quantile(s.submit_us, 0.99), "us");
  run->metrics.Add("serve.policy.transitions",
                   static_cast<double>(st.policy_entered_degraded +
                                       st.policy_entered_shedding),
                   "count");
  CacheLayers(run, metrics);
  BufferPoolLayers(run, static_cast<double>(Counter(metrics, "tensor.bufpool.hits")),
                   static_cast<double>(Counter(metrics, "tensor.bufpool.misses")),
                   Gauge(metrics, "tensor.bufpool.cached_bytes"),
                   static_cast<double>(st.ok + st.degraded));
  run->metrics.Add("fleet.shard_skew", 0.0, "fraction");
  run->metrics.Add("fleet.failed", 0.0, "count");
  run->metrics.Add("fleet.rerouted", 0.0, "count");
  LayerReplays(run, *u.model, u, t.begin_inference_ms);
}

// ----- Fleet -----------------------------------------------------------------

/// Worker processes plus the router in front of them. The destructor stops
/// the router, then kills and reaps every worker: no run leaves a process
/// behind.
class Fleet {
 public:
  Fleet(const std::string& snapshot, int generation) {
    fleet::FleetRouterConfig rcfg;
    for (int i = 0; i < kFleetWorkers; ++i) {
      // Relative paths inside the run directory: unix socket paths are
      // limited to 107 bytes.
      const std::string base =
          "w" + std::to_string(generation) + "_" + std::to_string(i);
      fleet::WorkerSpawn spawn;
      spawn.profile = kFleetProfile;
      spawn.snapshot_path = snapshot;
      spawn.data_endpoint = "unix:" + base + ".sock";
      spawn.control_endpoint = "unix:" + base + ".ctl";
      files_.push_back(base + ".sock");
      files_.push_back(base + ".ctl");
      pid_t pid = 0;
      if (!fleet::SpawnWorkerProcess(spawn, &pid, &error_)) return;
      pids_.push_back(pid);
      rcfg.workers.push_back({spawn.data_endpoint, spawn.control_endpoint});
    }
    router_ = std::make_unique<fleet::FleetRouter>(rcfg);
  }
  ~Fleet() {
    if (router_ != nullptr) router_->Shutdown();
    router_.reset();
    for (pid_t p : pids_) fleet::KillWorkerProcess(p);
    for (const std::string& f : files_) std::remove(f.c_str());
  }
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  fleet::FleetRouter& router() { return *router_; }
  const std::string& error() const { return error_; }

  /// Blocks until every worker has answered a request. Workers accept
  /// connections before they build their universe, so a connection alone
  /// does not mean a worker can serve.
  bool WaitUntilServing(const std::vector<RecoveryRequest>& pool) {
    if (router_ == nullptr) return false;
    if (!router_->WaitForAlive(kFleetWorkers, /*timeout_ms=*/60000)) {
      error_ = "fleet workers never connected";
      return false;
    }
    for (size_t i = 0; i < pool.size(); i += kFleetWorkers) {
      std::vector<std::future<RecoveryResponse>> fs;
      for (size_t k = 0; k < kFleetWorkers; ++k) {
        fs.push_back(router_->Submit(pool[(i + k) % pool.size()]));
      }
      for (auto& f : fs) {
        if (f.wait_for(std::chrono::seconds(120)) !=
                std::future_status::ready ||
            !f.get().ok) {
          error_ = "a fleet worker failed its first request";
          return false;
        }
      }
      const fleet::FleetStats st = router_->Stats();
      if (std::all_of(st.workers.begin(), st.workers.end(),
                      [](const auto& v) { return v.answered > 0; })) {
        return true;
      }
    }
    error_ = "a fleet worker never answered";
    return false;
  }

 private:
  std::vector<pid_t> pids_;
  std::vector<std::string> files_;
  std::string error_;
  std::unique_ptr<fleet::FleetRouter> router_;
};

constexpr const char* kSnapshotFile = "weights.snapshot";

/// The start phase of a fleet set-up: weights to disk, workers spawned,
/// every worker answering.
std::unique_ptr<Fleet> StartFleet(Run* run, Universe& u, int generation) {
  std::string error;
  if (!u.model->SaveSnapshot(kSnapshotFile, &error)) {
    run->Require(false, "snapshot: " + error);
    return nullptr;
  }
  auto f = std::make_unique<Fleet>(kSnapshotFile, generation);
  if (!f->WaitUntilServing(u.pool)) {
    run->Require(false, "fleet: " + f->error());
    return nullptr;
  }
  return f;
}

void RunFleet(Run* run) {
  const Workload& w = run->w;
  const Args& a = run->args;
  std::vector<double> setups;
  for (int i = 0; i + 1 < kSetupReps; ++i) {  // timed, then dropped
    Universe u;
    SetupTimes t;
    BuildUniverse(w, a.seed, &u, &t);
    t.start_begin = Clock::now();
    const std::unique_ptr<Fleet> f = StartFleet(run, u, i);
    if (f == nullptr) return;
    t.ready = Clock::now();
    setups.push_back(t.total_s());
  }
  Universe u;
  SetupTimes t;
  BuildUniverse(w, a.seed, &u, &t);
  const References refs = ComputeReferences(w, u);
  t.start_begin = Clock::now();
  std::unique_ptr<Fleet> f = StartFleet(run, u, kSetupReps);
  if (f == nullptr) return;
  t.ready = Clock::now();
  setups.push_back(t.total_s());

  fleet::FleetRouter& router = f->router();
  const LoadResult load = DriveLoad(
      w, u.pool, [&](RecoveryRequest r) { return router.Submit(std::move(r)); },
      refs, a.seed, a.seconds);
  const Scored s = Score(w, load);
  ScoreServing(run, s);
  std::string error;
  const obs::MetricsSnapshot merged = router.FleetMetrics(&error);
  run->Require(error.empty(), "fleet metrics: " + error);
  CheckConservation(
      run, Counter(merged, "serve.submitted"),
      Counter(merged, "serve.ok") + Counter(merged, "serve.degraded") +
          Counter(merged, "serve.validation_error") +
          Counter(merged, "serve.deadline_missed") +
          Counter(merged, "serve.shed") +
          Counter(merged, "serve.internal_error"));
  const fleet::FleetStats fs = router.Stats();
  f.reset();  // workers are reaped here, so their peak RSS is known
  const double rss = MaxRssMb(RUSAGE_SELF) +
                     kFleetWorkers * MaxRssMb(RUSAGE_CHILDREN);
  std::remove(kSnapshotFile);
  if (!a.traced) {
    EndToEnd(run, setups, s.delivered / a.seconds, s.latency_ms, rss);
    return;
  }

  t.AddSpans("setup.workers", &run->log);
  AddRequestSpans(load, "fleet.submit", &run->log);
  SetupLayers(run, t);
  RequestLayers(run, s, kFleetWorkers);
  run->metrics.Add("fleet.submit_us_p50", Quantile(s.submit_us, 0.5), "us");
  // Request total minus generator lag, queue wait and forward: the router,
  // the wire and the worker's bookkeeping.
  run->metrics.Add("fleet.wire_ms_p50", Quantile(s.outside_ms, 0.5), "ms");
  run->metrics.Add("serve.policy.transitions",
                   static_cast<double>(
                       Counter(merged, "serve.policy.entered_degraded") +
                       Counter(merged, "serve.policy.entered_shedding")),
                   "count");
  CacheLayers(run, merged);
  BufferPoolLayers(run, static_cast<double>(Counter(merged, "tensor.bufpool.hits")),
                   static_cast<double>(Counter(merged, "tensor.bufpool.misses")),
                   Gauge(merged, "tensor.bufpool.cached_bytes"),
                   static_cast<double>(Counter(merged, "serve.ok")));
  double max_sent = 0.0, sum_sent = 0.0, failed = 0.0;
  for (const auto& v : fs.workers) {
    max_sent = std::max(max_sent, static_cast<double>(v.sent));
    sum_sent += static_cast<double>(v.sent);
    failed += static_cast<double>(v.failed);
  }
  run->metrics.Add("fleet.shard_skew",
                   Ratio(max_sent * fs.workers.size(), sum_sent) - 1.0,
                   "fraction");
  run->metrics.Add("fleet.failed", failed, "count");
  run->metrics.Add("fleet.rerouted", static_cast<double>(fs.rerouted), "count");
  LayerReplays(run, *u.model, u, t.begin_inference_ms);
}

// ----- Training --------------------------------------------------------------

/// One mini-batch per TrainModel call, so each optimiser step is timed on
/// its own; the batches walk a seeded shuffle of the train split.
class StepBatches {
 public:
  StepBatches(const std::vector<TrajectorySample>& split, uint64_t seed)
      : split_(split), rng_(seed), order_(split.size()) {}

  std::vector<TrajectorySample> Next() {
    std::vector<TrajectorySample> batch;
    while (static_cast<int>(batch.size()) < kTrainBatch) {
      if (pos_ == 0) {
        for (size_t i = 0; i < order_.size(); ++i) order_[i] = i;
        std::shuffle(order_.begin(), order_.end(), rng_.engine());
      }
      batch.push_back(split_[order_[pos_]]);
      pos_ = (pos_ + 1) % order_.size();
    }
    return batch;
  }

 private:
  const std::vector<TrajectorySample>& split_;
  Rng rng_;
  std::vector<size_t> order_;
  size_t pos_ = 0;
};

void RunTrain(Run* run) {
  const Workload& w = run->w;
  const Args& a = run->args;
  const TrainConfig warmup_cfg = TrainingConfig(a.seed, /*traced=*/false);
  std::vector<double> setups;
  std::unique_ptr<Universe> u;
  SetupTimes t;
  for (int i = 0; i < kSetupReps; ++i) {
    u = std::make_unique<Universe>();
    t = SetupTimes();
    BuildUniverse(w, a.seed, u.get(), &t);
    t.start_begin = Clock::now();
    TrainModel(*u->model, u->ds->train(), warmup_cfg);  // fills the memo
    t.ready = Clock::now();
    setups.push_back(t.total_s());
  }

  StepBatches batches(u->ds->train(), a.seed);
  std::vector<double> step_ms, lag_ms;
  int64_t samples = 0, nonfinite = 0;
  obs::StageProfile train_stages;
  const BufferPoolStats pool0 = GetBufferPoolStats();
  const auto w0 = Clock::now();
  const auto w1 = w0 + FromSeconds(a.seconds);
  auto prev_end = w0;
  auto now = w0;
  int64_t step = 0;
  while (now < w1) {
    const std::vector<TrajectorySample> batch = batches.Next();
    const auto s0 = Clock::now();
    const TrainStats ts =
        TrainModel(*u->model, batch, TrainingConfig(a.seed + step, a.traced));
    now = Clock::now();
    if (a.traced) {
      run->log.Add("train.step", -1, step, s0, now);
      for (int i = 0; i < obs::kStageCount; ++i) {
        train_stages.stages[i].ns += ts.stage_profile.stages[i].ns;
      }
    }
    step_ms.push_back(Ms(s0, now));
    lag_ms.push_back(Ms(prev_end, s0));
    prev_end = now;
    samples += static_cast<int64_t>(batch.size());
    if (ts.epoch_losses.empty() || !std::isfinite(ts.epoch_losses[0]) ||
        ts.epoch_losses[0] <= 0.0) {
      nonfinite += static_cast<int64_t>(batch.size());
    }
    ++step;
  }
  const double elapsed = Seconds(w0, now);
  const BufferPoolStats pool1 = GetBufferPoolStats();

  run->attempted = samples;
  run->failed = nonfinite;
  run->Require(nonfinite == 0, "training produced a non-finite loss");
  run->checks["steps"] = static_cast<double>(step);
  run->checks["loadgen_lag_p99_ms"] = Quantile(lag_ms, 0.99);
  run->checks["latency_p99_ms"] = Quantile(step_ms, 0.99);
  run->checks["latency_samples"] = static_cast<double>(step_ms.size());
  const double goodput = static_cast<double>(samples) / elapsed;
  if (!a.traced) {
    EndToEnd(run, setups, goodput, step_ms, MaxRssMb(RUSAGE_SELF));
    return;
  }

  t.AddSpans("setup.warmup_epoch", &run->log);
  Report& m = run->metrics;
  SetupLayers(run, t);
  m.Add("loadgen.lag_p99_ms", Quantile(lag_ms, 0.99), "ms");
  m.Add("serve.batch_size_mean", kTrainBatch, "count");
  double step_total_ms = 0.0;
  for (double x : step_ms) step_total_ms += x;
  m.Add("serve.session_busy_frac", step_total_ms / 1000.0 / elapsed,
        "fraction");
  for (const char* name :
       {"serve.shed_frac", "serve.deadline_missed_frac", "serve.degraded_frac"}) {
    m.Add(name, 0.0, "fraction");
  }
  m.Add("serve.policy.transitions", 0.0, "count");
  m.Add("obs.traced_goodput_per_s", goodput, "1/s");
  m.Add("core.train_step_ms_p50", Quantile(step_ms, 0.5), "ms");
  const double staged = static_cast<double>(train_stages.TotalNs());
  for (int i = 0; i < obs::kStageCount; ++i) {
    m.Add(std::string("core.train.stage.") +
              obs::StageName(static_cast<obs::Stage>(i)) + "_share",
          Ratio(static_cast<double>(train_stages.stages[i].ns), staged),
          "fraction");
  }
  m.Add("roadnet.cell_cache_hit_rate", 0.0, "fraction");
  m.Add("roadnet.cell_cache_entries", 0.0, "count");
  BufferPoolLayers(run, static_cast<double>(pool1.hits - pool0.hits),
                   static_cast<double>(pool1.misses - pool0.misses),
                   static_cast<double>(pool1.cached_bytes),
                   static_cast<double>(samples));
  m.Add("fleet.shard_skew", 0.0, "fraction");
  m.Add("fleet.failed", 0.0, "count");
  m.Add("fleet.rerouted", 0.0, "count");
  u->model->SetTrainingMode(false);
  const auto b0 = Clock::now();
  u->model->BeginInference();
  LayerReplays(run, *u->model, *u, Ms(b0, Clock::now()));
}

// ----- Entry point -----------------------------------------------------------

bool ParseArgs(int argc, char** argv, Args* a, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) {
      *error = "missing value for " + key;
      return false;
    }
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        a->workload = value;
      } else if (key == "--seed") {
        a->seed = std::stoull(value);
      } else if (key == "--seconds") {
        a->seconds = std::stod(value);
      } else if (key == "--trace") {
        a->traced = std::stoi(value) != 0;
      } else if (key == "--trace-out") {
        a->trace_out = value;
      } else {
        *error = "unknown argument " + key;
        return false;
      }
    } catch (const std::exception&) {
      *error = "bad value for " + key + ": " + value;
      return false;
    }
  }
  if (a->seconds <= 0.0) {
    *error = "--seconds must be > 0";
    return false;
  }
  return true;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

void WriteTrace(const Run& run, const std::map<std::string, double>& self_ms) {
  std::ofstream out(run.args.trace_out);
  out << "{\"workload\": \"" << run.w.name << "\", \"seed\": " << run.args.seed
      << ",\n\"self_ms\": {";
  bool first = true;
  for (const auto& [name, ms] : self_ms) {
    out << (first ? "" : ", ") << "\"" << name << "\": " << JsonNumber(ms);
    first = false;
  }
  out << "},\n\"spans\": " << run.log.Json()
      << ",\n\"service_traces\": " << run.service_traces << "}\n";
}

int Main(int argc, char** argv) {
  Args a;
  std::string error;
  if (!ParseArgs(argc, argv, &a, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 2;
  }
  const Workload* w = FindWorkload(a.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload \"%s\"; known:",
                 a.workload.c_str());
    for (const Workload& k : kWorkloads) std::fprintf(stderr, " %s", k.name);
    std::fprintf(stderr, "\n");
    return 2;
  }

  Run run(a, *w);
  switch (w->front) {
    case Front::kService: RunService(&run); break;
    case Front::kFleet: RunFleet(&run); break;
    case Front::kTrain: RunTrain(&run); break;
  }
  std::map<std::string, double> self_ms;
  if (a.traced) {
    std::string why;
    run.Require(run.log.WellFormed(&why), "trace: " + why);
    self_ms = run.log.SelfMs();
    if (!a.trace_out.empty()) WriteTrace(run, self_ms);
  }

  const bool correct = run.problems.empty() && run.attempted > 0;
  std::printf("workload %s seed %llu (%s run, %.1f s window)\n", w->name,
              static_cast<unsigned long long>(a.seed),
              a.traced ? "traced" : "untraced", a.seconds);
  for (const std::string& p : run.problems) std::printf("  FAILED: %s\n", p.c_str());
  run.metrics.Print("metrics:");
  std::printf("checks:\n");
  for (const auto& [name, v] : run.checks) {
    std::printf("  %-42s %16.6f\n", name.c_str(), v);
  }

  std::string line = std::string("{\"workload\": \"") + w->name +
                     "\", \"seed\": " + std::to_string(a.seed) +
                     ", \"trace\": " + (a.traced ? "1" : "0") +
                     ", \"correct\": " + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(run.attempted) +
                     ", \"failed\": " + std::to_string(run.failed) +
                     ", \"metrics\": " + run.metrics.Json() + ", \"checks\": {";
  bool first = true;
  for (const auto& [name, v] : run.checks) {
    line += (first ? "\"" : ", \"") + name + "\": " + JsonNumber(v);
    first = false;
  }
  line += "}, \"self_ms\": {";
  first = true;
  for (const auto& [name, v] : self_ms) {
    line += (first ? "\"" : ", \"") + name + "\": " + JsonNumber(v);
    first = false;
  }
  std::printf("%s}}\n", line.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace rntraj

int main(int argc, char** argv) { return rntraj::perfbench::Main(argc, argv); }
