#ifndef RNTRAJ_SERVE_RECOVERY_SERVICE_H_
#define RNTRAJ_SERVE_RECOVERY_SERVICE_H_

#include <atomic>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/core/model_api.h"
#include "src/mapmatch/hmm.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/serve/fault_injector.h"
#include "src/serve/inference_session.h"
#include "src/serve/micro_batcher.h"
#include "src/serve/request.h"
#include "src/serve/roadnet_cache.h"
#include "src/serve/service_policy.h"

/// \file recovery_service.h
/// The online trajectory-recovery engine: a warm, re-entrant model behind a
/// micro-batching queue and a pool of inference sessions, with shared
/// roadnet query caches. This is the subsystem that turns the offline
/// train/eval pipeline into a request-serving one — the road representation
/// is computed once at warmup instead of per request, sessions answer
/// concurrent requests against the same weights, each micro-batch runs one
/// padded cross-request forward (RecoveryModel::RecoverBatch), and hot
/// roadnet queries (sub-graph candidates by grid cell, Dijkstra rows by
/// source segment) are shared across the whole request stream. Cached
/// answers are exact; the forward is batch-composition invariant, so a
/// served answer matches offline inference of the same request to float
/// rounding (same segments, ratios within ~1e-6) whatever batch it rode.
///
/// Robustness layer (PR 6): requests may carry a latency budget
/// (RecoveryRequest::deadline_ms) that is enforced at dequeue, at dispatch
/// and after the forward; a hysteretic degradation ladder (ServicePolicy,
/// fixed watermarks) routes overload traffic to a cheap Linear+HMM fallback
/// before shedding; a throwing or stalled forward poisons only its own
/// request's future; and a deterministic FaultInjector drives the
/// serve_chaos_test suite.
///
/// Hot-swap (PR 9): the serving model lives behind a versioned shared-ptr
/// handle. SwapModel() warms a replacement on the calling thread (query
/// source install + BeginInference — the expensive part, overlapped with
/// live serving) and then flips the handle: in-flight batches finish on
/// the generation they acquired, new dispatches take the new one, no
/// future is ever dropped and no batch mixes generations. Responses carry
/// the answering generation (RecoveryResponse::model_version); the
/// `serve.model_version` gauge, the `serve.swaps` counter and a retained
/// swap span (when tracing) expose swaps to the telemetry plane.

namespace rntraj {
namespace serve {

/// Service-level knobs.
struct RecoveryServiceConfig {
  /// Worker sessions. Forced to 1 when the model does not support
  /// concurrent Recover.
  int num_sessions = 2;
  MicroBatcherConfig batcher;

  /// Radii the cell candidate cache serves — a model's sub-graph delta and
  /// the decoder's mask/prior radii. Empty disables the cache; otherwise it
  /// is built with the default RoadnetCacheConfig.
  std::vector<double> cache_radii;
  /// Radii prefetched over each micro-batch's input points (subset of
  /// cache_radii; typically just the sub-graph delta).
  std::vector<double> prefetch_radii;

  /// Admission cap on the degraded rung's own NetworkDistance row cache (a
  /// served fallback must not keep an all-pairs matrix resident); 0 leaves
  /// it unbounded. It bounds only the cache the service builds for its
  /// fallback: the dataset's shared instance is never touched.
  int max_dijkstra_rows = 0;

  /// Run BeginInference() (road representation warmup) at construction.
  bool warm_model = true;

  /// The graceful-degradation ladder (off by default). When enabled, the
  /// service watches queue depth and deadline-miss rate against the fixed
  /// ServicePolicy watermarks: DEGRADED routes requests to the Linear+HMM
  /// fallback (responses flagged `degraded`), SHEDDING refuses new
  /// admissions outright until the backlog clears.
  ServicePolicyConfig policy;
  /// HMM knobs of the degraded-rung fallback recoverer.
  HmmConfig fallback_hmm;

  /// Deterministic fault injection (chaos testing; all off by default).
  FaultInjectorConfig fault;

  /// Observability (PR 7). The metrics registry is always on — its counters
  /// replaced the old mutex-guarded stats, so it costs less than what it
  /// displaced. Request tracing is off by default (trace.sample_rate == 0:
  /// one null-pointer branch per touchpoint); sampling decisions are
  /// deterministic per request id, the fault injector's reproducibility
  /// idiom.
  obs::TracerConfig trace;
  /// Enables the process-global stage profiler (GAT/GRL/transformer/
  /// decoder/constraint-mask wall time) for this service's lifetime. The
  /// profiler is global: concurrent services sharing a process share its
  /// totals.
  bool profile_stages = false;
};

/// Aggregate serving telemetry. `completed` splits into one counter per
/// response kind — shed and error responses must never be mistaken for
/// successes in throughput numbers.
struct ServeStats {
  int64_t submitted = 0;
  int64_t completed = 0;  ///< Responses delivered by sessions (all kinds).
  int64_t batches = 0;
  double mean_batch_size = 0.0;

  // --- the completed breakdown, one counter per ResponseKind + degraded ---
  int64_t ok = 0;                ///< Full-model successes.
  int64_t degraded = 0;          ///< Fallback-path successes (flagged).
  int64_t validation_error = 0;  ///< Rejected by ValidateRequest.
  int64_t deadline_missed = 0;   ///< Budget expired (queue, dispatch or post).
  int64_t shed = 0;              ///< Refused admission (queue full / policy).
  int64_t internal_error = 0;    ///< A forward threw; lane-isolated.
  int64_t faults = 0;            ///< Session forwards that threw.

  /// Degradation-ladder telemetry.
  PolicyState policy_state = PolicyState::kOk;
  int64_t policy_entered_degraded = 0;
  int64_t policy_entered_shedding = 0;

  /// Percentiles over *successful* requests' total latency (submit ->
  /// response), milliseconds. Error/shed/missed responses are excluded —
  /// they resolve fast and would read as spurious speed. Computed from the
  /// registry's exact-count log-bucket histogram (obs/histogram.h): the
  /// value is the quantile rank's bucket upper edge — deterministic,
  /// mergeable across workers, within one bucket width (< 5%) of the exact
  /// sample quantile.
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  RoadnetCacheStats cache;
};

/// One immutable generation of the serving model. Workers copy the
/// service's current handle once per batch; the shared_ptr keeps the
/// generation (and, for swapped-in models, its ownership) alive until the
/// last in-flight batch referencing it completes.
struct ModelHandle {
  RecoveryModel* model = nullptr;
  /// Ownership for swapped-in generations; null for generation 0, which
  /// the service's caller owns.
  std::shared_ptr<RecoveryModel> owned;
  uint64_t version = 0;
};

/// The public serving API.
///
/// Thread-safe: Submit from any number of producer threads. The destructor
/// shuts down admissions, drains queued requests, and joins the sessions.
/// A Submit racing Shutdown always receives a response (a shed error at
/// worst) — never a dangling or broken future.
class RecoveryService {
 public:
  RecoveryService(RecoveryModel* model, const ModelContext& ctx,
                  const RecoveryServiceConfig& config);
  ~RecoveryService();

  RecoveryService(const RecoveryService&) = delete;
  RecoveryService& operator=(const RecoveryService&) = delete;

  /// Enqueues one request. The future resolves when a session has answered
  /// (ok=false for invalid requests, or immediately when the queue sheds
  /// load, the policy is shedding, or the deadline expired in queue).
  std::future<RecoveryResponse> Submit(RecoveryRequest req);

  /// Zero-downtime model replacement. Warms `next` on the calling thread
  /// (installs the shared query caches, eval mode, BeginInference — for
  /// RnTrajRec the road-representation compute, which overlaps with live
  /// serving on the old generation) and then atomically flips the model
  /// handle: batches dispatched after the flip run on `next`, in-flight
  /// batches finish on the generation they already acquired, and every
  /// future resolves against exactly one whole generation. The service
  /// shares ownership of `next` until shutdown.
  ///
  /// Returns false (with `*error`) without touching the serving path when
  /// `next` is null, the service is shut down, or `next` cannot serve this
  /// service's concurrency (multiple sessions need a re-entrant Recover).
  bool SwapModel(std::shared_ptr<RecoveryModel> next,
                 std::string* error = nullptr);

  /// Generation currently answering new dispatches (0 until the first
  /// successful SwapModel).
  uint64_t model_version() const;

  /// Stops admissions, drains the queue, joins sessions (idempotent).
  /// Every future ever returned by Submit is resolved by the time this
  /// returns: queued requests are processed by the draining sessions, and
  /// submissions that raced past the closing gate are shed with an error.
  void Shutdown();

  ServeStats Stats() const;

  /// The machine-readable telemetry export: every registry metric plus
  /// injected point-in-time gauges (queue depth, policy state, cache and
  /// session counters, global stage-profile totals). This snapshot — JSON
  /// via ToJson(), Prometheus text via ToPrometheusText(), mergeable via
  /// Merge() — is the per-worker feed a fleet router aggregates (ROADMAP
  /// open item 2). Outcome counters partition submissions exactly:
  /// serve.submitted == ok + degraded + validation_error + deadline_missed
  /// + internal_error + shed once the stream has drained (the chaos suite
  /// asserts it).
  obs::MetricsSnapshot Metrics() const;

  const CellCandidateCache* cell_cache() const { return cache_.get(); }
  const ServicePolicy* policy() const { return policy_.get(); }
  const FaultInjector* fault_injector() const { return injector_.get(); }
  /// Null when tracing is disabled (sample_rate == 0).
  const obs::Tracer* tracer() const { return tracer_.get(); }

 private:
  void WorkerLoop(InferenceSession* session);
  /// Classifies one delivered response into the outcome counters, records
  /// latency histograms for successes, and feeds the ladder its outcome
  /// signal.
  void RecordCompletion(const RecoveryResponse& resp, double total_ms);
  /// Stamps the outcome summary onto a sampled request's trace, closes its
  /// remaining spans, retains it in the tracer's ring and attaches it to
  /// the response. No-op for untraced requests.
  void FinishTrace(QueuedRequest& q, RecoveryResponse& resp);
  /// Resolves one deadline-evicted request (from the batcher's dequeue
  /// eviction) with an immediate deadline-exceeded response.
  void ResolveExpired(QueuedRequest&& q);
  /// Builds an immediate shed response and counts it.
  RecoveryResponse ShedResponse(const char* why);

  /// The current model generation, copied once per batch.
  std::shared_ptr<const ModelHandle> AcquireModel() const;

  RecoveryModel* model_;
  RecoveryServiceConfig cfg_;
  /// True for models whose Recover is not re-entrant: sessions are clamped
  /// to one.
  bool exclusive_model_ = false;
  std::unique_ptr<CellCandidateCache> cache_;
  /// Hot-swap state. Declared after cache_: handles (and the swapped-in
  /// models they own) must be destroyed before the query cache they were
  /// pointed at. handle_mu_ guards the handle_ pointer only — workers take
  /// it for one shared_ptr copy per batch; the flip in SwapModel is one
  /// store under the same lock.
  mutable std::mutex handle_mu_;
  std::shared_ptr<const ModelHandle> handle_;
  /// Every model ever swapped in (kept until destruction so the dtor can
  /// uninstall the shared query source from each — an old generation may
  /// still be running a batch when a swap retires it).
  std::vector<std::shared_ptr<RecoveryModel>> swapped_models_;
  std::unique_ptr<ServicePolicy> policy_;
  std::unique_ptr<FaultInjector> injector_;
  /// The fallback's own Dijkstra row table; declared before fallback_,
  /// which reads it.
  std::unique_ptr<NetworkDistance> fallback_netdist_;
  /// The degraded rung's recoverer (Linear+HMM two-stage baseline); only
  /// built when the ladder is enabled. Stateless per call and re-entrant.
  std::unique_ptr<RecoveryModel> fallback_;
  MicroBatcher batcher_;
  std::vector<std::unique_ptr<InferenceSession>> sessions_;
  std::vector<std::thread> workers_;
  std::atomic<bool> shut_down_{false};

  /// Request-id allocator (ids double as the deterministic sampling and
  /// fault-injection keys, so they must be unique and dense).
  std::atomic<uint64_t> next_id_{0};
  /// Whether the stage profiler was enabled before this service turned it
  /// on (restored at shutdown).
  bool prev_profile_enabled_ = false;

  /// The telemetry plane. Counters/histograms are resolved by name once
  /// here and incremented lock-free on the hot path — this replaced the
  /// PR 6 mutex-guarded counter block and stored-sample latency ring.
  obs::MetricsRegistry metrics_;
  std::unique_ptr<obs::Tracer> tracer_;
  obs::Counter* c_submitted_;
  obs::Counter* c_shed_;
  obs::Counter* c_completed_;
  obs::Counter* c_ok_;
  obs::Counter* c_degraded_;
  obs::Counter* c_validation_error_;
  obs::Counter* c_deadline_missed_;
  obs::Counter* c_internal_error_;
  obs::Counter* c_swaps_;        ///< Successful SwapModel flips.
  obs::Gauge* g_model_version_;  ///< Generation answering new dispatches.
  obs::LatencyHistogram* h_latency_ms_;  ///< Successes, submit -> response.
  obs::LatencyHistogram* h_queue_ms_;    ///< All completed, enqueue -> batch.
  obs::LatencyHistogram* h_infer_ms_;    ///< Successes, forward share.
};

}  // namespace serve
}  // namespace rntraj

#endif  // RNTRAJ_SERVE_RECOVERY_SERVICE_H_
