#ifndef RNTRAJ_FLEET_ROUTER_H_
#define RNTRAJ_FLEET_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/serve/request.h"

/// \file router.h
/// The fleet front end: shards recovery requests across N worker processes
/// over the wire protocol, aggregates their telemetry, survives worker
/// death, and rolls model deploys through the fleet one worker at a time.
///
/// Sharding: FNV-1a of the encoded request body looked up on a consistent-
/// hash ring (64 virtual nodes per worker), skipping dead workers; when the
/// ring's pick has more than 8 requests in flight, the request overflows to
/// the least-loaded alive worker instead. Identical request bodies therefore
/// land on the same worker (cache affinity) until that worker is hot or
/// dead.
///
/// Failure semantics — the contract the chaos suite pins:
///   * Submit NEVER returns a dangling future. Every future resolves with a
///     response: the worker's answer, a validation error (rejected at the
///     front end, no worker round-trip), or an internal error when the
///     worker died with the request in flight and no retry was possible.
///   * A worker connection dying fails that worker's in-flight requests
///     immediately (kInternalError) and moves its shard to survivors; a
///     manager thread reconnects with exponential backoff, so a restarted
///     worker rejoins the ring automatically.
///   * Requests still unanswered after 60 s are failed and forgotten — a
///     hung worker cannot wedge the router.
///
/// The ring size, overflow depth, timeouts and reconnect backoff are
/// constants in router.cc.

namespace rntraj {
namespace fleet {

struct FleetWorkerEndpoints {
  std::string data;     ///< Request/response endpoint ("unix:..."/"tcp:...").
  std::string control;  ///< Metrics/swap/ping endpoint.
};

struct FleetRouterConfig {
  std::vector<FleetWorkerEndpoints> workers;
};

/// Point-in-time view of one worker channel.
struct FleetWorkerView {
  int index = 0;
  bool alive = false;      ///< Data connection currently established.
  int inflight = 0;        ///< Requests sent and not yet answered.
  int64_t sent = 0;        ///< Requests written to this worker.
  int64_t answered = 0;    ///< Responses received from this worker.
  int64_t failed = 0;      ///< In-flight requests failed (death/timeout).
  int64_t reconnects = 0;  ///< Successful (re-)connects.
};

struct FleetStats {
  int64_t submitted = 0;            ///< Every Submit call.
  int64_t validation_rejected = 0;  ///< Rejected at the front end.
  int64_t no_worker_available = 0;  ///< Failed: no alive worker to try.
  int64_t rerouted = 0;             ///< Send retried on another worker.
  std::vector<FleetWorkerView> workers;
};

class FleetRouter {
 public:
  explicit FleetRouter(const FleetRouterConfig& config);
  ~FleetRouter();

  FleetRouter(const FleetRouter&) = delete;
  FleetRouter& operator=(const FleetRouter&) = delete;

  /// Validates, shards and ships one request. Always returns a future that
  /// resolves (see the failure semantics above).
  std::future<serve::RecoveryResponse> Submit(serve::RecoveryRequest req);

  /// Pulls every alive worker's MetricsSnapshot over its control endpoint
  /// and folds them into one fleet view (counters add, exact histograms
  /// merge bucket-wise, so fleet p50/p99 are real quantiles, not averages
  /// of averages). Workers that cannot be reached are skipped and listed in
  /// `*error`; returns the merge of those that answered.
  obs::MetricsSnapshot FleetMetrics(std::string* error = nullptr);

  /// Rolling deploy: worker by worker, commands SwapModel(snapshot_path)
  /// over the control endpoint and waits for the swap reply before moving
  /// on — at any instant at most one worker is warming, the rest serve.
  /// Returns false on the first worker that fails; earlier workers keep the
  /// new model (mixed fleet — re-run to converge, responses stay whole-
  /// generation per worker either way).
  bool RollingDeploy(const std::string& snapshot_path,
                     std::string* error = nullptr);

  /// Blocks until at least `min_workers` data connections are established
  /// or `timeout_ms` elapses; true on success. Call after construction (or
  /// after spawning replacement workers) — Submit itself never waits for
  /// connections, so requests raced ahead of the first connect would fail
  /// with "no alive fleet worker".
  bool WaitForAlive(int min_workers, int timeout_ms);

  /// Indices of workers with an established data connection.
  std::vector<int> AliveWorkers() const;

  FleetStats Stats() const;

  /// Fails all in-flight requests, joins manager threads (idempotent).
  void Shutdown();

 private:
  struct WorkerChannel;

  void ManagerLoop(WorkerChannel* w);
  void DrainConnection(WorkerChannel* w);
  void FailInflight(WorkerChannel* w, const std::string& reason);
  void CheckTimeouts(WorkerChannel* w);
  /// Ring pick for `key`, skipping dead workers and indices in `tried`;
  /// applies the least-loaded overflow rule. Null when nobody is eligible.
  WorkerChannel* PickWorker(uint64_t key, const std::vector<bool>& tried);

  std::vector<std::unique_ptr<WorkerChannel>> workers_;
  /// Sorted (point, worker index) pairs; built once, never mutated.
  std::vector<std::pair<uint64_t, int>> ring_;
  std::atomic<uint64_t> next_id_{1};
  std::atomic<bool> shutdown_{false};
  std::atomic<int64_t> submitted_{0};
  std::atomic<int64_t> validation_rejected_{0};
  std::atomic<int64_t> no_worker_available_{0};
  std::atomic<int64_t> rerouted_{0};
};

}  // namespace fleet
}  // namespace rntraj

#endif  // RNTRAJ_FLEET_ROUTER_H_
