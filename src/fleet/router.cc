#include "src/fleet/router.h"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>

#include "src/fleet/socket.h"
#include "src/fleet/wire.h"

namespace rntraj {
namespace fleet {

namespace {

using Clock = std::chrono::steady_clock;

/// Ring positions per worker; more = smoother shard balance.
constexpr int kVirtualNodes = 64;
/// In-flight depth on the ring's pick beyond which a request overflows to
/// the least-loaded alive worker.
constexpr int kOverflowDepth = 8;
/// A request unanswered this long is failed (kInternalError) and dropped.
constexpr int kRequestTimeoutMs = 60000;
/// Reconnect backoff after a worker connection dies: doubles from min to
/// max per consecutive failure, resets on success.
constexpr int kReconnectBackoffMinMs = 25;
constexpr int kReconnectBackoffMaxMs = 1000;
/// Budget for connecting to a control endpoint (metrics pull, model swap
/// handshake — not the worker-side warmup, which runs synchronously and is
/// bounded by the reply wait below).
constexpr int kControlConnectTimeoutMs = 20000;
/// Budget for one control reply (a swap reply arrives only after the worker
/// loaded + warmed the new model).
constexpr int kControlReplyTimeoutMs = 120000;

serve::RecoveryResponse ErrorResponse(serve::ResponseKind kind,
                                      std::string error) {
  serve::RecoveryResponse resp;
  resp.ok = false;
  resp.kind = kind;
  resp.error = std::move(error);
  return resp;
}

/// Connects with retries for up to kControlConnectTimeoutMs — control
/// operations tolerate a worker that is mid-restart.
bool ConnectControl(const std::string& endpoint, Socket* out,
                    std::string* error) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(kControlConnectTimeoutMs);
  for (;;) {
    if (ConnectTo(endpoint, out, error)) return true;
    if (Clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
}

/// One synchronous control round-trip: send `frame`, wait (bounded by
/// kControlReplyTimeoutMs) for a reply of `want` type.
bool ControlRoundTrip(const Socket& s, const std::string& frame,
                      FrameType want, std::string* payload,
                      std::string* error) {
  if (!SendFrame(s, frame, error)) return false;
  const int r = PollReadable(s, kControlReplyTimeoutMs);
  if (r <= 0) {
    *error = r == 0 ? "control reply timed out" : "control connection lost";
    return false;
  }
  FrameHeader header;
  if (!RecvFrame(s, &header, payload, error)) return false;
  if (header.type != want) {
    *error = "unexpected control reply frame type";
    return false;
  }
  return true;
}

}  // namespace

struct FleetRouter::WorkerChannel {
  int index = 0;
  FleetWorkerEndpoints endpoints;
  std::thread manager;

  struct Pending {
    std::promise<serve::RecoveryResponse> promise;
    Clock::time_point deadline;
  };

  /// Guards socket/connected/inflight/counters. Senders (Submit) hold it
  /// across register+send so a response read by the manager always finds
  /// its pending entry; the manager never holds it across a blocking read.
  mutable std::mutex mu;
  Socket socket;
  bool connected = false;
  std::unordered_map<uint64_t, Pending> inflight;
  int64_t sent = 0;
  int64_t answered = 0;
  int64_t failed = 0;
  int64_t reconnects = 0;
  std::atomic<int> inflight_count{0};
};

FleetRouter::FleetRouter(const FleetRouterConfig& config) {
  workers_.reserve(config.workers.size());
  for (size_t i = 0; i < config.workers.size(); ++i) {
    auto w = std::make_unique<WorkerChannel>();
    w->index = static_cast<int>(i);
    w->endpoints = config.workers[i];
    workers_.push_back(std::move(w));
  }
  // Ring points are hashes of a deterministic label — the ring is identical
  // across router restarts, so shard placement is stable.
  ring_.reserve(workers_.size() * kVirtualNodes);
  for (size_t i = 0; i < workers_.size(); ++i) {
    for (int v = 0; v < kVirtualNodes; ++v) {
      const std::string label =
          "worker-" + std::to_string(i) + "-vnode-" + std::to_string(v);
      ring_.emplace_back(Fnv1a64(label), static_cast<int>(i));
    }
  }
  std::sort(ring_.begin(), ring_.end());
  for (auto& w : workers_) {
    w->manager = std::thread(&FleetRouter::ManagerLoop, this, w.get());
  }
}

FleetRouter::~FleetRouter() { Shutdown(); }

void FleetRouter::ManagerLoop(WorkerChannel* w) {
  int backoff_ms = kReconnectBackoffMinMs;
  while (!shutdown_.load(std::memory_order_acquire)) {
    Socket s;
    std::string error;
    if (!ConnectTo(w->endpoints.data, &s, &error)) {
      // Sleep in small slices so Shutdown is never stuck behind a backoff.
      const Clock::time_point until =
          Clock::now() + std::chrono::milliseconds(backoff_ms);
      while (Clock::now() < until &&
             !shutdown_.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      backoff_ms = std::min(backoff_ms * 2, kReconnectBackoffMaxMs);
      continue;
    }
    backoff_ms = kReconnectBackoffMinMs;
    {
      std::lock_guard<std::mutex> lock(w->mu);
      w->socket = std::move(s);
      w->connected = true;
      ++w->reconnects;
    }
    DrainConnection(w);
    std::lock_guard<std::mutex> lock(w->mu);
    w->connected = false;
    w->socket.Close();
    FailInflight(w, "fleet worker " + std::to_string(w->index) +
                        " connection lost");
  }
  std::lock_guard<std::mutex> lock(w->mu);
  w->connected = false;
  w->socket.Close();
  FailInflight(w, "fleet router shut down");
}

void FleetRouter::DrainConnection(WorkerChannel* w) {
  while (!shutdown_.load(std::memory_order_acquire)) {
    // Poll without the lock: Submit must be able to send while we wait.
    const int r = PollReadable(w->socket, 50);
    if (r < 0) return;
    if (r == 0) {
      CheckTimeouts(w);
      continue;
    }
    FrameHeader header;
    std::string payload;
    std::string error;
    if (!RecvFrame(w->socket, &header, &payload, &error)) return;
    if (header.type != FrameType::kResponse) return;  // protocol break
    uint64_t id = 0;
    serve::RecoveryResponse resp;
    if (!DecodeResponsePayload(payload.data(), payload.size(), &id, &resp,
                               &error)) {
      return;  // malformed response: drop the connection, fail-and-reconnect
    }
    std::promise<serve::RecoveryResponse> promise;
    bool found = false;
    {
      std::lock_guard<std::mutex> lock(w->mu);
      auto it = w->inflight.find(id);
      if (it != w->inflight.end()) {
        promise = std::move(it->second.promise);
        w->inflight.erase(it);
        ++w->answered;
        w->inflight_count.fetch_sub(1, std::memory_order_relaxed);
        found = true;
      }
      // Unknown id: already failed by timeout — the late answer is dropped.
    }
    if (found) promise.set_value(std::move(resp));
  }
}

void FleetRouter::FailInflight(WorkerChannel* w, const std::string& reason) {
  // Caller holds w->mu.
  for (auto& entry : w->inflight) {
    entry.second.promise.set_value(
        ErrorResponse(serve::ResponseKind::kInternalError, reason));
    ++w->failed;
    w->inflight_count.fetch_sub(1, std::memory_order_relaxed);
  }
  w->inflight.clear();
}

void FleetRouter::CheckTimeouts(WorkerChannel* w) {
  const Clock::time_point now = Clock::now();
  std::vector<std::promise<serve::RecoveryResponse>> expired;
  {
    std::lock_guard<std::mutex> lock(w->mu);
    for (auto it = w->inflight.begin(); it != w->inflight.end();) {
      if (now >= it->second.deadline) {
        expired.push_back(std::move(it->second.promise));
        it = w->inflight.erase(it);
        ++w->failed;
        w->inflight_count.fetch_sub(1, std::memory_order_relaxed);
      } else {
        ++it;
      }
    }
  }
  for (auto& p : expired) {
    p.set_value(ErrorResponse(
        serve::ResponseKind::kInternalError,
        "fleet request timed out on worker " + std::to_string(w->index)));
  }
}

FleetRouter::WorkerChannel* FleetRouter::PickWorker(
    uint64_t key, const std::vector<bool>& tried) {
  const auto eligible = [&](int idx) {
    if (tried[static_cast<size_t>(idx)]) return false;
    std::lock_guard<std::mutex> lock(workers_[idx]->mu);
    return workers_[idx]->connected;
  };
  // Ring walk: first eligible worker at or after the key's point.
  WorkerChannel* primary = nullptr;
  if (!ring_.empty()) {
    auto it = std::lower_bound(
        ring_.begin(), ring_.end(), std::make_pair(key, -1));
    for (size_t step = 0; step < ring_.size(); ++step) {
      if (it == ring_.end()) it = ring_.begin();
      if (eligible(it->second)) {
        primary = workers_[it->second].get();
        break;
      }
      ++it;
    }
  }
  if (primary == nullptr) return nullptr;
  if (primary->inflight_count.load(std::memory_order_relaxed) <=
      kOverflowDepth) {
    return primary;
  }
  // The shard owner is backed up: overflow to the least-loaded alternative
  // (ties keep the primary — no churn while everyone is equally busy).
  WorkerChannel* best = primary;
  int best_depth = primary->inflight_count.load(std::memory_order_relaxed);
  for (auto& w : workers_) {
    if (w.get() == primary || !eligible(w->index)) continue;
    const int depth = w->inflight_count.load(std::memory_order_relaxed);
    if (depth < best_depth) {
      best = w.get();
      best_depth = depth;
    }
  }
  return best;
}

std::future<serve::RecoveryResponse> FleetRouter::Submit(
    serve::RecoveryRequest req) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  std::promise<serve::RecoveryResponse> promise;
  std::future<serve::RecoveryResponse> future = promise.get_future();

  // Front-end validation: a structurally invalid request is answered here,
  // without spending a worker round-trip on it.
  std::string verror;
  if (!serve::ValidateRequest(req, &verror)) {
    validation_rejected_.fetch_add(1, std::memory_order_relaxed);
    promise.set_value(
        ErrorResponse(serve::ResponseKind::kValidationError, verror));
    return future;
  }
  if (shutdown_.load(std::memory_order_acquire)) {
    promise.set_value(ErrorResponse(serve::ResponseKind::kShed,
                                    "fleet router shut down"));
    return future;
  }

  const std::string body = EncodeRequestBody(req);
  const uint64_t key = Fnv1a64(body);
  const uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  const std::string frame = BuildRequestFrame(id, body);
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(kRequestTimeoutMs);

  std::vector<bool> tried(workers_.size(), false);
  bool any_attempt = false;
  for (;;) {
    WorkerChannel* w = PickWorker(key, tried);
    if (w == nullptr) break;
    tried[static_cast<size_t>(w->index)] = true;
    std::string send_error;
    {
      std::lock_guard<std::mutex> lock(w->mu);
      if (!w->connected) continue;  // died between pick and lock
      // Register before sending: the worker may answer before we would get
      // back to the map otherwise.
      auto emplaced = w->inflight.emplace(
          id, WorkerChannel::Pending{std::move(promise), deadline});
      w->inflight_count.fetch_add(1, std::memory_order_relaxed);
      if (SendAll(w->socket, frame, &send_error)) {
        ++w->sent;
        return future;
      }
      // Send failed: reclaim the promise and let the manager's read loop
      // discover the dead connection; retry the next alive worker.
      promise = std::move(emplaced.first->second.promise);
      w->inflight.erase(emplaced.first);
      w->inflight_count.fetch_sub(1, std::memory_order_relaxed);
      w->socket.ShutdownBoth();
    }
    if (any_attempt) rerouted_.fetch_add(1, std::memory_order_relaxed);
    any_attempt = true;
  }
  no_worker_available_.fetch_add(1, std::memory_order_relaxed);
  promise.set_value(ErrorResponse(serve::ResponseKind::kInternalError,
                                  "no alive fleet worker"));
  return future;
}

obs::MetricsSnapshot FleetRouter::FleetMetrics(std::string* error) {
  obs::MetricsSnapshot fleet;
  std::string problems;
  int merged = 0;
  for (auto& w : workers_) {
    Socket control;
    std::string werror;
    std::string payload;
    obs::MetricsSnapshot snap;
    if (!ConnectControl(w->endpoints.control, &control, &werror) ||
        !ControlRoundTrip(control, BuildMetricsQueryFrame(),
                          FrameType::kMetricsReply, &payload, &werror) ||
        !DecodeMetricsReplyPayload(payload.data(), payload.size(), &snap,
                                   &werror)) {
      problems += (problems.empty() ? "" : "; ") + ("worker " +
                  std::to_string(w->index) + ": " + werror);
      continue;
    }
    if (merged == 0) {
      fleet = std::move(snap);
    } else {
      fleet.Merge(snap);
    }
    ++merged;
  }
  if (error != nullptr) *error = problems;
  return fleet;
}

bool FleetRouter::RollingDeploy(const std::string& snapshot_path,
                                std::string* error) {
  for (auto& w : workers_) {
    Socket control;
    std::string werror;
    if (!ConnectControl(w->endpoints.control, &control, &werror)) {
      if (error != nullptr) {
        *error = "worker " + std::to_string(w->index) +
                 " control connect failed: " + werror;
      }
      return false;
    }
    std::string payload;
    if (!ControlRoundTrip(control, BuildSwapModelFrame(snapshot_path),
                          FrameType::kSwapReply, &payload, &werror)) {
      if (error != nullptr) {
        *error = "worker " + std::to_string(w->index) +
                 " swap round-trip failed: " + werror;
      }
      return false;
    }
    bool ok = false;
    std::string message;
    uint64_t version = 0;
    if (!DecodeSwapReplyPayload(payload.data(), payload.size(), &ok, &message,
                                &version, &werror)) {
      if (error != nullptr) {
        *error = "worker " + std::to_string(w->index) +
                 " swap reply malformed: " + werror;
      }
      return false;
    }
    if (!ok) {
      if (error != nullptr) {
        *error =
            "worker " + std::to_string(w->index) + " swap failed: " + message;
      }
      return false;
    }
  }
  return true;
}

bool FleetRouter::WaitForAlive(int min_workers, int timeout_ms) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    if (static_cast<int>(AliveWorkers().size()) >= min_workers) return true;
    if (Clock::now() >= deadline ||
        shutdown_.load(std::memory_order_acquire)) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

std::vector<int> FleetRouter::AliveWorkers() const {
  std::vector<int> alive;
  for (const auto& w : workers_) {
    std::lock_guard<std::mutex> lock(w->mu);
    if (w->connected) alive.push_back(w->index);
  }
  return alive;
}

FleetStats FleetRouter::Stats() const {
  FleetStats stats;
  stats.submitted = submitted_.load(std::memory_order_relaxed);
  stats.validation_rejected =
      validation_rejected_.load(std::memory_order_relaxed);
  stats.no_worker_available =
      no_worker_available_.load(std::memory_order_relaxed);
  stats.rerouted = rerouted_.load(std::memory_order_relaxed);
  for (const auto& w : workers_) {
    FleetWorkerView view;
    std::lock_guard<std::mutex> lock(w->mu);
    view.index = w->index;
    view.alive = w->connected;
    view.inflight = w->inflight_count.load(std::memory_order_relaxed);
    view.sent = w->sent;
    view.answered = w->answered;
    view.failed = w->failed;
    view.reconnects = w->reconnects;
    stats.workers.push_back(view);
  }
  return stats;
}

void FleetRouter::Shutdown() {
  if (shutdown_.exchange(true, std::memory_order_acq_rel)) {
    // Idempotent: the first caller joined the managers already.
    for (auto& w : workers_) {
      if (w->manager.joinable()) w->manager.join();
    }
    return;
  }
  for (auto& w : workers_) {
    std::lock_guard<std::mutex> lock(w->mu);
    if (w->connected) w->socket.ShutdownBoth();  // wake a blocked read
  }
  for (auto& w : workers_) {
    if (w->manager.joinable()) w->manager.join();
  }
}

}  // namespace fleet
}  // namespace rntraj
