#include "src/serve/recovery_service.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <utility>

#include "src/baselines/two_stage.h"
#include "src/obs/stage_profiler.h"
#include "src/tensor/buffer_pool.h"

namespace rntraj {
namespace serve {

RecoveryService::RecoveryService(RecoveryModel* model, const ModelContext& ctx,
                                 const RecoveryServiceConfig& config)
    : model_(model), cfg_(config), batcher_(config.batcher) {
  // Resolve the telemetry names once; the hot path increments through the
  // cached pointers only.
  c_submitted_ = metrics_.GetCounter("serve.submitted");
  c_shed_ = metrics_.GetCounter("serve.shed");
  c_completed_ = metrics_.GetCounter("serve.completed");
  c_ok_ = metrics_.GetCounter("serve.ok");
  c_degraded_ = metrics_.GetCounter("serve.degraded");
  c_validation_error_ = metrics_.GetCounter("serve.validation_error");
  c_deadline_missed_ = metrics_.GetCounter("serve.deadline_missed");
  c_internal_error_ = metrics_.GetCounter("serve.internal_error");
  c_swaps_ = metrics_.GetCounter("serve.swaps");
  g_model_version_ = metrics_.GetGauge("serve.model_version");
  h_latency_ms_ = metrics_.GetHistogram("serve.latency_ms");
  h_queue_ms_ = metrics_.GetHistogram("serve.queue_ms");
  h_infer_ms_ = metrics_.GetHistogram("serve.infer_ms");
  if (cfg_.trace.sample_rate > 0.0) {
    tracer_ = std::make_unique<obs::Tracer>(cfg_.trace);
  }
  prev_profile_enabled_ = obs::StageProfiler::Global().enabled();
  if (cfg_.profile_stages) obs::StageProfiler::Global().set_enabled(true);

  exclusive_model_ = !model_->SupportsConcurrentRecover();
  if (exclusive_model_) cfg_.num_sessions = 1;
  cfg_.num_sessions = std::max(1, cfg_.num_sessions);

  if (!cfg_.cache_radii.empty()) {
    cache_ = std::make_unique<CellCandidateCache>(
        ctx.rn, ctx.rtree, ctx.grid, cfg_.cache_radii);
    model_->SetSegmentQuerySource(cache_.get());
  }
  if (cfg_.warm_model) {
    // The re-entrant session warmup: road representation (GridGNN forward)
    // computed once here, shared read-only by every request after.
    model_->SetTrainingMode(false);
    model_->BeginInference();
  }
  // Generation 0: the construction-time model, caller-owned.
  handle_ = std::make_shared<const ModelHandle>(
      ModelHandle{model_, nullptr, 0});
  g_model_version_->Set(0.0);

  if (cfg_.policy.enabled) {
    policy_ = std::make_unique<ServicePolicy>(cfg_.batcher.max_queue_depth);
    // The degraded rung: linear interpolation + HMM map matching (the
    // existing two-stage baseline). Non-learned, stateless per call, and
    // re-entrant — sessions share one instance. It reads its own distance
    // table, capped at max_dijkstra_rows: the dataset's shared instance
    // (uncapped, swept by offline pipelines) is never touched.
    fallback_netdist_ =
        std::make_unique<NetworkDistance>(ctx.rn, cfg_.max_dijkstra_rows);
    ModelContext fallback_ctx = ctx;
    fallback_ctx.netdist = fallback_netdist_.get();
    fallback_ =
        std::make_unique<LinearHmmModel>(fallback_ctx, cfg_.fallback_hmm);
  }
  if (cfg_.fault.any_enabled()) {
    injector_ = std::make_unique<FaultInjector>(cfg_.fault);
  }

  // Deadline eviction at dequeue: expired requests get their immediate
  // response here instead of a batch slot.
  batcher_.SetExpiredHandler(
      [this](QueuedRequest&& q) { ResolveExpired(std::move(q)); });

  auto on_complete = [this](RecoveryResponse& resp, QueuedRequest& q,
                            double total_ms) {
    RecordCompletion(resp, total_ms);
    FinishTrace(q, resp);
  };
  for (int i = 0; i < cfg_.num_sessions; ++i) {
    sessions_.push_back(std::make_unique<InferenceSession>(
        i, cache_.get(), cfg_.prefetch_radii, on_complete, policy_.get(),
        fallback_.get(), injector_.get()));
  }
  workers_.reserve(sessions_.size());
  for (auto& session : sessions_) {
    workers_.emplace_back([this, s = session.get()] { WorkerLoop(s); });
  }
}

RecoveryService::~RecoveryService() {
  Shutdown();
  if (cache_ != nullptr) {
    model_->SetSegmentQuerySource(nullptr);
    // Every swapped-in generation had the shared cache installed too; the
    // workers are joined, so the uninstalls race nothing.
    for (auto& m : swapped_models_) m->SetSegmentQuerySource(nullptr);
  }
  if (cfg_.profile_stages) {
    obs::StageProfiler::Global().set_enabled(prev_profile_enabled_);
  }
}

void RecoveryService::WorkerLoop(InferenceSession* session) {
  // Steady-state inference repeats the same op shapes request after request;
  // the per-thread buffer pool turns that into allocation-free forwards.
  BufferPoolScope pool_scope;
  while (true) {
    std::vector<QueuedRequest> batch = batcher_.PopBatch();
    if (batch.empty()) return;  // shut down and drained
    // One handle per batch: the copy pins this generation (weights, warm
    // road representation, ownership) for the whole batch even if a swap
    // flips the service handle mid-forward.
    const std::shared_ptr<const ModelHandle> handle = AcquireModel();
    session->ProcessBatch(std::move(batch), handle->model, handle->version);
  }
}

std::shared_ptr<const ModelHandle> RecoveryService::AcquireModel() const {
  std::lock_guard<std::mutex> lock(handle_mu_);
  return handle_;
}

uint64_t RecoveryService::model_version() const {
  return AcquireModel()->version;
}

bool RecoveryService::SwapModel(std::shared_ptr<RecoveryModel> next,
                                std::string* error) {
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = "SwapModel: " + why;
    return false;
  };
  if (next == nullptr) return fail("null model");
  if (shut_down_.load()) return fail("service is shut down");
  if (!exclusive_model_ && cfg_.num_sessions > 1 &&
      !next->SupportsConcurrentRecover()) {
    // The session pool was sized for a re-entrant model; a non-re-entrant
    // replacement would race itself. Refuse instead of serving corruption.
    return fail("replacement model does not support concurrent Recover, but "
                "the service runs " +
                std::to_string(cfg_.num_sessions) + " sessions");
  }

  // Swap span: the warmup/flip timeline, retained in the tracer's ring like
  // any sampled request (synthetic id from the same allocator).
  std::shared_ptr<obs::RequestTrace> swap_trace;
  if (tracer_ != nullptr) {
    swap_trace = std::make_shared<obs::RequestTrace>(
        next_id_.fetch_add(1, std::memory_order_relaxed));
    swap_trace->set_outcome("model-swap");
    swap_trace->OpenSpan("swap.warmup");
  }

  // Warm the replacement on THIS thread while the old generation keeps
  // serving: shared roadnet caches installed, eval mode, BeginInference
  // (for RnTrajRec the road-representation compute from the new weights).
  if (cache_ != nullptr) next->SetSegmentQuerySource(cache_.get());
  next->SetTrainingMode(false);
  next->BeginInference();

  uint64_t version = 0;
  {
    std::lock_guard<std::mutex> lock(handle_mu_);
    version = handle_->version + 1;
    if (swap_trace != nullptr) {
      swap_trace->CloseSpan(swap_trace->SpanIndex("swap.warmup"));
      swap_trace->OpenSpan("swap.flip");
    }
    handle_ = std::make_shared<const ModelHandle>(
        ModelHandle{next.get(), next, version});
    swapped_models_.push_back(std::move(next));
    if (swap_trace != nullptr) {
      swap_trace->CloseSpan(swap_trace->SpanIndex("swap.flip"));
    }
  }
  // In-flight batches still hold the previous handle; their futures resolve
  // on the old weights. Everything dispatched from here on acquires the new
  // generation.
  c_swaps_->Add(1);
  g_model_version_->Set(static_cast<double>(version));
  if (swap_trace != nullptr) {
    swap_trace->Finish();
    tracer_->Retain(swap_trace);
  }
  return true;
}

RecoveryResponse RecoveryService::ShedResponse(const char* why) {
  c_shed_->Add(1);
  RecoveryResponse resp;
  resp.kind = ResponseKind::kShed;
  resp.error = why;
  return resp;
}

std::future<RecoveryResponse> RecoveryService::Submit(RecoveryRequest req) {
  QueuedRequest q;
  q.request = std::move(req);
  q.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  c_submitted_->Add(1);
  if (tracer_ != nullptr) {
    // Deterministic per-id sampling: whether THIS request is traced does
    // not depend on thread interleaving. The root span opens at
    // construction; the queue span opens here and the dequeuing session
    // (or the eviction path) closes it.
    q.trace = tracer_->MaybeBegin(q.id);
    if (q.trace != nullptr) {
      if (policy_ != nullptr) {
        q.trace->set_policy_at_submit(ToString(policy_->state()));
      }
      q.trace->OpenSpan("queue");
    }
  }
  std::future<RecoveryResponse> future = q.promise.get_future();
  if (policy_ != nullptr) {
    policy_->ObserveDepth(batcher_.depth());
    if (policy_->state() == PolicyState::kShedding) {
      // The ladder's last rung: refuse admission outright. Answering here
      // costs nothing and keeps the queue for requests the degraded path
      // can still serve in time.
      RecoveryResponse resp = ShedResponse("shedding load (service overloaded)");
      FinishTrace(q, resp);
      q.promise.set_value(std::move(resp));
      return future;
    }
  }
  if (!batcher_.Push(std::move(q))) {
    // Load shed: answer immediately instead of blocking the producer.
    RecoveryResponse resp = ShedResponse("queue full or service shutting down");
    FinishTrace(q, resp);
    q.promise.set_value(std::move(resp));
  }
  return future;
}

void RecoveryService::Shutdown() {
  // exchange: exactly one caller proceeds to join (destructor and an
  // explicit Shutdown may race).
  if (shut_down_.exchange(true)) return;
  batcher_.Shutdown();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
}

void RecoveryService::ResolveExpired(QueuedRequest&& q) {
  RecoveryResponse resp;
  resp.kind = ResponseKind::kDeadlineMissed;
  resp.error = "deadline exceeded";
  const auto now = std::chrono::steady_clock::now();
  resp.queue_ms = std::chrono::duration<double, std::milli>(
                      now - q.enqueued_at)
                      .count();
  if (q.trace != nullptr) {
    const int64_t at = q.trace->ToNs(now);
    q.trace->CloseSpanAt(q.trace->SpanIndex("queue"), at);
    q.trace->AddEventAt("evicted-at-dequeue", at);
  }
  RecordCompletion(resp, resp.queue_ms);
  FinishTrace(q, resp);
  q.promise.set_value(std::move(resp));
}

void RecoveryService::FinishTrace(QueuedRequest& q, RecoveryResponse& resp) {
  if (q.trace == nullptr) return;
  obs::RequestTrace& t = *q.trace;
  t.set_outcome(ResponseKindName(resp.kind));
  t.set_degraded(resp.degraded);
  t.set_session_id(resp.session_id);
  t.set_batch_size(resp.batch_size);
  if (policy_ != nullptr) {
    // The ladder moved while this request was in flight — the per-request
    // view of a policy transition ("submitted under OK, answered under
    // DEGRADED") that aggregate counters cannot show.
    const char* now_state = ToString(policy_->state());
    if (t.policy_at_submit()[0] != '\0' &&
        std::strcmp(now_state, t.policy_at_submit()) != 0) {
      t.AddEvent("policy-transition");
    }
  }
  t.Finish();
  std::shared_ptr<const obs::RequestTrace> done = std::move(q.trace);
  tracer_->Retain(done);
  resp.trace = std::move(done);
}

void RecoveryService::RecordCompletion(const RecoveryResponse& resp,
                                       double total_ms) {
  c_completed_->Add(1);
  switch (resp.kind) {
    case ResponseKind::kOk:
      if (resp.degraded) {
        c_degraded_->Add(1);
      } else {
        c_ok_->Add(1);
      }
      break;
    case ResponseKind::kValidationError: c_validation_error_->Add(1); break;
    case ResponseKind::kDeadlineMissed: c_deadline_missed_->Add(1); break;
    case ResponseKind::kShed: c_shed_->Add(1); break;  // not reached
    case ResponseKind::kInternalError: c_internal_error_->Add(1); break;
  }
  h_queue_ms_->Record(resp.queue_ms);
  if (resp.kind == ResponseKind::kOk) {
    // Latency percentiles track answered requests only: shed/missed/error
    // responses resolve fast and would read as spurious speed.
    h_latency_ms_->Record(total_ms);
    h_infer_ms_->Record(resp.infer_ms);
  }
  if (policy_ != nullptr) {
    // Answered requests feed the miss-rate window (shed/invalid ones carry
    // no capacity signal); every completion refreshes the depth signal so
    // the ladder can step down as the queue drains.
    if (resp.kind == ResponseKind::kOk) {
      policy_->RecordOutcome(/*deadline_missed=*/false);
    } else if (resp.kind == ResponseKind::kDeadlineMissed) {
      policy_->RecordOutcome(/*deadline_missed=*/true);
    }
    policy_->ObserveDepth(batcher_.depth());
  }
}

ServeStats RecoveryService::Stats() const {
  ServeStats s;
  s.submitted = c_submitted_->Value();
  s.shed = c_shed_->Value();
  s.completed = c_completed_->Value();
  s.ok = c_ok_->Value();
  s.degraded = c_degraded_->Value();
  s.validation_error = c_validation_error_->Value();
  s.deadline_missed = c_deadline_missed_->Value();
  s.internal_error = c_internal_error_->Value();
  int64_t session_requests = 0;
  for (const auto& session : sessions_) {
    const SessionStats st = session->Snapshot();
    s.batches += st.batches;
    s.faults += st.faults;
    session_requests += st.requests;
  }
  if (s.batches > 0) {
    s.mean_batch_size =
        static_cast<double>(session_requests) / static_cast<double>(s.batches);
  }
  if (policy_ != nullptr) {
    const ServicePolicyStats ps = policy_->Snapshot();
    s.policy_state = ps.state;
    s.policy_entered_degraded = ps.entered_degraded;
    s.policy_entered_shedding = ps.entered_shedding;
  }
  const obs::HistogramSnapshot lat = h_latency_ms_->Snapshot();
  s.p50_ms = lat.Quantile(0.50);
  s.p99_ms = lat.Quantile(0.99);
  if (cache_ != nullptr) s.cache = cache_->stats();
  return s;
}

obs::MetricsSnapshot RecoveryService::Metrics() const {
  obs::MetricsSnapshot snap = metrics_.Snapshot();
  snap.gauges["serve.queue.depth"] = static_cast<double>(batcher_.depth());
  int64_t batches = 0, requests = 0, faults = 0;
  int64_t pool_hits = 0, pool_misses = 0, pool_recycled = 0, pool_bytes = 0;
  double busy = 0.0;
  for (const auto& session : sessions_) {
    const SessionStats st = session->Snapshot();
    batches += st.batches;
    requests += st.requests;
    faults += st.faults;
    busy += st.busy_seconds;
    pool_hits += st.pool_hits;
    pool_misses += st.pool_misses;
    pool_recycled += st.pool_recycled;
    pool_bytes += st.pool_cached_bytes;
  }
  snap.counters["serve.batches"] = batches;
  snap.counters["serve.session_requests"] = requests;
  snap.counters["serve.faults"] = faults;
  snap.gauges["serve.sessions.busy_seconds"] = busy;
  // Tensor buffer-pool telemetry, summed over the worker threads' pools
  // (hits/misses/recycled are lifetime counters; cached_bytes is the
  // resident pool size right now — a gauge).
  snap.counters["tensor.bufpool.hits"] = pool_hits;
  snap.counters["tensor.bufpool.misses"] = pool_misses;
  snap.counters["tensor.bufpool.recycled"] = pool_recycled;
  snap.gauges["tensor.bufpool.cached_bytes"] = static_cast<double>(pool_bytes);
  if (policy_ != nullptr) {
    const ServicePolicyStats ps = policy_->Snapshot();
    snap.gauges["serve.policy.state"] =
        static_cast<double>(static_cast<int>(ps.state));
    snap.counters["serve.policy.entered_degraded"] = ps.entered_degraded;
    snap.counters["serve.policy.entered_shedding"] = ps.entered_shedding;
    snap.gauges["serve.policy.recent_miss_rate"] = ps.recent_miss_rate;
  }
  if (cache_ != nullptr) {
    const RoadnetCacheStats cs = cache_->stats();
    snap.counters["serve.cache.hits"] = cs.hits;
    snap.counters["serve.cache.misses"] = cs.misses;
    snap.counters["serve.cache.fallbacks"] = cs.fallbacks;
    snap.gauges["serve.cache.entries"] = static_cast<double>(cs.entries);
  }
  if (tracer_ != nullptr) {
    snap.counters["serve.trace.sampled"] = tracer_->sampled();
    snap.counters["serve.trace.dropped"] = tracer_->dropped();
  }
  // Fold the global stage profile in (meaningful when profile_stages was
  // on; zeros otherwise). Global: concurrent services share these totals.
  const obs::StageProfile prof = obs::StageProfiler::Global().Snapshot();
  for (int i = 0; i < obs::kStageCount; ++i) {
    const obs::StageStat& st = prof.stages[i];
    if (st.count == 0 && st.ns == 0) continue;
    const std::string name =
        std::string("stage.") + obs::StageName(static_cast<obs::Stage>(i));
    snap.counters[name + ".count"] = st.count;
    snap.gauges[name + ".total_ms"] = st.Ms();
  }
  return snap;
}

}  // namespace serve
}  // namespace rntraj
