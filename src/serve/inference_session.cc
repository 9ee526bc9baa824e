#include "src/serve/inference_session.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <optional>
#include <string>
#include <utility>

#include "src/obs/stage_profiler.h"
#include "src/sim/dataset.h"
#include "src/tensor/buffer_pool.h"

namespace rntraj {
namespace serve {

namespace {

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

std::string DescribeException() {
  try {
    throw;  // rethrow the in-flight exception to classify it
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown exception";
  }
}

}  // namespace

void InferenceSession::ProcessBatch(std::vector<QueuedRequest>&& batch,
                                    RecoveryModel* model,
                                    uint64_t model_version) {
  const auto batch_start = std::chrono::steady_clock::now();
  const int batch_size = static_cast<int>(batch.size());
  // Counted up front so Stats() readers woken by this batch's own futures
  // see a consistent batches/requests pair.
  batches_.fetch_add(1, std::memory_order_relaxed);

  // Trace touchpoints (sampled requests only — `trace` is null for the
  // rest): the queue span ends at dequeue, the dispatch span opens here and
  // covers stall/prefetch/triage up to the forward.
  bool any_traced = false;
  for (QueuedRequest& q : batch) {
    if (q.trace == nullptr) continue;
    any_traced = true;
    const int64_t at = q.trace->ToNs(batch_start);
    q.trace->CloseSpanAt(q.trace->SpanIndex("queue"), at);
    q.trace->OpenSpanAt("dispatch", obs::RequestTrace::kRootSpan, at);
  }

  // Chaos hook: a stalled session (wedged forward, page fault storm, ...).
  // Keyed on the first request's id so which batches stall is deterministic
  // per request stream, independent of which session popped them.
  if (injector_ != nullptr && !batch.empty()) {
    injector_->MaybeStall(batch.front().id);
  }

  // The degradation decision is per batch: when the ladder is off OK, valid
  // requests run the cheap fallback path instead of the full model.
  const bool degraded = policy_ != nullptr && fallback_ != nullptr &&
                        policy_->state() != PolicyState::kOk;

  // Batch-level cache warmup: one pass over every input point of the batch
  // per radius, so overlapping requests share the R-tree work (and the
  // batched forward below runs almost entirely on cache hits). The
  // fallback path queries the R-tree directly, so a degraded batch skips
  // the warmup — it would be pure overhead at exactly the moment the
  // service is shedding cost.
  if (!degraded && cache_ != nullptr && !prefetch_radii_.empty()) {
    std::vector<Vec2> points;
    for (const QueuedRequest& q : batch) {
      for (const auto& p : q.request.input.points) points.push_back(p.pos);
    }
    for (double r : prefetch_radii_) cache_->Prefetch(points, r);
  }

  // Triage every request up front: validation, injected deadline expiry,
  // and the dispatch-time budget check (the batcher evicted requests that
  // were already dead at dequeue; time has passed since — prefetch, stalls).
  // Only the surviving remainder is converted to ephemeral samples.
  std::vector<RecoveryResponse> responses(batch.size());
  std::vector<TrajectorySample> samples;
  std::vector<int> sample_of(batch.size(), -1);  ///< Request -> sample index.
  samples.reserve(batch.size());
  const auto dispatch_now = std::chrono::steady_clock::now();
  for (size_t i = 0; i < batch.size(); ++i) {
    QueuedRequest& q = batch[i];
    responses[i].batch_size = batch_size;
    responses[i].session_id = id_;
    responses[i].model_version = model_version;
    responses[i].queue_ms = std::chrono::duration<double, std::milli>(
                                batch_start - q.enqueued_at)
                                .count();
    std::string error;
    if (injector_ != nullptr && injector_->ShouldExpire(q.id)) {
      q.deadline_at = dispatch_now - std::chrono::milliseconds(1);
      if (q.trace != nullptr) q.trace->AddEvent("fault-expire-injected");
    }
    if (!ValidateRequest(q.request, &error)) {
      responses[i].kind = ResponseKind::kValidationError;
      responses[i].error = std::move(error);
    } else if (q.expired(dispatch_now)) {
      responses[i].kind = ResponseKind::kDeadlineMissed;
      responses[i].error = "deadline exceeded";
    } else {
      sample_of[i] = static_cast<int>(samples.size());
      samples.push_back(
          MakeEphemeralSample(std::move(q.request.input),
                              std::move(q.request.input_indices),
                              q.request.target_times));
    }
  }

  // The forward section, bracketed for tracing. The capture frame mirrors
  // this thread's stage timers (GAT/GRL/transformer/decoder/constraint
  // mask) so the forward span can be split into encode/decode below without
  // seeing concurrent sessions' stages; it is only installed when a traced
  // request is aboard — untraced batches skip even that.
  const auto forward_start = std::chrono::steady_clock::now();
  std::optional<obs::StageCaptureScope> capture;
  if (any_traced) capture.emplace();

  if (!samples.empty()) {
    // One cross-request forward for the coalesced batch. On the full model
    // (RnTrajRec) RecoverBatch runs a single padded encoder pass plus one
    // fat decoder step per target timestep. On the degraded rung it runs
    // the Linear+HMM fallback (the existing two-stage baseline): much
    // cheaper — the point is to keep the queue draining under overload —
    // and flagged so callers know what they got. infer_ms reports each
    // request's share of the batch forward; promises resolve together.
    RecoveryModel* const forward_model = degraded ? fallback_ : model;
    // Injected throws stand in for full-model failures only.
    const FaultInjector* const injector = degraded ? nullptr : injector_;
    std::vector<const TrajectorySample*> ptrs;
    ptrs.reserve(samples.size());
    for (const TrajectorySample& s : samples) ptrs.push_back(&s);
    const auto infer_start = std::chrono::steady_clock::now();
    bool batch_ok = false;
    try {
      if (injector != nullptr) {
        for (size_t i = 0; i < batch.size(); ++i) {
          if (sample_of[i] >= 0) injector->OnForward(batch[i].id);
        }
      }
      std::vector<MatchedTrajectory> recovered =
          forward_model->RecoverBatch(ptrs);
      const double per_request_ms =
          MsSince(infer_start) / static_cast<double>(samples.size());
      for (size_t i = 0; i < batch.size(); ++i) {
        if (sample_of[i] < 0) continue;
        responses[i].recovered = std::move(recovered[sample_of[i]]);
        responses[i].infer_ms = per_request_ms;
        responses[i].ok = true;
        responses[i].kind = ResponseKind::kOk;
        responses[i].degraded = degraded;
      }
      requests_.fetch_add(static_cast<int64_t>(samples.size()),
                          std::memory_order_relaxed);
      batch_ok = true;
    } catch (...) {
      // The shared forward threw, so no lane has an answer yet. Isolate by
      // retrying request by request (each a batch of one): only the lane(s)
      // whose forward throws again are poisoned; the rest still get correct
      // answers.
      faults_.fetch_add(1, std::memory_order_relaxed);
    }
    if (!batch_ok) {
      for (size_t i = 0; i < batch.size(); ++i) {
        if (sample_of[i] < 0) continue;
        const auto lane_start = std::chrono::steady_clock::now();
        try {
          if (injector != nullptr) injector->OnForward(batch[i].id);
          responses[i].recovered =
              forward_model->Recover(samples[sample_of[i]]);
          responses[i].ok = true;
          responses[i].kind = ResponseKind::kOk;
          responses[i].degraded = degraded;
          requests_.fetch_add(1, std::memory_order_relaxed);
        } catch (...) {
          responses[i].kind = ResponseKind::kInternalError;
          responses[i].error = "internal error: " + DescribeException();
          faults_.fetch_add(1, std::memory_order_relaxed);
        }
        responses[i].infer_ms = MsSince(lane_start);
      }
    }
  }

  // Post-forward budget check: an answer whose deadline passed while the
  // forward ran is NOT delivered as a success — the caller has stopped
  // waiting, and reporting it ok would hide the miss from the ladder.
  const auto forward_end = std::chrono::steady_clock::now();
  for (size_t i = 0; i < batch.size(); ++i) {
    if (responses[i].kind == ResponseKind::kOk &&
        batch[i].expired(forward_end)) {
      responses[i].ok = false;
      responses[i].kind = ResponseKind::kDeadlineMissed;
      responses[i].error = "deadline exceeded";
      responses[i].recovered = MatchedTrajectory();
    }
  }

  // Trace epilogue: close dispatch, record the forward interval (with its
  // encode/decode split from the capture frame — batch-shared wall time,
  // since the batch rode one forward), open the respond span. The service
  // finalises and retains the trace in on_complete_.
  for (size_t i = 0; i < batch.size(); ++i) {
    obs::RequestTrace* t = batch[i].trace.get();
    if (t == nullptr) continue;
    const int64_t fs = t->ToNs(forward_start);
    const int64_t fe = t->ToNs(forward_end);
    t->CloseSpanAt(t->SpanIndex("dispatch"), fs);
    if (sample_of[i] >= 0) {
      const int fwd =
          t->AddCompletedSpan("forward", obs::RequestTrace::kRootSpan, fs, fe);
      if (capture.has_value()) {
        const int64_t enc_ns = capture->ns(obs::Stage::kSubgraph) +
                               capture->ns(obs::Stage::kTransformer) +
                               capture->ns(obs::Stage::kGat) +
                               capture->ns(obs::Stage::kGrl);
        const int64_t dec_ns = capture->ns(obs::Stage::kConstraintMask) +
                               capture->ns(obs::Stage::kDecoder);
        int64_t at = fs;
        if (enc_ns > 0) {
          const int64_t end = std::min(at + enc_ns, fe);
          t->AddCompletedSpan("forward.encode", fwd, at, end);
          at = end;
        }
        if (dec_ns > 0) {
          t->AddCompletedSpan("forward.decode", fwd, at,
                              std::min(at + dec_ns, fe));
        }
      }
      if (responses[i].kind == ResponseKind::kInternalError) {
        t->AddEvent("forward-threw");
      }
    }
    t->OpenSpanAt("respond", obs::RequestTrace::kRootSpan, fe);
  }

  for (size_t i = 0; i < batch.size(); ++i) {
    // Record completion before resolving the future: a caller that returns
    // from future.get() must already see itself in Stats().
    if (on_complete_) {
      on_complete_(responses[i], batch[i], MsSince(batch[i].enqueued_at));
    }
    batch[i].promise.set_value(std::move(responses[i]));
  }
  busy_seconds_.fetch_add(MsSince(batch_start) / 1000.0,
                          std::memory_order_relaxed);

  // Publish this worker thread's buffer-pool counters (thread-local, so only
  // this session's forwards are reflected). Stores, not adds: the pool stats
  // are already cumulative for the thread's lifetime.
  const BufferPoolStats pool = GetBufferPoolStats();
  pool_hits_.store(static_cast<int64_t>(pool.hits), std::memory_order_relaxed);
  pool_misses_.store(static_cast<int64_t>(pool.misses),
                     std::memory_order_relaxed);
  pool_recycled_.store(static_cast<int64_t>(pool.recycled),
                       std::memory_order_relaxed);
  pool_cached_bytes_.store(static_cast<int64_t>(pool.cached_bytes),
                           std::memory_order_relaxed);
}

}  // namespace serve
}  // namespace rntraj
