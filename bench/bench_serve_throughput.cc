// Serving throughput benchmark: micro-batched RecoveryService vs sequential
// single-request inference on the same request workload.
//
// Configurations over an identical request stream:
//   cold sequential   — the no-subsystem baseline: every request pays the
//                       full single-request cost including the road
//                       representation forward (what answering a request in
//                       isolation costs without re-entrant warm sessions);
//   warm sequential   — one BeginInference, then one request at a time
//                       (today's offline RecoverAll loop, no batching, no
//                       caches);
//   service/batched   — the service: each micro-batch runs ONE padded
//                       GPSFormer pass (RecoverBatch), so encoder GEMMs see
//                       (sum of lengths, d) operands;
//   plus a num_sessions sweep of the batched service.
// The batched service answers are compared element-wise against the warm
// sequential answers: they must agree within 1e-5 (same segments; ratios
// match to float rounding — the forward is batch-composition invariant).
// Reported: requests/sec, p50/p99 latency, speedups.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/rntrajrec.h"
#include "src/serve/recovery_service.h"
#include "src/serve/workload.h"
#include "src/tensor/buffer_pool.h"

namespace rntraj {
namespace {

double Seconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

bool Run() {
  const auto settings = bench::Settings();
  const int num_requests = settings.scale == BenchScale::kTiny ? 120 : 360;

  DatasetConfig cfg = ChengduConfig(settings.scale, 8);
  auto ds = BuildDataset(cfg);
  ModelContext ctx = ModelContext::FromDataset(*ds);
  bench::PrintDatasetBanner(*ds, settings);

  SeedGlobalRng(12345);
  RnTrajRecConfig mcfg = DefaultRnTrajRecConfig(settings.dim);
  RnTrajRec model(mcfg, ctx);
  model.SetTrainingMode(false);

  auto workload = serve::PoissonWorkload(ds->test(), num_requests,
                                         /*qps=*/1e9, /*seed=*/7);

  // --- cold sequential: full per-request cost, road representation included.
  std::vector<double> cold_ms;
  {
    BufferPoolScope scope;
    const auto t0 = std::chrono::steady_clock::now();
    for (const auto& item : workload) {
      const auto r0 = std::chrono::steady_clock::now();
      model.BeginInference();
      serve::RecoveryRequest req = item.request;
      TrajectorySample s = MakeEphemeralSample(
          std::move(req.input), std::move(req.input_indices), req.target_times);
      MatchedTrajectory out = model.Recover(s);
      (void)out;
      cold_ms.push_back(
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - r0)
              .count());
    }
    (void)t0;
  }
  const double cold_total_s =
      std::accumulate(cold_ms.begin(), cold_ms.end(), 0.0) / 1000.0;

  // --- warm sequential: BeginInference once, then request at a time.
  std::vector<MatchedTrajectory> warm_results;
  std::vector<double> warm_ms;
  model.BeginInference();
  {
    BufferPoolScope scope;
    for (const auto& item : workload) {
      const auto r0 = std::chrono::steady_clock::now();
      serve::RecoveryRequest req = item.request;
      TrajectorySample s = MakeEphemeralSample(
          std::move(req.input), std::move(req.input_indices), req.target_times);
      warm_results.push_back(model.Recover(s));
      warm_ms.push_back(
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - r0)
              .count());
    }
  }
  const double warm_total_s =
      std::accumulate(warm_ms.begin(), warm_ms.end(), 0.0) / 1000.0;

  // --- service runs: warm sessions, caches, micro-batching with one padded
  // batched forward per micro-batch, plus a num_sessions sweep. Default
  // session count sized to the hardware: on one core extra workers only
  // thrash.
  const int auto_sessions = std::max(
      1, std::min(4, static_cast<int>(std::thread::hardware_concurrency())));

  struct ServiceRun {
    double total_s = 0.0;
    serve::ServeStats stats;
    std::vector<serve::RecoveryResponse> responses;
  };
  const auto run_service = [&](int sessions, bool obs_on = false) {
    serve::RecoveryServiceConfig scfg;
    scfg.num_sessions = sessions;
    scfg.batcher.max_batch_size = 16;
    scfg.batcher.max_batch_delay_us = 1000;
    scfg.cache_radii = {mcfg.delta, mcfg.decoder.mask_radius,
                        mcfg.decoder.spatial_prior_radius};
    scfg.prefetch_radii = {mcfg.delta};
    scfg.max_dijkstra_rows = 1024;
    scfg.warm_model = false;  // already warmed for the warm-sequential run
    if (obs_on) {
      // The full observability plane: every request traced, stage profiling
      // on. The overhead gate compares this against the obs-off twin.
      scfg.trace.sample_rate = 1.0;
      scfg.trace.ring_capacity = 256;
      scfg.profile_stages = true;
    }
    serve::RecoveryService service(&model, ctx, scfg);
    ServiceRun run;
    std::vector<std::future<serve::RecoveryResponse>> futures;
    futures.reserve(workload.size());
    const auto s0 = std::chrono::steady_clock::now();
    for (auto& item : workload) {
      futures.push_back(service.Submit(item.request));
    }
    run.responses.reserve(futures.size());
    for (auto& f : futures) run.responses.push_back(f.get());
    run.total_s = Seconds(s0);
    run.stats = service.Stats();
    if (obs_on) {
      // Observability artifacts for CI: the metrics snapshot and the
      // sampled-trace dump, written wherever the environment points.
      if (const char* path = std::getenv("RNTR_METRICS_JSON")) {
        std::ofstream out(path);
        out << service.Metrics().ToJson() << "\n";
        std::printf("wrote metrics snapshot to %s\n", path);
      }
      if (const char* path = std::getenv("RNTR_TRACE_JSON")) {
        std::ofstream out(path);
        out << service.tracer()->DumpJson() << "\n";
        std::printf("wrote trace dump to %s\n", path);
      }
    }
    return run;
  };

  const ServiceRun batched = run_service(auto_sessions);
  std::vector<std::pair<int, ServiceRun>> sweep;
  for (int ns : {1, 2, 4}) {
    if (ns == auto_sessions) continue;  // already measured
    sweep.emplace_back(ns, run_service(ns));
  }

  // --- observability overhead: the batched configuration on the same
  // workload — tracing/metrics/profiling off vs everything on (sample_rate
  // 1.0: every request carries a span tree; stage profiling global). The CI
  // gate (ci/check_bench.py) is self-relative on THIS run: obs_on_rps must
  // be >= 95% of obs_off_rps, so the claim "observability costs < 5%
  // throughput" is re-proven on every box the bench runs on. Each side is
  // the best of kObsRepeats interleaved runs: a single run on a shared box
  // wobbles far more than the 5% gate (±10-30% observed), and min-time of
  // repeated identical runs is the standard noise-floor estimator —
  // best-vs-best keeps the comparison honest while interleaving cancels
  // background-load drift.
  constexpr int kObsRepeats = 3;
  ServiceRun obs_off = run_service(auto_sessions);
  ServiceRun obs_on = run_service(auto_sessions, /*obs_on=*/true);
  for (int rep = 1; rep < kObsRepeats; ++rep) {
    ServiceRun off = run_service(auto_sessions);
    if (off.total_s < obs_off.total_s) obs_off = std::move(off);
    ServiceRun on = run_service(auto_sessions, /*obs_on=*/true);
    if (on.total_s < obs_on.total_s) obs_on = std::move(on);
  }
  const double obs_off_rps = num_requests / obs_off.total_s;
  const double obs_on_rps = num_requests / obs_on.total_s;
  const double obs_overhead_frac = 1.0 - obs_on_rps / obs_off_rps;

  // --- snapshot round trip: a model loaded from a snapshot of `model`
  // into a differently seeded instance must answer exactly like `model`
  // (the format is bit-exact fp32 and BeginInference recomputes the road
  // representation from the loaded weights). The file is reused below as
  // the hot-swap payload.
  const std::string snap_path = [] {
    const char* tmp = std::getenv("TMPDIR");
    return std::string(tmp != nullptr ? tmp : "/tmp") +
           "/bench_serve_roundtrip.snapshot";
  }();
  std::vector<MatchedTrajectory> snapshot_answers;
  {
    std::string err;
    if (!model.SaveSnapshot(snap_path, &err)) {
      std::fprintf(stderr, "FAILED to write snapshot: %s\n", err.c_str());
      return false;
    }
    SeedGlobalRng(54321);  // different init: the snapshot must supply all
    RnTrajRec loaded(mcfg, ctx);
    if (!loaded.LoadSnapshot(snap_path, &err)) {
      std::fprintf(stderr, "FAILED to load snapshot: %s\n", err.c_str());
      return false;
    }
    loaded.SetTrainingMode(false);
    loaded.BeginInference();
    BufferPoolScope scope;
    for (size_t i = 0; i < std::min<size_t>(8, workload.size()); ++i) {
      serve::RecoveryRequest req = workload[i].request;
      TrajectorySample s = MakeEphemeralSample(std::move(req.input),
                                               std::move(req.input_indices),
                                               req.target_times);
      snapshot_answers.push_back(loaded.Recover(s));
    }
  }
  int snapshot_seg_mismatches = 0;
  for (size_t i = 0; i < snapshot_answers.size(); ++i) {
    for (int j = 0; j < snapshot_answers[i].size(); ++j) {
      if (snapshot_answers[i].points[j].seg_id !=
          warm_results[i].points[j].seg_id) {
        ++snapshot_seg_mismatches;
      }
    }
  }

  // --- hot swap under load (PR 9): replay the workload through the batched
  // service and SwapModel mid-stream to a snapshot-loaded clone. The
  // invariants the CI gate pins: every future resolves (zero drops), and —
  // because the clone carries identical weights — every ok answer still
  // matches the warm sequential reference, whichever generation stamped it
  // (whole-model answers, never a blend).
  int64_t swap_dropped = 0;
  int swap_failed = 0;
  int swap_seg_mismatches = 0;
  double swap_max_ratio_diff = 0.0;
  int64_t swap_old_gen = 0, swap_new_gen = 0;
  uint64_t swap_final_version = 0;
  {
    SeedGlobalRng(54321);
    auto next = std::make_shared<RnTrajRec>(mcfg, ctx);
    std::string err;
    if (!next->LoadSnapshot(snap_path, &err)) {
      std::fprintf(stderr, "FAILED to load swap snapshot: %s\n", err.c_str());
      return false;
    }
    serve::RecoveryServiceConfig scfg;
    scfg.num_sessions = auto_sessions;
    scfg.batcher.max_batch_size = 16;
    scfg.batcher.max_batch_delay_us = 1000;
    scfg.cache_radii = {mcfg.delta, mcfg.decoder.mask_radius,
                        mcfg.decoder.spatial_prior_radius};
    scfg.prefetch_radii = {mcfg.delta};
    scfg.max_dijkstra_rows = 1024;
    scfg.warm_model = false;
    serve::RecoveryService service(&model, ctx, scfg);
    std::vector<std::future<serve::RecoveryResponse>> futures;
    futures.reserve(workload.size());
    const size_t half = workload.size() / 2;
    for (size_t i = 0; i < half; ++i) {
      futures.push_back(service.Submit(workload[i].request));
    }
    // The flip lands while the first half is in flight; warmup (the new
    // generation's road representation) runs on this thread.
    if (!service.SwapModel(next, &err)) {
      std::fprintf(stderr, "FAILED to swap model: %s\n", err.c_str());
      return false;
    }
    for (size_t i = half; i < workload.size(); ++i) {
      futures.push_back(service.Submit(workload[i].request));
    }
    for (size_t i = 0; i < futures.size(); ++i) {
      if (futures[i].wait_for(std::chrono::seconds(60)) !=
          std::future_status::ready) {
        ++swap_dropped;
        continue;
      }
      const serve::RecoveryResponse resp = futures[i].get();
      if (!resp.ok) {
        ++swap_failed;
        continue;
      }
      (resp.model_version == 0 ? swap_old_gen : swap_new_gen) += 1;
      const MatchedTrajectory& ref = warm_results[i];
      for (int j = 0; j < ref.size(); ++j) {
        if (resp.recovered.points[j].seg_id != ref.points[j].seg_id) {
          ++swap_seg_mismatches;
        }
        swap_max_ratio_diff =
            std::max(swap_max_ratio_diff,
                     std::abs(resp.recovered.points[j].ratio -
                              ref.points[j].ratio));
      }
    }
    swap_final_version = service.model_version();
  }
  std::remove(snap_path.c_str());
  const bool swap_ok = swap_dropped == 0 && swap_failed == 0 &&
                       swap_seg_mismatches == 0 &&
                       swap_max_ratio_diff <= 1e-5 && swap_final_version == 1;

  const std::vector<serve::RecoveryResponse>& responses = batched.responses;
  const double serve_total_s = batched.total_s;

  // --- equivalence: batched service answers vs warm sequential answers.
  int bad = 0;
  int seg_mismatches = 0;
  double max_ratio_diff = 0.0;
  for (size_t i = 0; i < responses.size(); ++i) {
    const auto& resp = responses[i];
    if (!resp.ok) {
      ++bad;
      continue;
    }
    const MatchedTrajectory& ref = warm_results[i];
    for (int j = 0; j < ref.size(); ++j) {
      if (resp.recovered.points[j].seg_id != ref.points[j].seg_id) {
        ++seg_mismatches;
      }
      max_ratio_diff =
          std::max(max_ratio_diff, std::abs(resp.recovered.points[j].ratio -
                                            ref.points[j].ratio));
    }
  }
  const bool match = bad == 0 && seg_mismatches == 0 && max_ratio_diff <= 1e-5;

  // --- overload: open-loop Poisson replay past capacity, ladder off vs on.
  //
  // Offered load is a multiple of the batched service's measured closed-loop
  // capacity ON THIS RUN (so the section is self-calibrating across boxes),
  // the queue is deliberately shallow, and every request carries a deadline.
  // Policy OFF is the pre-PR6 behaviour: the only defence is queue-full
  // shedding, and queued requests that outlive their budget are evicted at
  // dequeue. Policy ON adds the degradation ladder: DEGRADED routes to the
  // Linear+HMM fallback (answers flagged `degraded`), SHEDDING refuses
  // admission before the queue is even full. The claims the CI gate checks
  // (ci/check_bench.py): p99 of ANSWERED requests stays bounded by the
  // deadline in both runs (deadline enforcement), and the shed rate with the
  // ladder on is strictly below the ladder-off shed rate at the same offered
  // load (degrading beats dropping).
  const double capacity_rps = num_requests / serve_total_s;
  const double offered_qps = 3.0 * capacity_rps;
  const int overload_requests =
      settings.scale == BenchScale::kTiny ? 240 : 480;
  const double overload_deadline_ms = 250.0;

  struct OverloadRun {
    double total_s = 0.0;
    serve::ServeStats stats;
  };
  const auto run_overload = [&](bool policy_on) {
    serve::RecoveryServiceConfig scfg;
    scfg.num_sessions = auto_sessions;
    scfg.batcher.max_batch_size = 16;
    scfg.batcher.max_batch_delay_us = 1000;
    scfg.batcher.max_queue_depth = 32;  // shallow: overload bites quickly
    scfg.cache_radii = {mcfg.delta, mcfg.decoder.mask_radius,
                        mcfg.decoder.spatial_prior_radius};
    scfg.prefetch_radii = {mcfg.delta};
    scfg.max_dijkstra_rows = 1024;
    scfg.warm_model = false;
    scfg.policy.enabled = policy_on;
    serve::RecoveryService service(&model, ctx, scfg);
    auto overload_workload = serve::PoissonWorkload(
        ds->test(), overload_requests, offered_qps, /*seed=*/21);
    std::vector<std::future<serve::RecoveryResponse>> futures;
    futures.reserve(overload_workload.size());
    const auto s0 = std::chrono::steady_clock::now();
    for (auto& item : overload_workload) {
      // Open loop: arrivals follow the Poisson schedule regardless of how
      // far behind the service is — that is what overload means.
      std::this_thread::sleep_until(
          s0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                   std::chrono::duration<double>(item.arrival_s)));
      serve::RecoveryRequest req = item.request;
      req.deadline_ms = overload_deadline_ms;
      futures.push_back(service.Submit(std::move(req)));
    }
    for (auto& f : futures) f.get();
    OverloadRun run;
    run.total_s = Seconds(s0);
    run.stats = service.Stats();
    return run;
  };
  const OverloadRun ladder_off = run_overload(/*policy_on=*/false);
  const OverloadRun ladder_on = run_overload(/*policy_on=*/true);
  const auto rate = [&](int64_t n) {
    return static_cast<double>(n) / overload_requests;
  };

  const serve::ServeStats stats = batched.stats;
  TablePrinter table({"Configuration", "req/s", "p50 ms", "p99 ms", "total s"},
                     34, 11);
  table.PrintTitle("Serving throughput: " + std::to_string(num_requests) +
                   " requests, " + model.name());
  table.PrintHeader();
  table.PrintRow({"sequential cold (per-req xroad)",
                  TablePrinter::Num(num_requests / cold_total_s, 1),
                  TablePrinter::Num(serve::Percentile(cold_ms, 0.5), 2),
                  TablePrinter::Num(serve::Percentile(cold_ms, 0.99), 2),
                  TablePrinter::Num(cold_total_s, 2)});
  table.PrintRow({"sequential warm (RecoverAll)",
                  TablePrinter::Num(num_requests / warm_total_s, 1),
                  TablePrinter::Num(serve::Percentile(warm_ms, 0.5), 2),
                  TablePrinter::Num(serve::Percentile(warm_ms, 0.99), 2),
                  TablePrinter::Num(warm_total_s, 2)});
  table.PrintRow({"service, batched forward",
                  TablePrinter::Num(num_requests / serve_total_s, 1),
                  TablePrinter::Num(stats.p50_ms, 2),
                  TablePrinter::Num(stats.p99_ms, 2),
                  TablePrinter::Num(serve_total_s, 2)});
  for (const auto& [ns, run] : sweep) {
    table.PrintRow({"service, batched, sessions=" + std::to_string(ns),
                    TablePrinter::Num(num_requests / run.total_s, 1),
                    TablePrinter::Num(run.stats.p50_ms, 2),
                    TablePrinter::Num(run.stats.p99_ms, 2),
                    TablePrinter::Num(run.total_s, 2)});
  }
  table.PrintRow({"service, batched, obs off",
                  TablePrinter::Num(obs_off_rps, 1),
                  TablePrinter::Num(obs_off.stats.p50_ms, 2),
                  TablePrinter::Num(obs_off.stats.p99_ms, 2),
                  TablePrinter::Num(obs_off.total_s, 2)});
  table.PrintRow({"service, batched, obs ON (1.0)",
                  TablePrinter::Num(obs_on_rps, 1),
                  TablePrinter::Num(obs_on.stats.p50_ms, 2),
                  TablePrinter::Num(obs_on.stats.p99_ms, 2),
                  TablePrinter::Num(obs_on.total_s, 2)});
  std::printf("\nbatched service speedup vs cold sequential: %.2fx\n",
              cold_total_s / serve_total_s);
  std::printf("batched service speedup vs warm sequential: %.2fx\n",
              warm_total_s / serve_total_s);
  std::printf("mean batch %.2f; cell cache hits %lld misses %lld fallbacks "
              "%lld\n",
              stats.mean_batch_size, static_cast<long long>(stats.cache.hits),
              static_cast<long long>(stats.cache.misses),
              static_cast<long long>(stats.cache.fallbacks));
  std::printf("batched == sequential within 1e-5: %s (seg mismatches %d, max "
              "ratio diff %.2e, failed %d)\n",
              match ? "yes" : "NO", seg_mismatches, max_ratio_diff, bad);
  std::printf("observability overhead (tracing 1.0 + stage profiling): "
              "%.1f%% (%.1f -> %.1f req/s)\n",
              100.0 * obs_overhead_frac, obs_off_rps, obs_on_rps);
  std::printf("snapshot round trip: %d seg mismatches over %zu requests\n",
              snapshot_seg_mismatches, snapshot_answers.size());
  std::printf("hot swap under load: %s (dropped %lld, failed %d, seg "
              "mismatches %d, max ratio diff %.2e; answers v0/v1 = "
              "%lld/%lld, final version %llu)\n",
              swap_ok ? "ok" : "VIOLATED",
              static_cast<long long>(swap_dropped), swap_failed,
              swap_seg_mismatches, swap_max_ratio_diff,
              static_cast<long long>(swap_old_gen),
              static_cast<long long>(swap_new_gen),
              static_cast<unsigned long long>(swap_final_version));

  TablePrinter otable({"Overload (ladder)", "answered", "degraded", "shed",
                       "missed", "p99 ms"},
                      22, 10);
  otable.PrintTitle(
      "Overload: " + std::to_string(overload_requests) + " requests at " +
      TablePrinter::Num(offered_qps, 0) + " qps offered (3x capacity), " +
      TablePrinter::Num(overload_deadline_ms, 0) + " ms deadline, queue 32");
  otable.PrintHeader();
  const auto overload_row = [&](const char* name, const OverloadRun& run) {
    otable.PrintRow(
        {name,
         std::to_string(run.stats.ok + run.stats.degraded),
         std::to_string(run.stats.degraded), std::to_string(run.stats.shed),
         std::to_string(run.stats.deadline_missed),
         TablePrinter::Num(run.stats.p99_ms, 2)});
  };
  overload_row("policy off", ladder_off);
  overload_row("policy on", ladder_on);
  std::printf("shed rate: %.1f%% off -> %.1f%% on; ladder entered degraded "
              "%lld times, shedding %lld times; answered p99 within the %.0f "
              "ms deadline: %s\n",
              100.0 * rate(ladder_off.stats.shed),
              100.0 * rate(ladder_on.stats.shed),
              static_cast<long long>(ladder_on.stats.policy_entered_degraded),
              static_cast<long long>(ladder_on.stats.policy_entered_shedding),
              overload_deadline_ms,
              ladder_off.stats.p99_ms <= overload_deadline_ms &&
                      ladder_on.stats.p99_ms <= overload_deadline_ms
                  ? "yes"
                  : "NO");

  // Machine-readable record for CI: RNTR_BENCH_JSON names a file to write a
  // BENCH_*.json-style summary to. The CI bench job uploads it as an
  // artifact and gates on it (divergence, or a large throughput regression
  // against the committed baseline — see ci/check_bench.py).
  if (const char* json_path = std::getenv("RNTR_BENCH_JSON")) {
    std::ofstream json(json_path);
    if (!json.is_open()) {
      std::fprintf(stderr, "FAILED to open RNTR_BENCH_JSON path %s\n",
                   json_path);
      return false;  // the CI gate must not silently run without its record
    }
    json << "{\n"
         << "  \"benchmark\": \"bench_serve_throughput\",\n"
         << "  \"scale\": \"" << ToString(settings.scale) << "\",\n"
         << "  \"requests\": " << num_requests << ",\n"
         << "  \"sequential_cold_rps\": " << num_requests / cold_total_s
         << ",\n"
         << "  \"sequential_warm_rps\": " << num_requests / warm_total_s
         << ",\n"
         << "  \"service_batched_forward_rps\": "
         << num_requests / serve_total_s << ",\n"
         << "  \"service_p50_ms\": " << stats.p50_ms << ",\n"
         << "  \"service_p99_ms\": " << stats.p99_ms << ",\n"
         << "  \"mean_batch_size\": " << stats.mean_batch_size << ",\n"
         << "  \"seg_mismatches\": " << seg_mismatches << ",\n"
         << "  \"max_ratio_diff\": " << max_ratio_diff << ",\n"
         << "  \"failed_requests\": " << bad << ",\n"
         << "  \"served_matches_sequential\": " << (match ? "true" : "false")
         << ",\n"
         << "  \"obs_off_rps\": " << obs_off_rps << ",\n"
         << "  \"obs_on_rps\": " << obs_on_rps << ",\n"
         << "  \"obs_overhead_frac\": " << obs_overhead_frac << ",\n"
         // The committed baselines record this check under this key.
         << "  \"warmstart_seg_mismatches\": " << snapshot_seg_mismatches
         << ",\n"
         << "  \"swap_dropped_futures\": " << swap_dropped << ",\n"
         << "  \"swap_failed_requests\": " << swap_failed << ",\n"
         << "  \"swap_seg_mismatches\": " << swap_seg_mismatches << ",\n"
         << "  \"swap_max_ratio_diff\": " << swap_max_ratio_diff << ",\n"
         << "  \"swap_answers_old_gen\": " << swap_old_gen << ",\n"
         << "  \"swap_answers_new_gen\": " << swap_new_gen << ",\n"
         << "  \"swap_model_version\": " << swap_final_version << ",\n"
         << "  \"overload_requests\": " << overload_requests << ",\n"
         << "  \"overload_offered_qps\": " << offered_qps << ",\n"
         << "  \"overload_deadline_ms\": " << overload_deadline_ms << ",\n"
         << "  \"overload_policy_off_answered\": "
         << ladder_off.stats.ok + ladder_off.stats.degraded << ",\n"
         << "  \"overload_policy_off_shed_rate\": "
         << rate(ladder_off.stats.shed) << ",\n"
         << "  \"overload_policy_off_deadline_miss_rate\": "
         << rate(ladder_off.stats.deadline_missed) << ",\n"
         << "  \"overload_policy_off_p50_ms\": " << ladder_off.stats.p50_ms
         << ",\n"
         << "  \"overload_policy_off_p99_ms\": " << ladder_off.stats.p99_ms
         << ",\n"
         << "  \"overload_policy_on_answered\": "
         << ladder_on.stats.ok + ladder_on.stats.degraded << ",\n"
         << "  \"overload_policy_on_shed_rate\": "
         << rate(ladder_on.stats.shed) << ",\n"
         << "  \"overload_policy_on_degraded_rate\": "
         << rate(ladder_on.stats.degraded) << ",\n"
         << "  \"overload_policy_on_deadline_miss_rate\": "
         << rate(ladder_on.stats.deadline_missed) << ",\n"
         << "  \"overload_policy_on_p50_ms\": " << ladder_on.stats.p50_ms
         << ",\n"
         << "  \"overload_policy_on_p99_ms\": " << ladder_on.stats.p99_ms
         << ",\n"
         << "  \"overload_policy_on_entered_degraded\": "
         << ladder_on.stats.policy_entered_degraded << ",\n"
         << "  \"overload_policy_on_entered_shedding\": "
         << ladder_on.stats.policy_entered_shedding << "\n}\n";
    json.flush();
    if (!json.good()) {
      std::fprintf(stderr, "FAILED writing JSON record to %s\n", json_path);
      return false;
    }
    std::printf("wrote JSON record to %s\n", json_path);
  }
  // Exit code covers the snapshot and hot-swap invariants too:
  // snapshot-loaded models must answer identically, and a mid-stream swap
  // must drop nothing and never blend generations.
  return match && snapshot_seg_mismatches == 0 && swap_ok;
}

}  // namespace
}  // namespace rntraj

// Exit code doubles as the equivalence check (CI smoke-runs this target):
// nonzero when served answers diverge from sequential inference.
int main() { return rntraj::Run() ? 0 : 1; }
