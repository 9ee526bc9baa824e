// Fault-injection chaos suite for the serving subsystem (PR 6).
//
// Proves the robustness contract under each injected fault — forwards that
// throw, sessions that stall, deadlines that expire — plus their
// combination:
//   * the service never crashes or hangs (every test is future-resolution
//     bounded; ctest adds a per-test timeout as the backstop);
//   * every submitted future resolves exactly once with a classified
//     response;
//   * a fault poisons only its own request's lane — non-faulted requests in
//     the same micro-batch still return answers equivalent to sequential
//     inference;
//   * the degradation ladder routes overload to the Linear+HMM fallback
//     (responses flagged `degraded`) and returns to OK after faults clear;
//   * Submit racing Shutdown always receives a response, never a dangling
//     future (the TSan job runs this file too).

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/baselines/two_stage.h"
#include "src/common/random.h"
#include "src/core/rntrajrec.h"
#include "src/fleet/process.h"
#include "src/fleet/router.h"
#include "src/serve/fault_injector.h"
#include "src/serve/recovery_service.h"
#include "src/serve/service_policy.h"
#include "src/serve/workload.h"
#include "src/sim/presets.h"

namespace rntraj {
namespace {

using serve::FaultInjector;
using serve::FaultInjectorConfig;
using serve::PolicyState;
using serve::RecoveryResponse;
using serve::ResponseKind;
using serve::ServicePolicy;

constexpr auto kFutureTimeout = std::chrono::seconds(60);

/// get() with a hang guard: a future that never resolves is the exact bug
/// this suite exists to catch, so fail the test instead of wedging the job.
RecoveryResponse GetOrDie(std::future<RecoveryResponse>& f) {
  EXPECT_EQ(f.wait_for(kFutureTimeout), std::future_status::ready)
      << "future did not resolve: a submitted request was dropped or wedged";
  return f.get();
}

// ----- ServicePolicy (the ladder in isolation) -------------------------------

// The production watermarks these tests walk through.
static_assert(ServicePolicy::kDegradeEnterDepth == 0.50);
static_assert(ServicePolicy::kDegradeExitDepth == 0.20);
static_assert(ServicePolicy::kShedEnterDepth == 0.85);
static_assert(ServicePolicy::kShedExitDepth == 0.50);
static_assert(ServicePolicy::kDegradeEnterMissRate == 0.20);
static_assert(ServicePolicy::kDegradeExitMissRate == 0.05);
static_assert(ServicePolicy::kWindow == 64);
static_assert(ServicePolicy::kMinWindowFill == 8);

TEST(ServicePolicyTest, DepthEscalatesRungByRungWithHysteresis) {
  ServicePolicy policy(/*max_queue_depth=*/100);
  EXPECT_EQ(policy.state(), PolicyState::kOk);

  policy.ObserveDepth(49);  // under the 0.50 enter watermark
  EXPECT_EQ(policy.state(), PolicyState::kOk);
  policy.ObserveDepth(55);
  EXPECT_EQ(policy.state(), PolicyState::kDegraded);
  // Hysteresis: dropping into the band (exit is 0.20) must NOT flap back.
  policy.ObserveDepth(35);
  EXPECT_EQ(policy.state(), PolicyState::kDegraded);
  policy.ObserveDepth(88);  // over the 0.85 shed watermark
  EXPECT_EQ(policy.state(), PolicyState::kShedding);
  // Shed exit is 0.50; one rung at a time on the way down.
  policy.ObserveDepth(60);
  EXPECT_EQ(policy.state(), PolicyState::kShedding);
  policy.ObserveDepth(40);
  EXPECT_EQ(policy.state(), PolicyState::kDegraded);
  policy.ObserveDepth(10);
  EXPECT_EQ(policy.state(), PolicyState::kOk);

  const auto st = policy.Snapshot();
  EXPECT_EQ(st.entered_degraded, 1);
  EXPECT_EQ(st.entered_shedding, 1);
}

TEST(ServicePolicyTest, MissRateTripsAndRecentGoodTrafficRecovers) {
  ServicePolicy policy(/*max_queue_depth=*/100);
  // Seven early misses are below the minimum fill of 8: no escalation on a
  // cold window, however bad its rate.
  for (int i = 0; i < 7; ++i) {
    policy.RecordOutcome(true);
    EXPECT_EQ(policy.state(), PolicyState::kOk) << "tripped on " << i + 1;
  }
  policy.RecordOutcome(true);  // 8/8 missed >= 0.20 with the window filled
  EXPECT_EQ(policy.state(), PolicyState::kDegraded);
  // Recovery needs the misses to age out of the 64-outcome window until the
  // rate is <= 0.05, i.e. at most 3 of 64. 56 in-deadline outcomes fill the
  // window (8/64 missed); each later one evicts a miss, so the 61st leaves
  // 3/64 = 0.047 and the ladder steps down. Until then the rate sits in the
  // hysteresis band (under the 0.20 enter mark, over the 0.05 exit mark).
  for (int i = 0; i < 60; ++i) {
    policy.RecordOutcome(false);
    EXPECT_EQ(policy.state(), PolicyState::kDegraded)
        << "aged out too early, after " << i + 1;
  }
  policy.RecordOutcome(false);
  EXPECT_EQ(policy.state(), PolicyState::kOk);
  EXPECT_EQ(policy.Snapshot().entered_degraded, 1);
}

TEST(ServicePolicyTest, DirectCliffArrivalJumpsToShedding) {
  ServicePolicy policy(/*max_queue_depth=*/10);
  policy.ObserveDepth(10);
  EXPECT_EQ(policy.state(), PolicyState::kShedding);
  const auto st = policy.Snapshot();
  EXPECT_EQ(st.entered_degraded, 1);  // both rungs counted on the jump
  EXPECT_EQ(st.entered_shedding, 1);
}

// ----- FaultInjector ---------------------------------------------------------

TEST(FaultInjectorTest, DecisionsAreDeterministicPerId) {
  FaultInjectorConfig cfg;
  cfg.seed = 11;
  cfg.expire_probability = 0.5;
  FaultInjector a(cfg);
  FaultInjector b(cfg);
  int fired = 0;
  for (uint64_t id = 0; id < 64; ++id) {
    EXPECT_EQ(a.ShouldExpire(id), b.ShouldExpire(id)) << "id " << id;
    if (a.ShouldExpire(id)) ++fired;
  }
  // ~50% fire rate: both classes must be populated (the chaos tests rely on
  // partially-faulted batches existing).
  EXPECT_GT(fired, 8);
  EXPECT_LT(fired, 56);
}

TEST(FaultInjectorTest, ProbabilityEndpointsAreExact) {
  FaultInjectorConfig all;
  all.throw_probability = 1.0;
  FaultInjector always(all);
  for (uint64_t id = 0; id < 16; ++id) {
    EXPECT_THROW(always.OnForward(id), serve::FaultInjected);
  }
  FaultInjectorConfig none;  // all probabilities 0
  FaultInjector never(none);
  for (uint64_t id = 0; id < 16; ++id) {
    EXPECT_NO_THROW(never.OnForward(id));
    EXPECT_FALSE(never.ShouldExpire(id));
  }
}

TEST(FaultInjectorTest, FaultBudgetClearsTheFault) {
  FaultInjectorConfig cfg;
  cfg.throw_probability = 1.0;
  cfg.max_faults = 3;
  FaultInjector inj(cfg);
  int thrown = 0;
  for (uint64_t id = 0; id < 32; ++id) {
    try {
      inj.OnForward(id);
    } catch (const serve::FaultInjected&) {
      ++thrown;
    }
  }
  EXPECT_EQ(thrown, 3);
  EXPECT_EQ(inj.faults_injected(), 3);
  // The fault has cleared: the injector stays quiet forever after.
  EXPECT_NO_THROW(inj.OnForward(999));
}

// ----- Chaos fixture ---------------------------------------------------------

class ServeChaosFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatasetConfig cfg = ChengduConfig(BenchScale::kTiny);
    cfg.num_train = 4;
    cfg.num_val = 2;
    cfg.num_test = 8;
    cfg.sim.len_rho = 24;
    dataset_ = BuildDataset(cfg).release();
    ctx_ = new ModelContext(ModelContext::FromDataset(*dataset_));
    SeedGlobalRng(61);
    model_ = new RnTrajRec(SmallConfig(), *ctx_);
    model_->SetTrainingMode(false);
    model_->BeginInference();
    // Sequential per-sample reference answers, computed before any service
    // (and any cache) touches the model.
    for (const auto& s : dataset_->test()) {
      serve::RecoveryRequest req = serve::RequestFromSample(s);
      TrajectorySample eph = MakeEphemeralSample(
          std::move(req.input), std::move(req.input_indices),
          req.target_times);
      reference_->push_back(model_->Recover(eph));
    }
  }
  static void TearDownTestSuite() {
    delete model_;
    delete ctx_;
    delete dataset_;
    delete reference_;
    model_ = nullptr;
    ctx_ = nullptr;
    dataset_ = nullptr;
    reference_ = nullptr;
  }

  static RnTrajRecConfig SmallConfig() {
    RnTrajRecConfig cfg;
    cfg.dim = 16;
    cfg.delta = 250.0;
    cfg.max_subgraph_nodes = 16;
    cfg.gridgnn.gnn_layers = 1;
    cfg.gridgnn.heads = 2;
    cfg.gpsformer.blocks = 1;
    cfg.gpsformer.heads = 2;
    cfg.gpsformer.grl.heads = 2;
    cfg.Sync();
    return cfg;
  }

  static serve::RecoveryServiceConfig BaseServiceConfig() {
    serve::RecoveryServiceConfig scfg;
    scfg.num_sessions = 2;
    scfg.batcher.max_batch_size = 8;
    scfg.batcher.max_batch_delay_us = 500;
    scfg.warm_model = false;  // warmed in SetUpTestSuite
    return scfg;
  }

  /// Expects `resp` to match the sequential reference for test sample `i`
  /// (same segments; ratios within float rounding of the batched path).
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
};

Dataset* ServeChaosFixture::dataset_ = nullptr;
ModelContext* ServeChaosFixture::ctx_ = nullptr;
RnTrajRec* ServeChaosFixture::model_ = nullptr;
std::vector<MatchedTrajectory>* ServeChaosFixture::reference_ =
    new std::vector<MatchedTrajectory>();

// ----- Fault: forwards throw -------------------------------------------------

TEST_F(ServeChaosFixture, ThrowPoisonsOnlyItsLaneOthersMatchReference) {
  serve::RecoveryServiceConfig scfg = BaseServiceConfig();
  scfg.num_sessions = 1;  // everything rides shared micro-batches
  scfg.fault.seed = 11;
  scfg.fault.throw_probability = 0.5;
  serve::RecoveryService service(model_, *ctx_, scfg);

  std::vector<std::future<RecoveryResponse>> futures;
  for (const auto& s : dataset_->test()) {
    futures.push_back(service.Submit(serve::RequestFromSample(s)));
  }
  int faulted = 0;
  int answered = 0;
  for (size_t i = 0; i < futures.size(); ++i) {
    RecoveryResponse resp = GetOrDie(futures[i]);
    if (resp.ok) {
      ++answered;
      EXPECT_EQ(resp.kind, ResponseKind::kOk);
      // The same micro-batch carried throwing lanes; survivors must still
      // be equivalent to sequential inference.
      ExpectMatchesReference(resp, i);
    } else {
      ++faulted;
      EXPECT_EQ(resp.kind, ResponseKind::kInternalError);
      EXPECT_NE(resp.error.find("injected"), std::string::npos) << resp.error;
    }
  }
  // seed 11 at p=0.5 over ids 0..7 produces both classes (deterministic).
  EXPECT_GT(faulted, 0);
  EXPECT_GT(answered, 0);
  ASSERT_NE(service.fault_injector(), nullptr);
  EXPECT_GT(service.fault_injector()->faults_injected(), 0);

  const auto stats = service.Stats();
  EXPECT_EQ(stats.ok, answered);
  EXPECT_EQ(stats.internal_error, faulted);
  EXPECT_EQ(stats.completed, static_cast<int64_t>(futures.size()));
  EXPECT_GT(stats.faults, 0);
}

TEST_F(ServeChaosFixture, EveryForwardThrowingNeverKillsAWorker) {
  serve::RecoveryServiceConfig scfg = BaseServiceConfig();
  scfg.fault.throw_probability = 1.0;
  serve::RecoveryService service(model_, *ctx_, scfg);

  // Two full waves: workers must survive the first wave of throws to be
  // alive for the second.
  for (int wave = 0; wave < 2; ++wave) {
    std::vector<std::future<RecoveryResponse>> futures;
    for (const auto& s : dataset_->test()) {
      futures.push_back(service.Submit(serve::RequestFromSample(s)));
    }
    for (auto& f : futures) {
      RecoveryResponse resp = GetOrDie(f);
      EXPECT_FALSE(resp.ok);
      EXPECT_EQ(resp.kind, ResponseKind::kInternalError);
    }
  }
  const auto stats = service.Stats();
  EXPECT_EQ(stats.internal_error,
            static_cast<int64_t>(2 * dataset_->test().size()));
  EXPECT_EQ(stats.ok, 0);
}

// ----- Fault: deadlines expire -----------------------------------------------

TEST_F(ServeChaosFixture, ExpiredRequestsAreEvictedAtDequeueNotForwarded) {
  serve::RecoveryServiceConfig scfg = BaseServiceConfig();
  // A generous coalescing delay: requests sit in the forming batch long
  // past their microscopic budget, so the batcher's dequeue eviction (not
  // the session's dispatch check) answers them.
  scfg.num_sessions = 1;
  scfg.batcher.max_batch_delay_us = 20000;
  serve::RecoveryService service(model_, *ctx_, scfg);

  std::vector<std::future<RecoveryResponse>> futures;
  for (const auto& s : dataset_->test()) {
    serve::RecoveryRequest req = serve::RequestFromSample(s);
    req.deadline_ms = 0.001;  // expired ~immediately
    futures.push_back(service.Submit(std::move(req)));
  }
  for (auto& f : futures) {
    RecoveryResponse resp = GetOrDie(f);
    EXPECT_FALSE(resp.ok);
    EXPECT_EQ(resp.kind, ResponseKind::kDeadlineMissed);
  }
  const auto stats = service.Stats();
  EXPECT_EQ(stats.deadline_missed,
            static_cast<int64_t>(dataset_->test().size()));
  EXPECT_EQ(stats.ok, 0);
}

TEST_F(ServeChaosFixture, InjectedDeadlineExpiryIsCountedAndHarmless) {
  serve::RecoveryServiceConfig scfg = BaseServiceConfig();
  scfg.fault.seed = 7;
  scfg.fault.expire_probability = 0.5;
  serve::RecoveryService service(model_, *ctx_, scfg);

  std::vector<std::future<RecoveryResponse>> futures;
  for (const auto& s : dataset_->test()) {
    futures.push_back(service.Submit(serve::RequestFromSample(s)));
  }
  int missed = 0;
  for (size_t i = 0; i < futures.size(); ++i) {
    RecoveryResponse resp = GetOrDie(futures[i]);
    if (resp.kind == ResponseKind::kDeadlineMissed) {
      ++missed;
      EXPECT_FALSE(resp.ok);
    } else {
      ASSERT_TRUE(resp.ok) << resp.error;
      ExpectMatchesReference(resp, i);
    }
  }
  EXPECT_GT(missed, 0);
  EXPECT_EQ(service.Stats().deadline_missed, missed);
}

// ----- Fault: sessions stall -------------------------------------------------

TEST_F(ServeChaosFixture, StalledSessionMissesDeadlinesButNeverHangs) {
  serve::RecoveryServiceConfig scfg = BaseServiceConfig();
  scfg.num_sessions = 1;
  scfg.fault.stall_probability = 1.0;
  scfg.fault.stall_ms = 30;
  serve::RecoveryService service(model_, *ctx_, scfg);

  std::vector<std::future<RecoveryResponse>> futures;
  for (const auto& s : dataset_->test()) {
    serve::RecoveryRequest req = serve::RequestFromSample(s);
    req.deadline_ms = 10.0;  // tighter than the stall
    futures.push_back(service.Submit(std::move(req)));
  }
  for (auto& f : futures) {
    RecoveryResponse resp = GetOrDie(f);
    // Either evicted in queue behind the stalled batch or caught by the
    // session's dispatch/post-forward budget checks — never a hang, never
    // delivered late as a success.
    EXPECT_FALSE(resp.ok);
    EXPECT_EQ(resp.kind, ResponseKind::kDeadlineMissed);
  }
}

// ----- Degradation ladder end to end -----------------------------------------

TEST_F(ServeChaosFixture, LadderOffNeverDegradesOrShedsUnderMisses) {
  // The ladder is off by default. Stalls that blow every budget, over a
  // burst that fills the miss-rate window and the whole admission queue,
  // would walk a ladder-on service to DEGRADED and SHEDDING. With it off,
  // a request either misses its deadline (or finds the queue full) or gets
  // the full model's answer.
  serve::RecoveryServiceConfig scfg = BaseServiceConfig();
  ASSERT_FALSE(scfg.policy.enabled);
  scfg.num_sessions = 1;
  scfg.batcher.max_queue_depth = ServicePolicy::kWindow;
  scfg.fault.stall_probability = 1.0;
  scfg.fault.stall_ms = 20;
  serve::RecoveryService service(model_, *ctx_, scfg);

  // Wave 1: every budget is tighter than one stall, so every request waits
  // out at least one stall and misses.
  std::vector<std::future<RecoveryResponse>> futures;
  for (int i = 0; i < ServicePolicy::kWindow; ++i) {
    serve::RecoveryRequest req =
        serve::RequestFromSample(dataset_->test()[i % dataset_->test().size()]);
    req.deadline_ms = 10.0;
    futures.push_back(service.Submit(std::move(req)));
  }
  for (auto& f : futures) {
    const RecoveryResponse resp = GetOrDie(f);
    EXPECT_FALSE(resp.ok);
    EXPECT_FALSE(resp.degraded);
    if (resp.kind == ResponseKind::kShed) {
      EXPECT_EQ(resp.error.find("shedding load"), std::string::npos)
          << resp.error;
    } else {
      EXPECT_EQ(resp.kind, ResponseKind::kDeadlineMissed) << resp.error;
    }
  }

  // Wave 2: generous budgets. A tripped ladder would answer these from the
  // fallback; with it off they are the full model's answers.
  futures.clear();
  for (const auto& s : dataset_->test()) {
    serve::RecoveryRequest req = serve::RequestFromSample(s);
    req.deadline_ms = 5000.0;
    futures.push_back(service.Submit(std::move(req)));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    const RecoveryResponse resp = GetOrDie(futures[i]);
    ASSERT_TRUE(resp.ok) << resp.error;
    EXPECT_FALSE(resp.degraded);
    ExpectMatchesReference(resp, i);
  }

  const auto stats = service.Stats();
  EXPECT_EQ(stats.deadline_missed + stats.shed, ServicePolicy::kWindow);
  EXPECT_GE(stats.deadline_missed, ServicePolicy::kMinWindowFill);
  EXPECT_EQ(stats.ok, static_cast<int64_t>(dataset_->test().size()));
  EXPECT_EQ(stats.degraded, 0);
  EXPECT_EQ(stats.policy_state, PolicyState::kOk);
  EXPECT_EQ(stats.policy_entered_degraded, 0);
  EXPECT_EQ(stats.policy_entered_shedding, 0);
}

TEST_F(ServeChaosFixture, LadderDegradesUnderMissesThenRecoversToOk) {
  serve::RecoveryServiceConfig scfg = BaseServiceConfig();
  scfg.num_sessions = 1;
  scfg.policy.enabled = true;
  // Stalls wedge the (only) session so deadlines miss; the budget models
  // the fault clearing after as many stalled batches as the miss-rate
  // window needs outcomes before it may trip.
  constexpr int kStalls = ServicePolicy::kMinWindowFill;
  scfg.fault.stall_probability = 1.0;
  scfg.fault.stall_ms = 40;
  scfg.fault.max_faults = kStalls;
  serve::RecoveryService service(model_, *ctx_, scfg);

  const auto submit_one = [&](size_t sample, double deadline_ms) {
    serve::RecoveryRequest req =
        serve::RequestFromSample(dataset_->test()[sample]);
    req.deadline_ms = deadline_ms;
    auto f = service.Submit(std::move(req));
    return GetOrDie(f);
  };

  // Phase 1 — the fault is live: serial requests with budgets tighter than
  // the stall miss their deadlines and trip the ladder.
  int missed = 0;
  for (int i = 0; i < kStalls; ++i) {
    const RecoveryResponse resp = submit_one(i % dataset_->test().size(), 15.0);
    if (resp.kind == ResponseKind::kDeadlineMissed) ++missed;
  }
  EXPECT_GE(missed, 2);  // >= 0.20 of the 8 outcomes the window needs
  EXPECT_EQ(service.Stats().policy_state, PolicyState::kDegraded);
  EXPECT_GE(service.Stats().policy_entered_degraded, 1);

  // Phase 2 — the fault has cleared (budget spent) but the ladder is still
  // DEGRADED: requests are answered by the Linear+HMM fallback, flagged,
  // in budget, and matching the fallback reference exactly (it is
  // deterministic). The misses must age out of the 64-outcome window first.
  LinearHmmModel fallback_ref(*ctx_, scfg.fallback_hmm);
  bool saw_degraded = false;
  int recovery_rounds = 0;
  while (service.Stats().policy_state != PolicyState::kOk) {
    ASSERT_LT(recovery_rounds, 2 * ServicePolicy::kWindow)
        << "ladder never returned to OK";
    const size_t sample = recovery_rounds++ % dataset_->test().size();
    const RecoveryResponse resp = submit_one(sample, 5000.0);
    ASSERT_TRUE(resp.ok) << resp.error;
    if (resp.degraded) {
      saw_degraded = true;
      serve::RecoveryRequest req =
          serve::RequestFromSample(dataset_->test()[sample]);
      TrajectorySample eph = MakeEphemeralSample(
          std::move(req.input), std::move(req.input_indices),
          req.target_times);
      const MatchedTrajectory expect = fallback_ref.Recover(eph);
      ASSERT_EQ(resp.recovered.size(), expect.size());
      for (int j = 0; j < expect.size(); ++j) {
        EXPECT_EQ(resp.recovered.points[j].seg_id, expect.points[j].seg_id);
        EXPECT_DOUBLE_EQ(resp.recovered.points[j].ratio,
                         expect.points[j].ratio);
      }
    }
  }
  EXPECT_TRUE(saw_degraded);

  // Phase 3 — recovered: full-model answers again, not flagged.
  const size_t sample = 0;
  const RecoveryResponse resp = submit_one(sample, 5000.0);
  ASSERT_TRUE(resp.ok) << resp.error;
  EXPECT_FALSE(resp.degraded);
  ExpectMatchesReference(resp, sample);

  const auto stats = service.Stats();
  EXPECT_GT(stats.degraded, 0);
  EXPECT_GT(stats.ok, 0);
  EXPECT_EQ(stats.policy_state, PolicyState::kOk);
}

// ----- Combined chaos --------------------------------------------------------

TEST_F(ServeChaosFixture, CombinedChaosEveryFutureResolvesAndCountsAddUp) {
  serve::RecoveryServiceConfig scfg = BaseServiceConfig();
  scfg.policy.enabled = true;
  scfg.fault.seed = 23;
  scfg.fault.throw_probability = 0.25;
  scfg.fault.stall_probability = 0.25;
  scfg.fault.stall_ms = 10;
  scfg.fault.expire_probability = 0.15;
  serve::RecoveryService service(model_, *ctx_, scfg);

  constexpr int kWaves = 6;
  std::vector<std::future<RecoveryResponse>> futures;
  for (int wave = 0; wave < kWaves; ++wave) {
    for (const auto& s : dataset_->test()) {
      serve::RecoveryRequest req = serve::RequestFromSample(s);
      req.deadline_ms = 200.0;
      futures.push_back(service.Submit(std::move(req)));
    }
    // One malformed request per wave: validation must stay lane-isolated
    // under chaos too.
    serve::RecoveryRequest bad;
    futures.push_back(service.Submit(std::move(bad)));
  }
  int64_t resolved = 0;
  for (auto& f : futures) {
    const RecoveryResponse resp = GetOrDie(f);
    ++resolved;
    if (resp.ok) {
      EXPECT_EQ(resp.kind, ResponseKind::kOk);
    }
  }
  EXPECT_EQ(resolved, static_cast<int64_t>(futures.size()));

  const auto stats = service.Stats();
  EXPECT_EQ(stats.submitted, static_cast<int64_t>(futures.size()));
  // Every submission is accounted for exactly once across the breakdown.
  EXPECT_EQ(stats.completed + stats.shed, stats.submitted);
  EXPECT_EQ(stats.ok + stats.degraded + stats.validation_error +
                stats.deadline_missed + stats.internal_error,
            stats.completed);
  EXPECT_EQ(stats.validation_error, kWaves);

  // The exported metrics snapshot carries the same conservation law: the
  // outcome counters partition serve.submitted exactly (the PR 7 acceptance
  // invariant, checked on the machine-readable export rather than the
  // ServeStats view).
  const obs::MetricsSnapshot snap = service.Metrics();
  const auto counter = [&](const char* name) {
    auto it = snap.counters.find(name);
    return it == snap.counters.end() ? int64_t{0} : it->second;
  };
  EXPECT_EQ(counter("serve.submitted"), stats.submitted);
  EXPECT_EQ(counter("serve.ok") + counter("serve.degraded") +
                counter("serve.validation_error") +
                counter("serve.deadline_missed") +
                counter("serve.internal_error") + counter("serve.shed"),
            counter("serve.submitted"));
  // And the JSON export carries those exact counts verbatim.
  const std::string json = snap.ToJson();
  EXPECT_NE(json.find("\"serve.submitted\":" +
                      std::to_string(counter("serve.submitted"))),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"serve.ok\":" + std::to_string(counter("serve.ok"))),
            std::string::npos)
      << json;
}

// ----- Tracing under chaos ---------------------------------------------------

TEST_F(ServeChaosFixture, EvictedAtDequeueRequestCarriesAWellFormedTrace) {
  // Trace every request, then force the nastiest lifecycle for a span tree:
  // expiry in queue, answered by the batcher's dequeue eviction — the
  // request never reaches a session, so the trace must be finished by the
  // eviction path (queue span closed, eviction event stamped, root closed).
  serve::RecoveryServiceConfig scfg = BaseServiceConfig();
  scfg.num_sessions = 1;
  scfg.batcher.max_batch_delay_us = 20000;
  scfg.trace.sample_rate = 1.0;
  serve::RecoveryService service(model_, *ctx_, scfg);

  std::vector<std::future<RecoveryResponse>> futures;
  for (const auto& s : dataset_->test()) {
    serve::RecoveryRequest req = serve::RequestFromSample(s);
    req.deadline_ms = 0.001;  // expired ~immediately
    futures.push_back(service.Submit(std::move(req)));
  }
  int traced = 0;
  for (auto& f : futures) {
    RecoveryResponse resp = GetOrDie(f);
    EXPECT_EQ(resp.kind, ResponseKind::kDeadlineMissed);
    ASSERT_NE(resp.trace, nullptr);
    ++traced;
    std::string why;
    EXPECT_TRUE(resp.trace->WellFormed(&why)) << why;
    EXPECT_STREQ(resp.trace->outcome(), "deadline_missed");
    // The span tree records the lifecycle: a queue wait under the root and
    // the eviction event, no dispatch/forward (it never reached a session).
    EXPECT_GE(resp.trace->SpanIndex("queue"), 0);
    EXPECT_EQ(resp.trace->SpanIndex("dispatch"), -1);
    EXPECT_EQ(resp.trace->SpanIndex("forward"), -1);
    bool evicted_event = false;
    for (const auto& ev : resp.trace->events()) {
      if (std::string(ev.name) == "evicted-at-dequeue") evicted_event = true;
    }
    EXPECT_TRUE(evicted_event);
    EXPECT_FALSE(resp.trace->ToJson().empty());
  }
  EXPECT_EQ(traced, static_cast<int>(futures.size()));
  ASSERT_NE(service.tracer(), nullptr);
  EXPECT_EQ(service.tracer()->sampled(), traced);
}

TEST_F(ServeChaosFixture, TracedOkRequestRecordsTheFullPipeline) {
  serve::RecoveryServiceConfig scfg = BaseServiceConfig();
  scfg.trace.sample_rate = 1.0;
  serve::RecoveryService service(model_, *ctx_, scfg);

  std::vector<std::future<RecoveryResponse>> futures;
  for (const auto& s : dataset_->test()) {
    futures.push_back(service.Submit(serve::RequestFromSample(s)));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    RecoveryResponse resp = GetOrDie(futures[i]);
    ASSERT_TRUE(resp.ok) << resp.error;
    ExpectMatchesReference(resp, i);
    ASSERT_NE(resp.trace, nullptr);
    std::string why;
    EXPECT_TRUE(resp.trace->WellFormed(&why)) << why;
    EXPECT_STREQ(resp.trace->outcome(), "ok");
    // The full lifecycle: queue wait, dispatch, the forward (with its
    // encode/decode split synthesised from stage capture), respond.
    for (const char* span :
         {"queue", "dispatch", "forward", "forward.encode", "forward.decode",
          "respond"}) {
      EXPECT_GE(resp.trace->SpanIndex(span), 0) << span;
    }
    EXPECT_GT(resp.trace->batch_size(), 0);
    EXPECT_GE(resp.trace->session_id(), 0);
  }
}

// ----- Shutdown hardening ----------------------------------------------------

TEST_F(ServeChaosFixture, SubmitRacingShutdownAlwaysGetsAResponse) {
  // Hammer Submit from several producers while Shutdown lands mid-stream.
  // Every future must resolve — answered or shed — with no hang, no broken
  // promise, no leak (the ASan job watches) and no race (the TSan job).
  for (int round = 0; round < 3; ++round) {
    serve::RecoveryServiceConfig scfg = BaseServiceConfig();
    serve::RecoveryService service(model_, *ctx_, scfg);

    constexpr int kProducers = 4;
    constexpr int kPerProducer = 40;
    std::vector<std::vector<std::future<RecoveryResponse>>> futures(
        kProducers);
    std::vector<std::thread> producers;
    std::atomic<int> started{0};
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        started.fetch_add(1);
        for (int i = 0; i < kPerProducer; ++i) {
          futures[p].push_back(service.Submit(
              serve::RequestFromSample(dataset_->test()[i % 4])));
        }
      });
    }
    while (started.load() < kProducers) std::this_thread::yield();
    // Land Shutdown in the middle of the submission storm.
    std::this_thread::sleep_for(std::chrono::milliseconds(2 * round));
    service.Shutdown();
    for (auto& t : producers) t.join();

    int64_t answered = 0;
    int64_t refused = 0;
    for (auto& lane : futures) {
      for (auto& f : lane) {
        const RecoveryResponse resp = GetOrDie(f);
        if (resp.ok) {
          ++answered;
        } else {
          ++refused;
          EXPECT_EQ(resp.kind, ResponseKind::kShed);
        }
      }
    }
    EXPECT_EQ(answered + refused,
              static_cast<int64_t>(kProducers) * kPerProducer);
    const auto stats = service.Stats();
    EXPECT_EQ(stats.completed + stats.shed, stats.submitted);
  }
}

TEST_F(ServeChaosFixture, ShutdownResolvesEverythingQueuedBehindAStall) {
  // Requests queued behind a stalled session when Shutdown lands must all
  // still resolve: the drain contract covers wedged workers.
  serve::RecoveryServiceConfig scfg = BaseServiceConfig();
  scfg.num_sessions = 1;
  scfg.batcher.max_batch_size = 2;  // many batches -> many stalls
  scfg.fault.stall_probability = 1.0;
  scfg.fault.stall_ms = 20;
  serve::RecoveryService service(model_, *ctx_, scfg);

  std::vector<std::future<RecoveryResponse>> futures;
  for (int i = 0; i < 12; ++i) {
    futures.push_back(service.Submit(
        serve::RequestFromSample(dataset_->test()[i % 4])));
  }
  service.Shutdown();  // returns only once the queue is drained
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready)
        << "Shutdown returned with an unresolved future";
    const RecoveryResponse resp = f.get();
    EXPECT_TRUE(resp.ok || resp.kind == ResponseKind::kShed) << resp.error;
  }
}

// ----- Hot swap (PR 9) -------------------------------------------------------

TEST_F(ServeChaosFixture, HotSwapUnderChaosDropsNothingAndNeverBlendsModels) {
  serve::RecoveryServiceConfig scfg = BaseServiceConfig();
  scfg.fault.seed = 17;
  scfg.fault.throw_probability = 0.15;
  serve::RecoveryService service(model_, *ctx_, scfg);

  // A replacement generation with different weights, plus its own
  // sequential reference answers — computed before the service (and its
  // caches) touches the model, exactly like the fixture's v0 reference.
  SeedGlobalRng(71);
  auto next = std::make_shared<RnTrajRec>(SmallConfig(), *ctx_);
  next->SetTrainingMode(false);
  next->BeginInference();
  std::vector<MatchedTrajectory> next_reference;
  for (const auto& s : dataset_->test()) {
    serve::RecoveryRequest req = serve::RequestFromSample(s);
    TrajectorySample eph = MakeEphemeralSample(
        std::move(req.input), std::move(req.input_indices), req.target_times);
    next_reference.push_back(next->Recover(eph));
  }

  // Open-loop load: waves in flight when the swap lands, waves after it.
  constexpr int kWaves = 3;
  std::vector<std::future<RecoveryResponse>> before, after;
  for (int w = 0; w < kWaves; ++w) {
    for (const auto& s : dataset_->test()) {
      before.push_back(service.Submit(serve::RequestFromSample(s)));
    }
  }
  std::string err;
  ASSERT_TRUE(service.SwapModel(next, &err)) << err;
  EXPECT_EQ(service.model_version(), 1u);
  for (int w = 0; w < kWaves; ++w) {
    for (const auto& s : dataset_->test()) {
      after.push_back(service.Submit(serve::RequestFromSample(s)));
    }
  }

  const auto check = [&](std::vector<std::future<RecoveryResponse>>& futures,
                         bool submitted_after_swap) {
    for (size_t i = 0; i < futures.size(); ++i) {
      // Zero dropped futures: every one resolves, across the flip.
      RecoveryResponse resp = GetOrDie(futures[i]);
      ASSERT_LE(resp.model_version, 1u);
      if (submitted_after_swap) {
        // Dispatched strictly after the flip: must be the new generation.
        EXPECT_EQ(resp.model_version, 1u);
      }
      if (!resp.ok) {  // injected throw — isolated to its lane as ever
        EXPECT_EQ(resp.kind, ResponseKind::kInternalError);
        continue;
      }
      // Whole-model answers only: the answer must match the stamped
      // generation's sequential reference exactly — never a blend of old
      // and new weights.
      const size_t sample = i % dataset_->test().size();
      const MatchedTrajectory& ref = resp.model_version == 0
                                         ? (*reference_)[sample]
                                         : next_reference[sample];
      ASSERT_EQ(resp.recovered.size(), ref.size()) << "request " << i;
      for (int j = 0; j < ref.size(); ++j) {
        EXPECT_EQ(resp.recovered.points[j].seg_id, ref.points[j].seg_id)
            << "request " << i << " step " << j;
        EXPECT_NEAR(resp.recovered.points[j].ratio, ref.points[j].ratio, 1e-5)
            << "request " << i << " step " << j;
      }
    }
  };
  check(before, /*submitted_after_swap=*/false);
  check(after, /*submitted_after_swap=*/true);

  const auto stats = service.Stats();
  EXPECT_EQ(stats.completed + stats.shed, stats.submitted);
  const obs::MetricsSnapshot snap = service.Metrics();
  auto c = snap.counters.find("serve.swaps");
  ASSERT_NE(c, snap.counters.end());
  EXPECT_EQ(c->second, 1);
  auto g = snap.gauges.find("serve.model_version");
  ASSERT_NE(g, snap.gauges.end());
  EXPECT_EQ(g->second, 1.0);
}

TEST_F(ServeChaosFixture, SwapModelRefusesBadInputAndRecordsItsSpan) {
  serve::RecoveryServiceConfig scfg = BaseServiceConfig();
  scfg.trace.sample_rate = 1.0;
  serve::RecoveryService service(model_, *ctx_, scfg);
  std::string err;
  EXPECT_FALSE(service.SwapModel(nullptr, &err));
  EXPECT_NE(err.find("null"), std::string::npos) << err;
  EXPECT_EQ(service.model_version(), 0u);

  SeedGlobalRng(72);
  auto next = std::make_shared<RnTrajRec>(SmallConfig(), *ctx_);
  ASSERT_TRUE(service.SwapModel(next, &err)) << err;
  EXPECT_EQ(service.model_version(), 1u);
  // The swap's own timeline is a retained trace: warmup + flip spans.
  ASSERT_NE(service.tracer(), nullptr);
  bool swap_trace_found = false;
  for (const auto& trace : service.tracer()->Retained()) {
    if (std::string(trace->outcome()) == "model-swap") {
      swap_trace_found = true;
      EXPECT_GE(trace->SpanIndex("swap.warmup"), 0);
      EXPECT_GE(trace->SpanIndex("swap.flip"), 0);
    }
  }
  EXPECT_TRUE(swap_trace_found);
  // A request on the fresh generation round-trips and says so.
  auto f = service.Submit(serve::RequestFromSample(dataset_->test()[0]));
  RecoveryResponse resp = GetOrDie(f);
  ASSERT_TRUE(resp.ok) << resp.error;
  EXPECT_EQ(resp.model_version, 1u);

  service.Shutdown();
  SeedGlobalRng(73);
  auto late = std::make_shared<RnTrajRec>(SmallConfig(), *ctx_);
  EXPECT_FALSE(service.SwapModel(late, &err));
  EXPECT_NE(err.find("shut down"), std::string::npos) << err;
  EXPECT_EQ(service.model_version(), 1u);
}

// ----- Chaos: rolling deploy across a worker fleet (PR 10) -------------------

TEST_F(ServeChaosFixture, RollingDeployAcrossFleetMidStreamDropsNothing) {
  // Two distinguishable generations: A is the fixture model, B a
  // differently-seeded sibling. Only matching weights can explain matching
  // answers, so the version stamp on each response is checkable against
  // the actual trajectory it carries.
  const std::string tag = std::to_string(::getpid());
  const std::string snap_a = "/tmp/chaos_deploy_" + tag + "_a.snapshot";
  const std::string snap_b = "/tmp/chaos_deploy_" + tag + "_b.snapshot";
  std::string error;
  ASSERT_TRUE(model_->SaveSnapshot(snap_a, &error)) << error;

  SeedGlobalRng(62);
  RnTrajRec model_b(SmallConfig(), *ctx_);
  model_b.SetTrainingMode(false);
  model_b.BeginInference();
  ASSERT_TRUE(model_b.SaveSnapshot(snap_b, &error)) << error;
  std::vector<MatchedTrajectory> reference_b;
  for (const auto& s : dataset_->test()) {
    serve::RecoveryRequest req = serve::RequestFromSample(s);
    TrajectorySample eph = MakeEphemeralSample(
        std::move(req.input), std::move(req.input_indices), req.target_times);
    reference_b.push_back(model_b.Recover(eph));
  }

  // 3-worker fleet, all starting on generation 0 = snapshot A.
  const int kWorkers = 3;
  fleet::FleetRouterConfig rcfg;
  std::vector<pid_t> pids;
  std::vector<fleet::WorkerSpawn> spawns;
  for (int i = 0; i < kWorkers; ++i) {
    fleet::WorkerSpawn spawn;
    spawn.profile = "chaos-tiny";
    spawn.snapshot_path = snap_a;
    spawn.data_endpoint =
        "unix:/tmp/chaos_deploy_" + tag + "_w" + std::to_string(i) + ".sock";
    spawn.control_endpoint =
        "unix:/tmp/chaos_deploy_" + tag + "_w" + std::to_string(i) + ".ctl";
    pid_t pid = 0;
    ASSERT_TRUE(fleet::SpawnWorkerProcess(spawn, &pid, &error)) << error;
    pids.push_back(pid);
    spawns.push_back(spawn);
    rcfg.workers.push_back({spawn.data_endpoint, spawn.control_endpoint});
  }

  {
    fleet::FleetRouter router(rcfg);
    ASSERT_TRUE(router.WaitForAlive(kWorkers, 120000))
        << "fleet never came up";

    // Stream continuously while the deploy rolls worker by worker: the
    // submitter thread keeps requests in flight across every swap window.
    std::atomic<bool> deploying{true};
    std::mutex futures_mu;
    std::vector<std::future<RecoveryResponse>> futures;
    std::vector<size_t> sample_of;
    std::thread submitter([&] {
      size_t i = 0;
      while (deploying.load(std::memory_order_acquire)) {
        const size_t idx = i++ % dataset_->test().size();
        auto f = router.Submit(serve::RequestFromSample(dataset_->test()[idx]));
        {
          std::lock_guard<std::mutex> lock(futures_mu);
          futures.push_back(std::move(f));
          sample_of.push_back(idx);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });

    ASSERT_TRUE(router.RollingDeploy(snap_b, &error)) << error;
    deploying.store(false, std::memory_order_release);
    submitter.join();

    // Zero dropped futures, and every response's answer belongs to exactly
    // the generation its version stamp names: version 0 == snapshot A's
    // reference, version 1 == snapshot B's — never a blend.
    int from_a = 0;
    int from_b = 0;
    for (size_t k = 0; k < futures.size(); ++k) {
      RecoveryResponse resp = GetOrDie(futures[k]);
      ASSERT_TRUE(resp.ok) << "mid-deploy request " << k << ": "
                           << resp.error;
      ASSERT_LE(resp.model_version, 1u) << "request " << k;
      const MatchedTrajectory& ref = resp.model_version == 0
                                         ? (*reference_)[sample_of[k]]
                                         : reference_b[sample_of[k]];
      if (resp.model_version == 0) {
        ++from_a;
      } else {
        ++from_b;
      }
      ASSERT_EQ(resp.recovered.size(), ref.size()) << "request " << k;
      for (int j = 0; j < ref.size(); ++j) {
        EXPECT_EQ(resp.recovered.points[j].seg_id, ref.points[j].seg_id)
            << "request " << k << " step " << j << " (version "
            << resp.model_version << ")";
        EXPECT_NEAR(resp.recovered.points[j].ratio, ref.points[j].ratio,
                    1e-5)
            << "request " << k << " step " << j;
      }
    }
    EXPECT_GT(from_a + from_b, 0) << "stream produced no requests";

    // After the deploy completes, every worker answers on generation 1.
    std::vector<std::future<RecoveryResponse>> after;
    for (int pass = 0; pass < 3; ++pass) {
      for (size_t i = 0; i < dataset_->test().size(); ++i) {
        after.push_back(
            router.Submit(serve::RequestFromSample(dataset_->test()[i])));
      }
    }
    for (size_t k = 0; k < after.size(); ++k) {
      RecoveryResponse resp = GetOrDie(after[k]);
      ASSERT_TRUE(resp.ok) << "post-deploy request " << k << ": "
                           << resp.error;
      EXPECT_EQ(resp.model_version, 1u) << "request " << k
                                        << " stuck on the old generation";
      const MatchedTrajectory& ref =
          reference_b[k % dataset_->test().size()];
      for (int j = 0; j < ref.size(); ++j) {
        EXPECT_EQ(resp.recovered.points[j].seg_id, ref.points[j].seg_id)
            << "request " << k << " step " << j;
      }
    }
    router.Shutdown();
  }

  for (pid_t pid : pids) fleet::KillWorkerProcess(pid);
  for (const auto& spawn : spawns) {
    std::remove(spawn.data_endpoint.substr(5).c_str());
    std::remove(spawn.control_endpoint.substr(5).c_str());
  }
  std::remove(snap_a.c_str());
  std::remove(snap_b.c_str());
}

}  // namespace
}  // namespace rntraj
