#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/common/random.h"
#include "src/core/rntrajrec.h"
#include "src/serve/micro_batcher.h"
#include "src/serve/recovery_service.h"
#include "src/serve/roadnet_cache.h"
#include "src/serve/workload.h"
#include "src/sim/presets.h"

namespace rntraj {
namespace {

using serve::MicroBatcher;
using serve::MicroBatcherConfig;
using serve::QueuedRequest;

QueuedRequest MakeQueued(uint64_t id) {
  QueuedRequest q;
  q.id = id;
  return q;
}

// ----- MicroBatcher ----------------------------------------------------------

TEST(MicroBatcherTest, CoalescesQueuedRequestsIntoOneBatch) {
  MicroBatcherConfig cfg;
  cfg.max_batch_size = 16;
  cfg.max_batch_delay_us = 0;  // dispatch whatever is queued
  MicroBatcher batcher(cfg);
  for (uint64_t i = 0; i < 8; ++i) ASSERT_TRUE(batcher.Push(MakeQueued(i)));
  auto batch = batcher.PopBatch();
  EXPECT_EQ(batch.size(), 8u);
  EXPECT_EQ(batcher.depth(), 0u);
}

TEST(MicroBatcherTest, RespectsMaxBatchSize) {
  MicroBatcherConfig cfg;
  cfg.max_batch_size = 4;
  cfg.max_batch_delay_us = 0;
  MicroBatcher batcher(cfg);
  for (uint64_t i = 0; i < 10; ++i) ASSERT_TRUE(batcher.Push(MakeQueued(i)));
  EXPECT_EQ(batcher.PopBatch().size(), 4u);
  EXPECT_EQ(batcher.PopBatch().size(), 4u);
  EXPECT_EQ(batcher.PopBatch().size(), 2u);
}

TEST(MicroBatcherTest, DeadlineDispatchesPartialBatch) {
  MicroBatcherConfig cfg;
  cfg.max_batch_size = 64;
  cfg.max_batch_delay_us = 20000;  // 20 ms
  MicroBatcher batcher(cfg);
  ASSERT_TRUE(batcher.Push(MakeQueued(0)));
  const auto t0 = std::chrono::steady_clock::now();
  auto batch = batcher.PopBatch();  // must not wait for 64 requests
  const double waited_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_EQ(batch.size(), 1u);
  // Dispatched by deadline: strictly bounded, not an indefinite block (wide
  // margin for scheduler noise).
  EXPECT_LT(waited_ms, 2000.0);
}

TEST(MicroBatcherTest, ConcurrentProducersLoseNothing) {
  MicroBatcherConfig cfg;
  cfg.max_batch_size = 7;
  cfg.max_batch_delay_us = 200;
  MicroBatcher batcher(cfg);
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 50;

  std::set<uint64_t> received;
  std::atomic<bool> done{false};
  std::thread consumer([&] {
    while (true) {
      auto batch = batcher.PopBatch();
      if (batch.empty()) break;
      for (auto& q : batch) received.insert(q.id);
    }
    done = true;
  });

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&batcher, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(batcher.Push(
            MakeQueued(static_cast<uint64_t>(p) * kPerProducer + i)));
      }
    });
  }
  for (auto& t : producers) t.join();
  batcher.Shutdown();
  consumer.join();
  ASSERT_TRUE(done.load());
  // Every id delivered exactly once (set dedups; size proves no loss).
  EXPECT_EQ(received.size(),
            static_cast<size_t>(kProducers) * kPerProducer);
}

TEST(MicroBatcherTest, ShutdownDrainsThenUnblocks) {
  MicroBatcherConfig cfg;
  cfg.max_batch_size = 100;
  cfg.max_batch_delay_us = 0;
  MicroBatcher batcher(cfg);
  ASSERT_TRUE(batcher.Push(MakeQueued(1)));
  batcher.Shutdown();
  EXPECT_FALSE(batcher.Push(MakeQueued(2)));  // admissions closed
  EXPECT_EQ(batcher.PopBatch().size(), 1u);   // queued work still drains
  EXPECT_TRUE(batcher.PopBatch().empty());    // then consumers unblock empty
}

TEST(MicroBatcherTest, ShedsLoadBeyondQueueDepth) {
  MicroBatcherConfig cfg;
  cfg.max_queue_depth = 3;
  MicroBatcher batcher(cfg);
  for (uint64_t i = 0; i < 3; ++i) ASSERT_TRUE(batcher.Push(MakeQueued(i)));
  EXPECT_FALSE(batcher.Push(MakeQueued(99)));
}

// ----- ValidateRequest edge cases --------------------------------------------

/// Minimal structurally-valid request: two points on a three-slot grid.
serve::RecoveryRequest MakeValidRequest() {
  serve::RecoveryRequest req;
  req.input.points.push_back({{0.0, 0.0}, 0.0});
  req.input.points.push_back({{100.0, 100.0}, 8.0});
  req.target_times = {0.0, 4.0, 8.0};
  req.input_indices = {0, 2};
  return req;
}

std::string RejectionOf(const serve::RecoveryRequest& req) {
  std::string error;
  EXPECT_FALSE(serve::ValidateRequest(req, &error));
  EXPECT_FALSE(error.empty());
  return error;
}

TEST(ValidateRequestTest, AcceptsMinimalValidRequest) {
  std::string error;
  EXPECT_TRUE(serve::ValidateRequest(MakeValidRequest(), &error)) << error;
}

TEST(ValidateRequestTest, AcceptsSinglePointInput) {
  serve::RecoveryRequest req = MakeValidRequest();
  req.input.points.resize(1);
  req.input_indices = {0};
  std::string error;
  EXPECT_TRUE(serve::ValidateRequest(req, &error)) << error;
}

TEST(ValidateRequestTest, RejectsNonFinitePointCoordinates) {
  for (double bad : {std::nan(""), std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    serve::RecoveryRequest req = MakeValidRequest();
    req.input.points[1].pos.x = bad;
    RejectionOf(req);
    req = MakeValidRequest();
    req.input.points[0].pos.y = bad;
    RejectionOf(req);
  }
}

TEST(ValidateRequestTest, RejectsNonFiniteTimes) {
  for (double bad : {std::nan(""), std::numeric_limits<double>::infinity()}) {
    serve::RecoveryRequest req = MakeValidRequest();
    req.input.points[1].t = bad;
    RejectionOf(req);
    req = MakeValidRequest();
    req.target_times[2] = bad;
    RejectionOf(req);
  }
  // NaN must not slip through the ordering checks (NaN <= x is false, so a
  // naive monotonicity scan would accept it).
  serve::RecoveryRequest req = MakeValidRequest();
  req.target_times[1] = std::nan("");
  EXPECT_NE(RejectionOf(req).find("finite"), std::string::npos);
}

TEST(ValidateRequestTest, RejectsDuplicateTimestamps) {
  serve::RecoveryRequest req = MakeValidRequest();
  req.target_times[1] = req.target_times[0];  // duplicate grid slot
  RejectionOf(req);
  req = MakeValidRequest();
  req.input.points[1].t = req.input.points[0].t;  // duplicate observation
  RejectionOf(req);
  req = MakeValidRequest();
  req.input.points[1].t = -1.0;  // decreasing is just as dead
  RejectionOf(req);
}

TEST(ValidateRequestTest, RejectsOutOfRangeInputIndices) {
  serve::RecoveryRequest req = MakeValidRequest();
  req.input_indices = {-1, 2};  // negative slot
  RejectionOf(req);
  req = MakeValidRequest();
  req.input_indices = {0, 3};  // one past the grid
  RejectionOf(req);
  req = MakeValidRequest();
  req.input_indices = {1, 1};  // not strictly increasing
  RejectionOf(req);
  req = MakeValidRequest();
  req.input_indices = {0};  // misaligned with the points
  RejectionOf(req);
}

TEST(ValidateRequestTest, RejectsEmptyInputOrGrid) {
  serve::RecoveryRequest req = MakeValidRequest();
  req.input.points.clear();
  req.input_indices.clear();
  RejectionOf(req);
  req = MakeValidRequest();
  req.target_times.clear();
  RejectionOf(req);
}

// ----- Shared dataset fixture ------------------------------------------------

class ServeFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatasetConfig cfg = ChengduConfig(BenchScale::kTiny);
    cfg.num_train = 6;
    cfg.num_val = 2;
    cfg.num_test = 6;
    cfg.sim.len_rho = 24;
    dataset_ = BuildDataset(cfg).release();
    ctx_ = new ModelContext(ModelContext::FromDataset(*dataset_));
  }
  static void TearDownTestSuite() {
    delete ctx_;
    delete dataset_;
    dataset_ = nullptr;
    ctx_ = nullptr;
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

  static Dataset* dataset_;
  static ModelContext* ctx_;
};

Dataset* ServeFixture::dataset_ = nullptr;
ModelContext* ServeFixture::ctx_ = nullptr;

// ----- CellCandidateCache ----------------------------------------------------

TEST_F(ServeFixture, CellCacheIsExact) {
  serve::CellCandidateCache cache(&dataset_->roadnet(), &dataset_->rtree(),
                                  &dataset_->grid(), {250.0, 100.0});
  Rng rng(11);
  const BBox& b = dataset_->roadnet().bounds();
  for (int trial = 0; trial < 200; ++trial) {
    const Vec2 p{rng.Uniform(b.min_x, b.max_x), rng.Uniform(b.min_y, b.max_y)};
    const double radius = trial % 2 == 0 ? 250.0 : 100.0;
    auto cached = cache.WithinRadius(p, radius);
    auto direct =
        SegmentsWithinRadius(dataset_->roadnet(), dataset_->rtree(), p, radius);
    ASSERT_EQ(cached.size(), direct.size()) << "trial " << trial;
    for (size_t i = 0; i < cached.size(); ++i) {
      EXPECT_EQ(cached[i].seg_id, direct[i].seg_id);
      EXPECT_DOUBLE_EQ(cached[i].projection.distance,
                       direct[i].projection.distance);
    }
  }
  const auto stats = cache.stats();
  EXPECT_GT(stats.hits + stats.misses + stats.fallbacks, 0);
}

TEST_F(ServeFixture, CellCacheUnknownRadiusFallsBack) {
  serve::CellCandidateCache cache(&dataset_->roadnet(), &dataset_->rtree(),
                                  &dataset_->grid(), {250.0});
  const BBox& b = dataset_->roadnet().bounds();
  const Vec2 p{0.5 * (b.min_x + b.max_x), 0.5 * (b.min_y + b.max_y)};
  auto cached = cache.WithinRadius(p, 123.0);  // not a configured radius
  auto direct =
      SegmentsWithinRadius(dataset_->roadnet(), dataset_->rtree(), p, 123.0);
  EXPECT_EQ(cached.size(), direct.size());
  EXPECT_GE(cache.stats().fallbacks, 1);
}

TEST_F(ServeFixture, CellCacheEvictsAtCapacity) {
  serve::RoadnetCacheConfig ccfg;
  ccfg.capacity = 8;
  ccfg.shards = 2;
  serve::CellCandidateCache cache(&dataset_->roadnet(), &dataset_->rtree(),
                                  &dataset_->grid(), {250.0}, ccfg);
  Rng rng(13);
  const BBox& b = dataset_->roadnet().bounds();
  for (int trial = 0; trial < 100; ++trial) {
    const Vec2 p{rng.Uniform(b.min_x, b.max_x), rng.Uniform(b.min_y, b.max_y)};
    cache.WithinRadius(p, 250.0);
  }
  EXPECT_LE(cache.stats().entries, 8);
  EXPECT_GT(cache.stats().misses, 8);  // churned well past capacity
}

TEST_F(ServeFixture, PrefetchWarmsTheCache) {
  serve::CellCandidateCache cache(&dataset_->roadnet(), &dataset_->rtree(),
                                  &dataset_->grid(), {250.0});
  std::vector<Vec2> points;
  for (const auto& p : dataset_->test()[0].input.points) points.push_back(p.pos);
  cache.Prefetch(points, 250.0);
  const auto before = cache.stats();
  EXPECT_GT(before.entries, 0);
  for (const Vec2& p : points) cache.WithinRadius(p, 250.0);
  const auto after = cache.stats();
  EXPECT_EQ(after.misses, before.misses);  // all served from prefetched cells
  EXPECT_GT(after.hits, before.hits);
}

// ----- NetworkDistance admission cap ----------------------------------------

TEST_F(ServeFixture, DijkstraRowCacheStaysUnderCap) {
  NetworkDistance nd(&dataset_->roadnet(), /*max_cached_rows=*/2);
  NetworkDistance reference(&dataset_->roadnet());
  const int n = dataset_->roadnet().num_segments();
  ASSERT_GE(n, 4);
  for (int src = 0; src < 4; ++src) {
    for (int dst = 0; dst < n; dst += std::max(1, n / 7)) {
      EXPECT_EQ(nd.StartToStart(src, dst), reference.StartToStart(src, dst));
    }
  }
  EXPECT_LE(nd.cached_rows(), 2);
  EXPECT_GE(nd.row_misses(), 4);
  // A source admitted first keeps its row once the cap is full: the
  // re-query is still correct and takes no new miss.
  const int64_t misses_before = nd.row_misses();
  EXPECT_EQ(nd.StartToStart(0, n - 1), reference.StartToStart(0, n - 1));
  EXPECT_EQ(nd.row_misses(), misses_before);
}

TEST_F(ServeFixture, ServiceLeavesDatasetDistanceCacheAlone) {
  // The ladder's fallback builds its own capped table; serving must not
  // shrink the dataset's shared one, which offline sweeps keep warm.
  const NetworkDistance& shared = dataset_->netdist();
  const int n = dataset_->roadnet().num_segments();
  for (int src = 0; src < n; ++src) shared.StartToStart(src, 0);
  ASSERT_EQ(shared.cached_rows(), n);

  SeedGlobalRng(52);
  RnTrajRec model(SmallConfig(), *ctx_);
  serve::RecoveryServiceConfig scfg;
  scfg.policy.enabled = true;
  scfg.max_dijkstra_rows = 2;
  scfg.warm_model = false;
  { serve::RecoveryService service(&model, *ctx_, scfg); }
  EXPECT_EQ(shared.cached_rows(), n);
}

// ----- RecoveryService -------------------------------------------------------

TEST_F(ServeFixture, ServiceMatchesSequentialInference) {
  SeedGlobalRng(51);
  RnTrajRec model(SmallConfig(), *ctx_);
  model.SetTrainingMode(false);
  model.BeginInference();

  // Sequential single-request reference, before any cache is installed.
  std::vector<MatchedTrajectory> reference;
  for (const auto& s : dataset_->test()) {
    serve::RecoveryRequest req = serve::RequestFromSample(s);
    TrajectorySample eph = MakeEphemeralSample(
        std::move(req.input), std::move(req.input_indices), req.target_times);
    reference.push_back(model.Recover(eph));
  }

  serve::RecoveryServiceConfig scfg;
  scfg.num_sessions = 2;
  scfg.batcher.max_batch_size = 4;
  scfg.batcher.max_batch_delay_us = 500;
  const RnTrajRecConfig& mcfg = model.config();
  scfg.cache_radii = {mcfg.delta, mcfg.decoder.mask_radius,
                      mcfg.decoder.spatial_prior_radius};
  scfg.prefetch_radii = {mcfg.delta};
  serve::RecoveryService service(&model, *ctx_, scfg);

  std::vector<std::future<serve::RecoveryResponse>> futures;
  for (const auto& s : dataset_->test()) {
    futures.push_back(service.Submit(serve::RequestFromSample(s)));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    serve::RecoveryResponse resp = futures[i].get();
    ASSERT_TRUE(resp.ok) << resp.error;
    ASSERT_EQ(resp.recovered.size(), reference[i].size());
    for (int j = 0; j < reference[i].size(); ++j) {
      EXPECT_EQ(resp.recovered.points[j].seg_id, reference[i].points[j].seg_id)
          << "request " << i << " step " << j;
      EXPECT_NEAR(resp.recovered.points[j].ratio, reference[i].points[j].ratio,
                  1e-5);
    }
  }
  const auto stats = service.Stats();
  EXPECT_EQ(stats.completed, static_cast<int64_t>(dataset_->test().size()));
  EXPECT_EQ(stats.shed, 0);
}

TEST_F(ServeFixture, MicroBatchedServiceMatchesSingleRequestBatches) {
  // Batch-composition invariance on the serve path: every coalesced
  // micro-batch runs ONE padded encoder pass and one batched decode, so each
  // answer must not depend on which other requests shared its batch. The
  // reference serves every request alone (max_batch_size 1); the batched run
  // submits the same requests in reverse order, four to a batch.
  SeedGlobalRng(54);
  RnTrajRec model(SmallConfig(), *ctx_);
  model.SetTrainingMode(false);
  model.BeginInference();

  // Mixed target lengths inside one micro-batch: every other request keeps
  // only a prefix of its recovery grid, so the batched decoder's lanes
  // finish at different steps (early-finish compaction on the serve path).
  std::vector<serve::RecoveryRequest> requests;
  for (size_t i = 0; i < dataset_->test().size(); ++i) {
    serve::RecoveryRequest req = serve::RequestFromSample(dataset_->test()[i]);
    if (i % 2 == 1) {
      const int keep = std::max<int>(2, static_cast<int>(req.target_times.size()) / (1 + static_cast<int>(i) % 3));
      req.target_times.resize(keep);
      RawTrajectory input;
      std::vector<int> indices;
      for (size_t k = 0; k < req.input_indices.size(); ++k) {
        if (req.input_indices[k] < keep) {
          input.points.push_back(req.input.points[k]);
          indices.push_back(req.input_indices[k]);
        }
      }
      req.input = std::move(input);
      req.input_indices = std::move(indices);
    }
    requests.push_back(std::move(req));
  }

  const auto run = [&](int max_batch, bool reversed) {
    serve::RecoveryServiceConfig scfg;
    scfg.num_sessions = 1;
    scfg.batcher.max_batch_size = max_batch;
    scfg.batcher.max_batch_delay_us = 500;
    scfg.warm_model = false;  // already warmed above
    serve::RecoveryService service(&model, *ctx_, scfg);
    std::vector<std::future<serve::RecoveryResponse>> futures(requests.size());
    for (size_t k = 0; k < requests.size(); ++k) {
      const size_t i = reversed ? requests.size() - 1 - k : k;
      futures[i] = service.Submit(requests[i]);  // Submit copies its argument
    }
    std::vector<serve::RecoveryResponse> out;
    for (auto& f : futures) out.push_back(f.get());
    return out;
  };

  const auto alone = run(1, false);
  const auto batched = run(4, true);
  ASSERT_EQ(alone.size(), batched.size());
  for (size_t i = 0; i < batched.size(); ++i) {
    ASSERT_TRUE(alone[i].ok) << alone[i].error;
    ASSERT_TRUE(batched[i].ok) << batched[i].error;
    ASSERT_EQ(batched[i].recovered.size(), alone[i].recovered.size());
    for (int j = 0; j < alone[i].recovered.size(); ++j) {
      EXPECT_EQ(batched[i].recovered.points[j].seg_id,
                alone[i].recovered.points[j].seg_id)
          << "request " << i << " step " << j;
      EXPECT_NEAR(batched[i].recovered.points[j].ratio,
                  alone[i].recovered.points[j].ratio, 1e-5)
          << "request " << i << " step " << j;
    }
  }
}

TEST_F(ServeFixture, ServiceRejectsMalformedRequests) {
  SeedGlobalRng(53);
  RnTrajRec model(SmallConfig(), *ctx_);
  serve::RecoveryServiceConfig scfg;
  scfg.num_sessions = 1;
  serve::RecoveryService service(&model, *ctx_, scfg);

  serve::RecoveryRequest empty;
  serve::RecoveryResponse resp = service.Submit(std::move(empty)).get();
  EXPECT_FALSE(resp.ok);
  EXPECT_EQ(resp.kind, serve::ResponseKind::kValidationError);
  EXPECT_FALSE(resp.error.empty());

  serve::RecoveryRequest bad = serve::RequestFromSample(dataset_->test()[0]);
  bad.input_indices.pop_back();  // misaligned
  resp = service.Submit(std::move(bad)).get();
  EXPECT_FALSE(resp.ok);
  EXPECT_EQ(resp.kind, serve::ResponseKind::kValidationError);

  // Non-finite timestamps must be rejected before they can reach the
  // interpolator (NaN defeats ordering comparisons).
  serve::RecoveryRequest nan_req = serve::RequestFromSample(dataset_->test()[0]);
  nan_req.target_times[1] = std::nan("");
  resp = service.Submit(std::move(nan_req)).get();
  EXPECT_FALSE(resp.ok);
  EXPECT_EQ(resp.kind, serve::ResponseKind::kValidationError);

  EXPECT_EQ(service.Stats().validation_error, 3);
}

TEST_F(ServeFixture, WorkloadGeneratorIsDeterministicAndOrdered) {
  auto a = serve::PoissonWorkload(dataset_->test(), 32, 100.0, 9);
  auto b = serve::PoissonWorkload(dataset_->test(), 32, 100.0, 9);
  ASSERT_EQ(a.size(), 32u);
  double prev = -1.0;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].arrival_s, b[i].arrival_s);
    EXPECT_GT(a[i].arrival_s, prev);
    prev = a[i].arrival_s;
    EXPECT_EQ(a[i].sample_index, static_cast<int>(i % dataset_->test().size()));
  }
}

}  // namespace
}  // namespace rntraj
