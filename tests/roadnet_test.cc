#include <gtest/gtest.h>

#include <limits>
#include <thread>
#include <vector>

#include "src/common/random.h"
#include "src/roadnet/grid.h"
#include "src/roadnet/road_network.h"
#include "src/roadnet/rtree.h"
#include "src/roadnet/shortest_path.h"
#include "src/roadnet/subgraph.h"

namespace rntraj {
namespace {

// A 2x2 block of one-way streets forming a ring, plus a diagonal shortcut:
//   0: (0,0)->(100,0)    1: (100,0)->(100,100)
//   2: (100,100)->(0,100) 3: (0,100)->(0,0)
//   4: (0,0)->(100,100)  (diagonal)
RoadNetwork RingNetwork() {
  RoadNetwork rn;
  rn.AddSegment({{0, 0}, {100, 0}}, RoadLevel::kResidential);
  rn.AddSegment({{100, 0}, {100, 100}}, RoadLevel::kSecondary);
  rn.AddSegment({{100, 100}, {0, 100}}, RoadLevel::kResidential);
  rn.AddSegment({{0, 100}, {0, 0}}, RoadLevel::kResidential);
  rn.AddSegment({{0, 0}, {100, 100}}, RoadLevel::kTrunk);
  rn.AddEdge(0, 1);
  rn.AddEdge(1, 2);
  rn.AddEdge(2, 3);
  rn.AddEdge(3, 0);
  rn.AddEdge(3, 4);
  rn.AddEdge(4, 2);
  rn.Build();
  return rn;
}

TEST(RoadNetworkTest, BasicTopology) {
  RoadNetwork rn = RingNetwork();
  EXPECT_EQ(rn.num_segments(), 5);
  EXPECT_EQ(rn.OutEdges(3).size(), 2u);
  EXPECT_EQ(rn.InEdges(2).size(), 2u);
  EXPECT_EQ(rn.edges().size(), 6u);
  EXPECT_DOUBLE_EQ(rn.segment(0).length(), 100);
  EXPECT_TRUE(rn.IsStronglyConnected());
}

TEST(RoadNetworkTest, PointAtAndProject) {
  RoadNetwork rn = RingNetwork();
  Vec2 p = rn.PointAt(1, 0.25);
  EXPECT_DOUBLE_EQ(p.x, 100);
  EXPECT_DOUBLE_EQ(p.y, 25);
  auto proj = rn.Project({96, 50}, 1);
  EXPECT_DOUBLE_EQ(proj.distance, 4);
  EXPECT_DOUBLE_EQ(proj.ratio, 0.5);
}

TEST(RoadNetworkTest, StaticFeaturesLayout) {
  RoadNetwork rn = RingNetwork();
  auto f = rn.StaticFeatures(1);
  ASSERT_EQ(f.size(), static_cast<size_t>(kStaticFeatureDim));
  EXPECT_EQ(f[static_cast<int>(RoadLevel::kSecondary)], 1.0f);
  EXPECT_EQ(f[static_cast<int>(RoadLevel::kResidential)], 0.0f);
  EXPECT_FLOAT_EQ(f[kNumRoadLevels], 0.1f);      // 100 m / 1 km
  EXPECT_FLOAT_EQ(f[kNumRoadLevels + 1], 1.0f);  // in-degree
  EXPECT_FLOAT_EQ(f[kNumRoadLevels + 2], 1.0f);  // out-degree
}

TEST(RoadNetworkTest, NotStronglyConnectedWhenEdgeMissing) {
  RoadNetwork rn;
  rn.AddSegment({{0, 0}, {1, 0}}, RoadLevel::kResidential);
  rn.AddSegment({{1, 0}, {2, 0}}, RoadLevel::kResidential);
  rn.AddEdge(0, 1);
  rn.Build();
  EXPECT_FALSE(rn.IsStronglyConnected());
}

TEST(GridMappingTest, CellIndexingCoversBounds) {
  GridMapping grid(BBox{0, 0, 1000, 500}, 50.0);
  EXPECT_GE(grid.cols() * grid.cell_size(), 1000.0);
  EXPECT_GE(grid.rows() * grid.cell_size(), 500.0);
  // Points map within range and corners clamp.
  EXPECT_GE(grid.CellIndexOf({-1e6, -1e6}), 0);
  EXPECT_LT(grid.CellIndexOf({1e6, 1e6}), grid.num_cells());
  // Far beyond int range, and NaN: clamped before the integer conversion.
  EXPECT_EQ(grid.CellIndexOf({-1e12, -1e12}), 0);
  EXPECT_EQ(grid.CellIndexOf({1e12, 1e12}), grid.num_cells() - 1);
  EXPECT_EQ(grid.CellIndexOf({1e12, -1e12}), grid.cols() - 1);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(grid.CellIndexOf({nan, nan}), 0);
  EXPECT_EQ(grid.CellIndexOf({nan, 1e12}), (grid.rows() - 1) * grid.cols());
}

TEST(GridMappingTest, DistinctCellsForDistantPoints) {
  GridMapping grid(BBox{0, 0, 1000, 1000}, 50.0);
  EXPECT_NE(grid.CellIndexOf({10, 10}), grid.CellIndexOf({900, 900}));
  EXPECT_EQ(grid.CellIndexOf({10, 10}), grid.CellIndexOf({11, 11}));
}

TEST(GridMappingTest, CellCenterRoundTrips) {
  GridMapping grid(BBox{0, 0, 500, 500}, 50.0);
  for (int gy = 0; gy < grid.rows(); gy += 3) {
    for (int gx = 0; gx < grid.cols(); gx += 3) {
      GridMapping::Cell c{gx, gy};
      EXPECT_EQ(grid.CellIndex(grid.CellOf(grid.CellCenter(c))),
                grid.CellIndex(c));
    }
  }
}

TEST(GridMappingTest, GridSequenceFollowsSegment) {
  GridMapping grid(BBox{0, 0, 500, 500}, 50.0);
  Polyline line({{10, 10}, {210, 10}});  // horizontal, ~4 cells
  auto seq = grid.GridSequence(line);
  ASSERT_GE(seq.size(), 4u);
  // No consecutive duplicates.
  for (size_t i = 1; i < seq.size(); ++i) EXPECT_NE(seq[i], seq[i - 1]);
  // Endpoints are the cells of the endpoints.
  EXPECT_EQ(seq.front(), grid.CellIndexOf({10, 10}));
  EXPECT_EQ(seq.back(), grid.CellIndexOf({210, 10}));
}

TEST(GridMappingTest, ShortSegmentHasSingleCell) {
  GridMapping grid(BBox{0, 0, 500, 500}, 50.0);
  Polyline line({{10, 10}, {12, 12}});
  auto seq = grid.GridSequence(line);
  EXPECT_EQ(seq.size(), 1u);
}

TEST(RTreeTest, MatchesBruteForceOnRandomBoxes) {
  Rng rng(11);
  std::vector<BBox> boxes;
  for (int i = 0; i < 300; ++i) {
    const double x = rng.Uniform(0, 1000);
    const double y = rng.Uniform(0, 1000);
    boxes.push_back({x, y, x + rng.Uniform(1, 60), y + rng.Uniform(1, 60)});
  }
  RTree tree(boxes);
  for (int q = 0; q < 50; ++q) {
    const double x = rng.Uniform(-50, 1000);
    const double y = rng.Uniform(-50, 1000);
    BBox query{x, y, x + rng.Uniform(5, 200), y + rng.Uniform(5, 200)};
    auto got = tree.Query(query);
    std::vector<int> want;
    for (int i = 0; i < 300; ++i) {
      if (boxes[i].Intersects(query)) want.push_back(i);
    }
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, want) << "query " << q;
  }
}

TEST(RTreeTest, EmptyTreeAndEmptyResult) {
  RTree empty(std::vector<BBox>{});
  EXPECT_TRUE(empty.Query({0, 0, 10, 10}).empty());
  RTree one(std::vector<BBox>{{0, 0, 1, 1}});
  EXPECT_TRUE(one.Query({5, 5, 6, 6}).empty());
  EXPECT_EQ(one.Query({0.5, 0.5, 2, 2}).size(), 1u);
}

TEST(SegmentsWithinRadiusTest, SortedAndFiltered) {
  RoadNetwork rn = RingNetwork();
  RTree rtree = BuildSegmentRTree(rn);
  // Near segment 0's middle.
  auto near = SegmentsWithinRadius(rn, rtree, {50, 5}, 20.0);
  ASSERT_FALSE(near.empty());
  EXPECT_EQ(near[0].seg_id, 0);
  EXPECT_NEAR(near[0].projection.distance, 5, 1e-9);
  for (size_t i = 1; i < near.size(); ++i) {
    EXPECT_LE(near[i - 1].projection.distance, near[i].projection.distance);
    EXPECT_LE(near[i].projection.distance, 20.0);
  }
}

TEST(SegmentsWithinRadiusTest, ExpandsUntilNonEmpty) {
  RoadNetwork rn = RingNetwork();
  RTree rtree = BuildSegmentRTree(rn);
  // Far outside the network with a tiny radius: expansion must still find
  // something.
  auto near = SegmentsWithinRadius(rn, rtree, {5000, 5000}, 10.0);
  EXPECT_FALSE(near.empty());
}

TEST(NetworkDistanceTest, StartToStartOnRing) {
  RoadNetwork rn = RingNetwork();
  NetworkDistance nd(&rn);
  EXPECT_DOUBLE_EQ(nd.StartToStart(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(nd.StartToStart(0, 1), 100.0);
  EXPECT_DOUBLE_EQ(nd.StartToStart(0, 2), 200.0);
  EXPECT_DOUBLE_EQ(nd.StartToStart(0, 3), 300.0);
  // 3->4 via the diagonal entry.
  EXPECT_DOUBLE_EQ(nd.StartToStart(3, 4), 100.0);
}

TEST(NetworkDistanceTest, PointToPointSameSegment) {
  RoadNetwork rn = RingNetwork();
  NetworkDistance nd(&rn);
  EXPECT_DOUBLE_EQ(nd.PointToPoint(0, 0.2, 0, 0.7), 50.0);
  // Backwards on a one-way segment requires the full ring cycle:
  // 0.3*100 remaining + 100+100+100 + 0.1*100.
  EXPECT_DOUBLE_EQ(nd.PointToPoint(0, 0.7, 0, 0.6), 390.0);
}

TEST(NetworkDistanceTest, PointToPointAcrossSegments) {
  RoadNetwork rn = RingNetwork();
  NetworkDistance nd(&rn);
  // From (0, 0.5) to (1, 0.5): 50 left on segment 0, then 50 into segment 1.
  EXPECT_DOUBLE_EQ(nd.PointToPoint(0, 0.5, 1, 0.5), 100.0);
}

TEST(NetworkDistanceTest, SymmetricTakesMinDirection) {
  RoadNetwork rn = RingNetwork();
  NetworkDistance nd(&rn);
  const double ab = nd.PointToPoint(0, 0.5, 1, 0.5);
  const double ba = nd.PointToPoint(1, 0.5, 0, 0.5);
  EXPECT_DOUBLE_EQ(nd.Symmetric(0, 0.5, 1, 0.5), std::min(ab, ba));
}

TEST(NetworkDistanceTest, SymmetricFallsBackToPlanarWhenUnreachable) {
  RoadNetwork rn;
  rn.AddSegment({{0, 0}, {100, 0}}, RoadLevel::kResidential);
  rn.AddSegment({{0, 50}, {100, 50}}, RoadLevel::kResidential);
  rn.Build();  // no edges: mutually unreachable
  NetworkDistance nd(&rn);
  EXPECT_DOUBLE_EQ(nd.Symmetric(0, 0.0, 1, 0.0), 50.0);
}

TEST(NetworkDistanceTest, TriangleInequalityHolds) {
  RoadNetwork rn = RingNetwork();
  NetworkDistance nd(&rn);
  for (int a = 0; a < 5; ++a) {
    for (int b = 0; b < 5; ++b) {
      for (int c = 0; c < 5; ++c) {
        const double ab = nd.StartToStart(a, b);
        const double bc = nd.StartToStart(b, c);
        const double ac = nd.StartToStart(a, c);
        if (ab < 1e17 && bc < 1e17) {
          EXPECT_LE(ac, ab + bc + 1e-9)
              << "a=" << a << " b=" << b << " c=" << c;
        }
      }
    }
  }
}

TEST(SubGraphTest, ContainsNearbyAndWeightsDecay) {
  RoadNetwork rn = RingNetwork();
  RTree rtree = BuildSegmentRTree(rn);
  PointSubGraph sg = ExtractPointSubGraph(rn, rtree, {50, 5}, 200.0, 30.0);
  ASSERT_GE(sg.size(), 2);
  EXPECT_EQ(sg.seg_ids[0], 0);  // closest first
  // Weight of the closest segment is the largest; all weights in (0, 1].
  for (int i = 0; i < sg.size(); ++i) {
    EXPECT_GT(sg.weights[i], 0.0);
    EXPECT_LE(sg.weights[i], 1.0);
    if (i > 0) {
      EXPECT_LE(sg.weights[i], sg.weights[i - 1] + 1e-12);
    }
  }
  // Weight formula spot check: omega = exp(-(d/gamma)^2).
  EXPECT_NEAR(sg.weights[0], std::exp(-(5.0 / 30.0) * (5.0 / 30.0)), 1e-9);
}

TEST(SubGraphTest, InducedEdgesAreSubsetOfGlobalEdges) {
  RoadNetwork rn = RingNetwork();
  RTree rtree = BuildSegmentRTree(rn);
  PointSubGraph sg = ExtractPointSubGraph(rn, rtree, {50, 50}, 500.0, 30.0);
  EXPECT_EQ(sg.size(), 5);  // everything is close at delta=500
  // Every local edge maps to a global edge.
  for (auto [lf, lt] : sg.local_edges) {
    const int gf = sg.seg_ids[lf];
    const int gt = sg.seg_ids[lt];
    bool found = false;
    for (auto [f, t] : rn.edges()) found |= (f == gf && t == gt);
    EXPECT_TRUE(found) << gf << "->" << gt;
  }
  // All 6 global edges must appear since all nodes are included.
  EXPECT_EQ(sg.local_edges.size(), 6u);
}

TEST(SubGraphTest, MaxNodesCapsSize) {
  RoadNetwork rn = RingNetwork();
  RTree rtree = BuildSegmentRTree(rn);
  PointSubGraph sg = ExtractPointSubGraph(rn, rtree, {50, 50}, 500.0, 30.0,
                                          /*max_nodes=*/2);
  EXPECT_EQ(sg.size(), 2);
}

TEST(RTreeTest, BatchRadiusQueryMatchesSinglePointQueries) {
  RoadNetwork rn = RingNetwork();
  RTree rtree = BuildSegmentRTree(rn);
  Rng rng(21);
  std::vector<Vec2> points;
  for (int i = 0; i < 64; ++i) {
    points.push_back({rng.Uniform(-150.0, 250.0), rng.Uniform(-150.0, 250.0)});
  }
  auto batched = BatchSegmentsWithinRadius(rn, rtree, points, 80.0);
  ASSERT_EQ(batched.size(), points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    auto single = SegmentsWithinRadius(rn, rtree, points[i], 80.0);
    ASSERT_EQ(batched[i].size(), single.size()) << "point " << i;
    for (size_t k = 0; k < single.size(); ++k) {
      EXPECT_EQ(batched[i][k].seg_id, single[k].seg_id);
      EXPECT_DOUBLE_EQ(batched[i][k].projection.distance,
                       single[k].projection.distance);
    }
  }
}

TEST(NetworkDistanceTest, CappedRowCacheStaysCorrect) {
  RoadNetwork rn = RingNetwork();
  NetworkDistance capped(&rn, /*max_cached_rows=*/2);
  NetworkDistance unbounded(&rn);
  for (int from = 0; from < rn.num_segments(); ++from) {
    for (int to = 0; to < rn.num_segments(); ++to) {
      EXPECT_EQ(capped.StartToStart(from, to), unbounded.StartToStart(from, to))
          << from << "->" << to;
    }
  }
  EXPECT_LE(capped.cached_rows(), 2);
  EXPECT_EQ(unbounded.cached_rows(), rn.num_segments());
}

// One-way lattice: node (i,j) feeds a rightward and an upward street, so
// many pairs are reachable only one way and many not at all — exercising
// both the early-exit and the exhausted-frontier paths of the bounded
// point-to-point search.
RoadNetwork LatticeNetwork(int n) {
  RoadNetwork rn;
  std::vector<std::pair<Vec2, Vec2>> ends;
  const auto add = [&](Vec2 a, Vec2 b) {
    rn.AddSegment({a, b}, RoadLevel::kResidential);
    ends.push_back({a, b});
  };
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      const Vec2 p{100.0 * i, 100.0 * j};
      if (i + 1 < n) add(p, {100.0 * (i + 1), 100.0 * j});
      if (j + 1 < n) add(p, {100.0 * i, 100.0 * (j + 1)});
    }
  }
  for (size_t a = 0; a < ends.size(); ++a) {
    for (size_t b = 0; b < ends.size(); ++b) {
      if (a != b && ends[a].second.x == ends[b].first.x &&
          ends[a].second.y == ends[b].first.y) {
        rn.AddEdge(static_cast<int>(a), static_cast<int>(b));
      }
    }
  }
  rn.Build();
  return rn;
}

TEST(NetworkDistanceTest, EarlyExitPointToPointMatchesFullRows) {
  // Regression pin for the target-pruned PointToPoint: every answer —
  // reachable, unreachable, and same-segment-backwards — must equal the
  // distance derived from full cached Dijkstra rows.
  RoadNetwork rn = LatticeNetwork(5);
  NetworkDistance bounded(&rn);
  NetworkDistance reference(&rn);
  const int n = rn.num_segments();
  for (int a = 0; a < n; a += 3) {
    for (int b = 0; b < n; b += 2) {
      const double ra = 0.25, rb = 0.75;
      const double got = bounded.PointToPoint(a, ra, b, rb);
      double want;
      if (a == b) {
        want = (rb - ra) * rn.segment(a).length();
      } else {
        const double ss = reference.StartToStart(a, b);
        want = ss == NetworkDistance::kUnreachable
                   ? NetworkDistance::kUnreachable
                   : ss - ra * rn.segment(a).length() +
                         rb * rn.segment(b).length();
      }
      EXPECT_DOUBLE_EQ(got, want) << a << "->" << b;
    }
  }
  EXPECT_GT(bounded.bounded_searches(), 0);
}

TEST(NetworkDistanceTest, RepeatedBoundedMissesPromoteToCachedRow) {
  RoadNetwork rn = RingNetwork();
  NetworkDistance nd(&rn);
  EXPECT_EQ(nd.cached_rows(), 0);
  // First three single-pair queries from source 0 run target-pruned
  // searches without caching a row.
  for (int i = 0; i < 3; ++i) nd.PointToPoint(0, 0.1, 1 + i, 0.5);
  EXPECT_EQ(nd.cached_rows(), 0);
  EXPECT_EQ(nd.bounded_searches(), 3);
  // The fourth miss promotes the source to a full cached row...
  nd.PointToPoint(0, 0.1, 2, 0.5);
  EXPECT_EQ(nd.cached_rows(), 1);
  EXPECT_EQ(nd.bounded_searches(), 3);
  // ...and later queries from it are plain row-cache hits: no new row miss
  // and no new bounded search.
  const int64_t misses_before = nd.row_misses();
  EXPECT_DOUBLE_EQ(nd.PointToPoint(0, 0.0, 3, 0.0), 300.0);
  EXPECT_EQ(nd.row_misses(), misses_before);
  EXPECT_EQ(nd.bounded_searches(), 3);
}

TEST(NetworkDistanceTest, ConcurrentReadersMatchSerialReference) {
  // Four threads share one table capped below the segment count: rows are
  // published while other threads read them, and once the cap is full the
  // remaining sources take target-pruned searches. Every answer must equal
  // the serial, uncapped one.
  RoadNetwork rn = LatticeNetwork(5);
  const int n = rn.num_segments();
  const int cap = n / 4;
  NetworkDistance reference(&rn);
  std::vector<double> want_ss(n * n), want_pp(n * n);
  for (int a = 0; a < n; ++a) {
    for (int b = 0; b < n; ++b) {
      want_ss[a * n + b] = reference.StartToStart(a, b);
      want_pp[a * n + b] = reference.PointToPoint(a, 0.75, b, 0.25);
    }
  }

  constexpr int kThreads = 4;
  NetworkDistance shared(&rn, cap);
  std::vector<std::vector<double>> got_ss(kThreads, std::vector<double>(n * n));
  std::vector<std::vector<double>> got_pp(kThreads, std::vector<double>(n * n));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread starts a quarter of the pairs further on, and half of
      // them ask the point query first so it meets uncached sources.
      for (int k = 0; k < n * n; ++k) {
        const int idx = (k + t * n * n / kThreads) % (n * n);
        const int a = idx / n, b = idx % n;
        if (t % 2 == 0) {
          got_ss[t][idx] = shared.StartToStart(a, b);
          got_pp[t][idx] = shared.PointToPoint(a, 0.75, b, 0.25);
        } else {
          got_pp[t][idx] = shared.PointToPoint(a, 0.75, b, 0.25);
          got_ss[t][idx] = shared.StartToStart(a, b);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    for (int idx = 0; idx < n * n; ++idx) {
      EXPECT_EQ(got_ss[t][idx], want_ss[idx])
          << "thread " << t << ": " << idx / n << "->" << idx % n;
      EXPECT_EQ(got_pp[t][idx], want_pp[idx])
          << "thread " << t << ": " << idx / n << "->" << idx % n;
    }
  }
  EXPECT_LE(shared.cached_rows(), cap);
}

TEST(SubGraphTest, LocalIndexOf) {
  RoadNetwork rn = RingNetwork();
  RTree rtree = BuildSegmentRTree(rn);
  PointSubGraph sg = ExtractPointSubGraph(rn, rtree, {50, 5}, 60.0, 30.0);
  EXPECT_EQ(sg.LocalIndexOf(sg.seg_ids[0]), 0);
  EXPECT_EQ(sg.LocalIndexOf(9999), -1);
}

}  // namespace
}  // namespace rntraj
