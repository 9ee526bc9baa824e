#ifndef RNTRAJ_ROADNET_SHORTEST_PATH_H_
#define RNTRAJ_ROADNET_SHORTEST_PATH_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "src/common/write_once_slots.h"
#include "src/roadnet/road_network.h"

/// \file shortest_path.h
/// Travel distances along the directed road network, used by the HMM
/// transition model and the network-distance MAE/RMSE metrics (paper §VI-A2
/// adopts road-network distance for the location error).
///
/// Distance model: the cost of the path e_i -> k_1 -> ... -> k_m -> e_j is the
/// full length of every segment left behind (e_i and the k_t). With
/// `StartToStart(i, j)` = min over paths of sum(len(u_t), t < last), the
/// travel distance from point (e_i, r_a) to point (e_j, r_b) is
///   StartToStart(i, j) - r_a len_i + r_b len_j        (i != j)
///   (r_b - r_a) len_i                                  (i == j, r_b >= r_a)
///   CycleThrough(i) - r_a len_i + r_b len_i            (i == j, r_b < r_a).

namespace rntraj {

/// Lazy all-pairs network distances with per-source Dijkstra row caching.
///
/// Thread-safe and write-once: the table holds one WriteOnceSlots row slot
/// per source segment, sized at construction. A row is computed outside any
/// lock and published by one compare-and-swap (a racer that loses frees its
/// copy and uses the winner's row). A hit is therefore one acquire load, so
/// concurrent readers (serving sessions, the data-parallel trainer) never
/// contend on lookups.
///
/// `max_cached_rows` > 0 is an admission cap, not an eviction policy: a row
/// takes a slot from an atomic count before it is computed, and once the
/// count is full every uncached source is answered by a target-pruned search
/// that builds no row. There is no eviction because no served city exceeds
/// the serving cap (1024 rows against 270 and 848 segments in the serving
/// benchmarks), so a replacement policy would only add shared writes to the
/// hit path. The default 0 keeps every row, matching the offline pipelines
/// that sweep all sources anyway.
class NetworkDistance {
 public:
  explicit NetworkDistance(const RoadNetwork* rn, int max_cached_rows = 0);

  NetworkDistance(const NetworkDistance&) = delete;
  NetworkDistance& operator=(const NetworkDistance&) = delete;

  static constexpr double kUnreachable = std::numeric_limits<double>::infinity();

  /// Shortest travel distance from the start of segment `from` to the start
  /// of segment `to` (0 when from == to). Computes (and caches) the full
  /// source row while the cap has room — the all-pairs sweep primitive.
  double StartToStart(int from, int to) const;

  /// Shortest strictly-positive cycle leaving and re-entering segment `seg`.
  double CycleThrough(int seg) const;

  /// Directed travel distance between two on-network points.
  double PointToPoint(int seg_a, double ratio_a, int seg_b, double ratio_b) const;

  /// Symmetrised distance used by MAE/RMSE; falls back to the planar distance
  /// when the network offers no route in either direction.
  double Symmetric(int seg_a, double ratio_a, int seg_b, double ratio_b) const;

  /// Number of Dijkstra source rows cached or being computed (for
  /// tests/benchmarks); never exceeds a nonzero cap.
  int cached_rows() const { return reserved_.load(std::memory_order_relaxed); }

  /// Full-row lookups that found no cached row (for serving telemetry):
  /// each computed a row or, with the cap full, ran a target-pruned search.
  int64_t row_misses() const { return misses_.load(std::memory_order_relaxed); }

  /// Target-pruned Dijkstra runs taken by PointToPoint/CycleThrough on row
  /// misses (for tests/telemetry).
  int64_t bounded_searches() const {
    return bounded_.load(std::memory_order_relaxed);
  }

 private:
  using DistRow = std::vector<double>;

  /// Single-pair distance with an early-exit bound: a cached row answers
  /// immediately; otherwise a Dijkstra that stops the heap as soon as `to`
  /// is settled (instead of exhausting the frontier). Repeated misses on one
  /// source (kPromoteMisses) promote it to a full cached row while the cap
  /// has room, preserving the amortised one-Dijkstra-per-source cost of
  /// all-pairs sweeps.
  double BoundedStartToStart(int from, int to) const;

  /// The early-exit Dijkstra behind BoundedStartToStart. When the target is
  /// settled early the partial state is discarded (that is the saving); when
  /// the frontier exhausts first (unreachable target) the run has done a
  /// full row's work, so the completed row is cached as Row() would.
  double TargetedSearch(int from, int to) const;

  /// Bounded misses on one source before it graduates to a full Row().
  static constexpr int kPromoteMisses = 4;

  /// The cached row of `src`, computing and publishing it on a miss; null
  /// when the row is uncached and the cap is full.
  const DistRow* Row(int src) const;
  /// Takes one slot of the admission cap; false when it is full.
  bool ReserveRow() const;
  /// Publishes a row computed under a reserved slot; returns the row that
  /// holds the slot (ours, or the winner's when another thread got there
  /// first, in which case our reservation is given back).
  const DistRow* PublishRow(int src, std::unique_ptr<DistRow> row) const;

  const RoadNetwork* rn_;
  const int max_rows_;
  /// One slot per source: null until its row is published.
  mutable WriteOnceSlots<DistRow> rows_;
  /// Bounded misses per source, counted towards promotion.
  mutable std::vector<std::atomic<uint8_t>> bounded_misses_;
  mutable std::atomic<int> reserved_{0};
  mutable std::atomic<int64_t> misses_{0};
  mutable std::atomic<int64_t> bounded_{0};
};

/// Shortest (by travelled length) segment sequence from `from` to `to`,
/// inclusive of both endpoints; empty when unreachable. Used by the route
/// sampler (vehicles drive purposeful shortest-ish routes) and by route
/// analysis tooling.
std::vector<int> ShortestSegmentPath(const RoadNetwork& rn, int from, int to);

}  // namespace rntraj

#endif  // RNTRAJ_ROADNET_SHORTEST_PATH_H_
