#ifndef RNTRAJ_SERVE_ROADNET_CACHE_H_
#define RNTRAJ_SERVE_ROADNET_CACHE_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "src/common/write_once_slots.h"
#include "src/roadnet/grid.h"
#include "src/roadnet/road_network.h"
#include "src/roadnet/rtree.h"

/// \file roadnet_cache.h
/// The shared roadnet query cache of the serving subsystem. Radius queries
/// (sub-graph generation at delta, decoder constraint masks at mask_radius /
/// spatial_prior_radius) dominate per-request roadnet time; their R-tree
/// traversals repeat heavily across requests because real traffic has
/// spatial locality. The cache keys *candidate segment sets* by grid cell:
/// for a cell c and radius r it stores every segment whose bounding box
/// intersects the (r + half-cell-diagonal)-buffered cell centre — a provable
/// superset of any exact radius-r query issued from inside c. Per query only
/// the exact projection + filter runs, so a cached answer holds exactly the
/// segments and distances SegmentsWithinRadius gives, bit for bit: caching
/// never changes model outputs. Only the order differs: a hit lists its
/// segments by ascending id, with no distance sort (SegmentQuerySource).
///
/// The key space (grid cells × served radii) is fixed at construction, so
/// the cache is a write-once table with one slot per key: nothing is ever
/// evicted, and a hit is one acquire load.

namespace rntraj {
namespace serve {

/// Telemetry counters (monotonic).
struct RoadnetCacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  /// Queries answered by the direct path: unknown radius, point outside the
  /// grid, or an empty filtered result (radius-expansion semantics).
  int64_t fallbacks = 0;
  int64_t entries = 0;  ///< Resident candidate sets (winning publishes).
};

/// Grid-cell-keyed write-once table of radius-query candidates, exact by
/// construction. Thread-safe and lock-free; one instance is shared by every
/// serving session.
class CellCandidateCache : public SegmentQuerySource {
 public:
  /// `radii` holds the radii the cache serves (a model's delta and the
  /// decoder's mask/prior radii); queries at any other radius fall through
  /// to the direct R-tree path.
  CellCandidateCache(const RoadNetwork* rn, const RTree* rtree,
                     const GridMapping* grid, std::vector<double> radii);

  /// The exact SegmentsWithinRadius hit set, never empty. A cache hit lists
  /// it by ascending segment id; the direct path (see RoadnetCacheStats::
  /// fallbacks) in SegmentsWithinRadius order.
  std::vector<NearbySegment> WithinRadius(const Vec2& p,
                                          double radius) const override;

  /// Warms the (cell, radius) entries covering `points` in one pass, with
  /// the candidate computation chunk-parallelised over the thread pool.
  /// Sessions call this per micro-batch so concurrent requests share the
  /// R-tree work for overlapping areas.
  void Prefetch(const std::vector<Vec2>& points, double radius) const;

  RoadnetCacheStats stats() const;

 private:
  /// One cached candidate: segment id plus its geometry bounds, so queries
  /// can prefilter with the same bbox-intersection test the R-tree leaf pass
  /// applies — cached answers then project exactly the segments the direct
  /// path projects (no conservative-radius overhead).
  struct CandidateBox {
    int seg_id;
    BBox box;
  };
  using Candidates = std::vector<CandidateBox>;

  /// Index into radii_ for an exact radius match, -1 otherwise.
  int RadiusSlot(double radius) const;

  /// Flattened index of the cell whose centre lies within half a diagonal
  /// of `p`, -1 when none does: a point outside the grid (clamped to a far
  /// border cell) or with a NaN coordinate.
  int CellContaining(const Vec2& p) const;

  /// Table slot of (cell, radius slot); cells are dense grid indices.
  size_t KeyOf(int cell, int slot) const {
    return static_cast<size_t>(cell) * radii_.size() + slot;
  }

  /// Computes the conservative candidates for (cell, slot), in ascending
  /// segment id, and publishes them; returns the resident ones (ours, or a
  /// racing winner's). Counts one miss, and one entry when ours win.
  const Candidates& Fill(int cell, int slot) const;

  const RoadNetwork* rn_;
  const RTree* rtree_;
  const GridMapping* grid_;
  std::vector<double> radii_;
  double half_diag_;  ///< Half the cell diagonal: the snap-safety margin.
  mutable WriteOnceSlots<Candidates> table_;
  mutable std::atomic<int64_t> hits_{0};
  mutable std::atomic<int64_t> misses_{0};
  mutable std::atomic<int64_t> fallbacks_{0};
  mutable std::atomic<int64_t> entries_{0};
};

}  // namespace serve
}  // namespace rntraj

#endif  // RNTRAJ_SERVE_ROADNET_CACHE_H_
