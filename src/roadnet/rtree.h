#ifndef RNTRAJ_ROADNET_RTREE_H_
#define RNTRAJ_ROADNET_RTREE_H_

#include <utility>
#include <vector>

#include "src/geo/geo.h"
#include "src/roadnet/road_network.h"

/// \file rtree.h
/// Static STR-packed R-tree over rectangles (Guttman [51] / Leutenegger STR
/// packing). Used by Sub-Graph Generation (paper §IV-C) and HMM candidate
/// search to find road segments near a GPS point.

namespace rntraj {

/// Bulk-loaded R-tree; immutable after construction (and therefore safe to
/// query from any number of threads concurrently).
class RTree {
 public:
  /// Builds over `boxes`; result ids refer to positions in this vector.
  explicit RTree(const std::vector<BBox>& boxes, int node_capacity = 8);

  /// Reusable traversal scratch for allocation-free repeated queries.
  struct QueryScratch {
    std::vector<int> stack;
  };

  /// Ids of all boxes intersecting the query box.
  std::vector<int> Query(const BBox& query) const;

  /// Appends ids of all boxes intersecting `query` to `*out` (not cleared),
  /// reusing `*scratch` for the traversal stack. The allocation-free variant
  /// for hot loops (batched radius queries, serving caches).
  void QueryInto(const BBox& query, QueryScratch* scratch,
                 std::vector<int>* out) const;

  int size() const { return num_items_; }

 private:
  struct Node {
    BBox box;
    bool leaf = false;
    /// Children node indices (internal) or item ids (leaf).
    std::vector<int> entries;
  };

  /// Builds one level over entry indices; returns created node indices.
  std::vector<int> PackLevel(std::vector<int> entry_ids, bool leaf_level);

  std::vector<Node> nodes_;
  std::vector<BBox> item_boxes_;
  int root_ = -1;
  int num_items_ = 0;
  int capacity_ = 8;
};

/// A road segment near a query point together with its exact projection.
struct NearbySegment {
  int seg_id = -1;
  PointProjection projection;
};

/// All segments whose exact geometric distance to `p` is at most `radius`,
/// sorted by ascending distance (ties broken by segment id, so the ordering
/// is deterministic; see SortNearbySegments). When nothing is
/// inside the radius the search expands (doubling) until at least one segment
/// is found, so the result is never empty on a non-empty network — the
/// behaviour Sub-Graph Generation needs for far-off noisy points.
std::vector<NearbySegment> SegmentsWithinRadius(const RoadNetwork& rn,
                                                const RTree& rtree, const Vec2& p,
                                                double radius);

/// Canonical ordering of radius-query results: ascending exact distance,
/// ties broken by segment id. Exposed so callers of a SegmentQuerySource
/// that need the nearest first (sub-graph truncation) can restore
/// SegmentsWithinRadius output bit for bit.
void SortNearbySegments(std::vector<NearbySegment>* segs);

/// Radius queries for a batch of points, parallelised over the shared thread
/// pool with per-chunk scratch reuse (the allocation churn of the one-point
/// entry point is the measurable cost at batch sizes; see
/// BM_RTreeRadiusQueryBatch). `out[i]` corresponds to `points[i]` and is
/// element-wise identical to SegmentsWithinRadius(rn, rtree, points[i], r).
std::vector<std::vector<NearbySegment>> BatchSegmentsWithinRadius(
    const RoadNetwork& rn, const RTree& rtree, const std::vector<Vec2>& points,
    double radius);

/// Source of radius queries against one road network. Models without one
/// installed answer straight from the R-tree; the serving subsystem
/// installs a grid-cell-keyed candidate cache (src/serve/roadnet_cache.h)
/// whose results are exact — models call through this interface so online
/// sessions can share hot roadnet work across requests without changing
/// outputs.
class SegmentQuerySource {
 public:
  virtual ~SegmentQuerySource() = default;

  /// The hit set of SegmentsWithinRadius, bit for bit (never empty on a
  /// non-empty network), in unspecified order: callers that need the
  /// canonical order apply SortNearbySegments.
  virtual std::vector<NearbySegment> WithinRadius(const Vec2& p,
                                                  double radius) const = 0;
};

/// Builds an R-tree over all segment geometries of a road network.
RTree BuildSegmentRTree(const RoadNetwork& rn);

}  // namespace rntraj

#endif  // RNTRAJ_ROADNET_RTREE_H_
