#ifndef RNTRAJ_ROADNET_SUBGRAPH_H_
#define RNTRAJ_ROADNET_SUBGRAPH_H_

#include <utility>
#include <vector>

#include "src/roadnet/road_network.h"
#include "src/roadnet/rtree.h"

/// \file subgraph.h
/// Sub-Graph Generation (paper §IV-C): every GPS point is represented by the
/// weighted directed sub-graph of road segments within delta meters, with
/// node weights omega(e, p) = exp(-dist^2(e, p) / gamma^2) (paper Eq. (5)).

namespace rntraj {

/// The weighted sub-graph of the road network around one GPS point.
struct PointSubGraph {
  /// Global segment ids, ordered by ascending distance (local index = order).
  std::vector<int> seg_ids;
  /// Induced edges in local indices: E_p = (V_p x V_p) intersect E.
  std::vector<std::pair<int, int>> local_edges;
  /// Exact point-to-segment distances (meters), aligned with seg_ids.
  std::vector<double> distances;
  /// omega(e, p) weights, aligned with seg_ids.
  std::vector<double> weights;

  int size() const { return static_cast<int>(seg_ids.size()); }

  /// Local index of a global segment id, or -1 when absent.
  int LocalIndexOf(int seg_id) const {
    for (size_t i = 0; i < seg_ids.size(); ++i) {
      if (seg_ids[i] == seg_id) return static_cast<int>(i);
    }
    return -1;
  }
};

/// Extracts the weighted sub-graph for a GPS point. `delta` is the receptive
/// field (paper: 400 m), `gamma` the weight length scale (paper: 30 m).
/// `max_nodes` caps the sub-graph at the closest segments to bound cost.
PointSubGraph ExtractPointSubGraph(const RoadNetwork& rn, const RTree& rtree,
                                   const Vec2& p, double delta, double gamma,
                                   int max_nodes = 64);

/// Same extraction answering the radius query through `source` instead of the
/// raw R-tree — the hook online inference uses to share cached roadnet work
/// across requests (the cache is exact, so outputs are identical). The
/// source's hits come in any order; they are sorted here.
PointSubGraph ExtractPointSubGraph(const RoadNetwork& rn,
                                   const SegmentQuerySource& source,
                                   const Vec2& p, double delta, double gamma,
                                   int max_nodes = 64);

/// Builds the sub-graph from an already-answered radius query (`near` must be
/// SegmentsWithinRadius output for (p, delta): sorted, non-empty).
PointSubGraph BuildPointSubGraph(const RoadNetwork& rn,
                                 std::vector<NearbySegment> near, double gamma,
                                 int max_nodes);

}  // namespace rntraj

#endif  // RNTRAJ_ROADNET_SUBGRAPH_H_
