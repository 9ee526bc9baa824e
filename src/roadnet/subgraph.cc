#include "src/roadnet/subgraph.h"

#include <cmath>
#include <unordered_map>
#include <utility>

namespace rntraj {

PointSubGraph ExtractPointSubGraph(const RoadNetwork& rn, const RTree& rtree,
                                   const Vec2& p, double delta, double gamma,
                                   int max_nodes) {
  return BuildPointSubGraph(rn, SegmentsWithinRadius(rn, rtree, p, delta),
                            gamma, max_nodes);
}

PointSubGraph ExtractPointSubGraph(const RoadNetwork& rn,
                                   const SegmentQuerySource& source,
                                   const Vec2& p, double delta, double gamma,
                                   int max_nodes) {
  // Sorted before BuildPointSubGraph keeps the nearest max_nodes.
  std::vector<NearbySegment> near = source.WithinRadius(p, delta);
  SortNearbySegments(&near);
  return BuildPointSubGraph(rn, std::move(near), gamma, max_nodes);
}

PointSubGraph BuildPointSubGraph(const RoadNetwork& rn,
                                 std::vector<NearbySegment> near, double gamma,
                                 int max_nodes) {
  PointSubGraph sg;
  if (static_cast<int>(near.size()) > max_nodes) near.resize(max_nodes);

  std::unordered_map<int, int> local;
  local.reserve(near.size());
  for (const auto& ns : near) {
    local.emplace(ns.seg_id, static_cast<int>(sg.seg_ids.size()));
    sg.seg_ids.push_back(ns.seg_id);
    sg.distances.push_back(ns.projection.distance);
    const double z = ns.projection.distance / gamma;
    sg.weights.push_back(std::exp(-z * z));
  }
  // Induced edge set: follow the global graph between selected segments.
  for (size_t i = 0; i < sg.seg_ids.size(); ++i) {
    for (int to : rn.OutEdges(sg.seg_ids[i])) {
      auto it = local.find(to);
      if (it != local.end()) {
        sg.local_edges.emplace_back(static_cast<int>(i), it->second);
      }
    }
  }
  return sg;
}

}  // namespace rntraj
