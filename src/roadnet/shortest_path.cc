#include "src/roadnet/shortest_path.h"

#include <algorithm>
#include <memory>
#include <queue>

namespace rntraj {

NetworkDistance::NetworkDistance(const RoadNetwork* rn, int max_cached_rows)
    : rn_(rn),
      max_rows_(max_cached_rows),
      rows_(rn->num_segments()),
      bounded_misses_(rn->num_segments()) {}

NetworkDistance::~NetworkDistance() {
  for (auto& slot : rows_) delete slot.load(std::memory_order_relaxed);
}

std::unique_ptr<NetworkDistance::DistRow> NetworkDistance::ComputeRow(
    int src) const {
  const int n = rn_->num_segments();
  auto dist = std::make_unique<DistRow>(n, kUnreachable);
  using Item = std::pair<double, int>;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> pq;
  (*dist)[src] = 0.0;
  pq.push({0.0, src});
  while (!pq.empty()) {
    auto [d, u] = pq.top();
    pq.pop();
    if (d > (*dist)[u]) continue;
    const double leave_cost = rn_->segment(u).length();
    for (int v : rn_->OutEdges(u)) {
      const double nd = d + leave_cost;
      if (nd < (*dist)[v]) {
        (*dist)[v] = nd;
        pq.push({nd, v});
      }
    }
  }
  return dist;
}

bool NetworkDistance::ReserveRow() const {
  int taken = reserved_.load(std::memory_order_relaxed);
  do {
    if (max_rows_ > 0 && taken >= max_rows_) return false;
  } while (!reserved_.compare_exchange_weak(taken, taken + 1,
                                            std::memory_order_relaxed));
  return true;
}

const NetworkDistance::DistRow* NetworkDistance::PublishRow(
    int src, std::unique_ptr<DistRow> row) const {
  const DistRow* winner = nullptr;
  if (rows_[src].compare_exchange_strong(winner, row.get(),
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
    return row.release();  // owned by the slot until the destructor
  }
  // Another thread published this source first: hand back our slot of the
  // cap; our duplicate row is freed on return.
  reserved_.fetch_sub(1, std::memory_order_relaxed);
  return winner;
}

const NetworkDistance::DistRow* NetworkDistance::Row(int src) const {
  if (const DistRow* row = rows_[src].load(std::memory_order_acquire)) {
    return row;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  // The cap is reserved before the Dijkstra, so a full table never builds a
  // row it cannot keep. The Dijkstra runs outside any lock: concurrent
  // misses on distinct sources run in parallel (duplicated work on the same
  // source is possible but harmless; PublishRow keeps one).
  if (!ReserveRow()) return nullptr;
  return PublishRow(src, ComputeRow(src));
}

double NetworkDistance::StartToStart(int from, int to) const {
  if (const DistRow* row = Row(from)) return (*row)[to];
  return TargetedSearch(from, to);
}

double NetworkDistance::TargetedSearch(int from, int to) const {
  // Same cost model as ComputeRow, but the heap stops as soon as the target
  // is settled: the first pop of `to` carries its final distance, so point
  // queries explore only the ball around the source that reaches the target
  // instead of the whole graph.
  const int n = rn_->num_segments();
  auto dist = std::make_unique<DistRow>(n, kUnreachable);
  using Item = std::pair<double, int>;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> pq;
  (*dist)[from] = 0.0;
  pq.push({0.0, from});
  while (!pq.empty()) {
    auto [d, u] = pq.top();
    pq.pop();
    if (u == to) return d;  // settled: d is final
    if (d > (*dist)[u]) continue;
    const double leave_cost = rn_->segment(u).length();
    for (int v : rn_->OutEdges(u)) {
      const double nd = d + leave_cost;
      if (nd < (*dist)[v]) {
        (*dist)[v] = nd;
        pq.push({nd, v});
      }
    }
  }
  // Frontier exhausted without settling `to` (unreachable target): the run
  // did a full Dijkstra's work, so `dist` IS the complete source row —
  // cache it instead of discarding it, exactly as Row() would have, when
  // the cap has room.
  if (!ReserveRow()) return (*dist)[to];
  return (*PublishRow(from, std::move(dist)))[to];
}

double NetworkDistance::BoundedStartToStart(int from, int to) const {
  if (const DistRow* row = rows_[from].load(std::memory_order_acquire)) {
    return (*row)[to];
  }
  // Miss: count it; frequent sources graduate to a full cached row so
  // many-targets-per-source workloads (HMM transitions, metric sweeps) keep
  // their amortised one-Dijkstra-per-source cost. A full cap leaves nothing
  // to graduate to, so the count is left alone.
  const bool full =
      max_rows_ > 0 && reserved_.load(std::memory_order_relaxed) >= max_rows_;
  if (!full && bounded_misses_[from].fetch_add(1, std::memory_order_relaxed) >=
                   kPromoteMisses - 1) {
    if (const DistRow* row = Row(from)) return (*row)[to];
  }
  bounded_.fetch_add(1, std::memory_order_relaxed);
  return TargetedSearch(from, to);
}

double NetworkDistance::CycleThrough(int seg) const {
  const double len = rn_->segment(seg).length();
  double best = kUnreachable;
  // Cheapest cycle = len(seg) + min over successors v of dist(v -> seg);
  // each leg is a single-pair query, so the bounded search applies.
  for (int v : rn_->OutEdges(seg)) {
    const double back = BoundedStartToStart(v, seg);
    if (back < kUnreachable) best = std::min(best, len + back);
  }
  return best;
}

double NetworkDistance::PointToPoint(int seg_a, double ratio_a, int seg_b,
                                     double ratio_b) const {
  const double len_a = rn_->segment(seg_a).length();
  const double len_b = rn_->segment(seg_b).length();
  if (seg_a == seg_b) {
    if (ratio_b >= ratio_a) return (ratio_b - ratio_a) * len_a;
    const double cycle = CycleThrough(seg_a);
    if (cycle == kUnreachable) return kUnreachable;
    return cycle - ratio_a * len_a + ratio_b * len_a;
  }
  const double ss = BoundedStartToStart(seg_a, seg_b);
  if (ss == kUnreachable) return kUnreachable;
  return ss - ratio_a * len_a + ratio_b * len_b;
}

std::vector<int> ShortestSegmentPath(const RoadNetwork& rn, int from, int to) {
  const int n = rn.num_segments();
  std::vector<double> dist(n, NetworkDistance::kUnreachable);
  std::vector<int> parent(n, -1);
  using Item = std::pair<double, int>;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> pq;
  dist[from] = 0.0;
  pq.push({0.0, from});
  while (!pq.empty()) {
    auto [d, u] = pq.top();
    pq.pop();
    if (u == to) break;
    if (d > dist[u]) continue;
    const double leave_cost = rn.segment(u).length();
    for (int v : rn.OutEdges(u)) {
      const double nd = d + leave_cost;
      if (nd < dist[v]) {
        dist[v] = nd;
        parent[v] = u;
        pq.push({nd, v});
      }
    }
  }
  if (from != to && dist[to] == NetworkDistance::kUnreachable) return {};
  std::vector<int> path;
  for (int cur = to; cur != -1; cur = parent[cur]) {
    path.push_back(cur);
    if (cur == from) break;
  }
  std::reverse(path.begin(), path.end());
  if (path.front() != from) return {};
  return path;
}

double NetworkDistance::Symmetric(int seg_a, double ratio_a, int seg_b,
                                  double ratio_b) const {
  const double ab = PointToPoint(seg_a, ratio_a, seg_b, ratio_b);
  const double ba = PointToPoint(seg_b, ratio_b, seg_a, ratio_a);
  const double best = std::min(ab, ba);
  if (best < kUnreachable) return best;
  return Distance(rn_->PointAt(seg_a, ratio_a), rn_->PointAt(seg_b, ratio_b));
}

}  // namespace rntraj
