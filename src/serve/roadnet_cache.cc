#include "src/serve/roadnet_cache.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "src/common/check.h"
#include "src/common/thread_pool.h"

namespace rntraj {
namespace serve {

namespace {

/// Tolerance for the point-in-cell safety check (CellOf clamps points
/// outside the grid to border cells, where the centre can be arbitrarily far
/// from the point and the conservative radius no longer covers the query).
constexpr double kCellSlack = 1e-6;

}  // namespace

CellCandidateCache::CellCandidateCache(const RoadNetwork* rn,
                                       const RTree* rtree,
                                       const GridMapping* grid,
                                       std::vector<double> radii)
    : rn_(rn),
      rtree_(rtree),
      grid_(grid),
      radii_(std::move(radii)),
      half_diag_(grid->cell_size() * std::sqrt(0.5)),
      table_(static_cast<size_t>(grid->num_cells()) * radii_.size()) {
  RNTRAJ_CHECK(!radii_.empty());
}

int CellCandidateCache::RadiusSlot(double radius) const {
  for (size_t i = 0; i < radii_.size(); ++i) {
    if (radii_[i] == radius) return static_cast<int>(i);
  }
  return -1;
}

int CellCandidateCache::CellContaining(const Vec2& p) const {
  const GridMapping::Cell c = grid_->CellOf(p);
  // Written so that a NaN distance fails the test.
  if (!(Distance(p, grid_->CellCenter(c)) <= half_diag_ + kCellSlack)) {
    return -1;
  }
  return grid_->CellIndex(c);
}

const CellCandidateCache::Candidates& CellCandidateCache::Fill(
    int cell, int slot) const {
  // Any segment within radius r of *any* point p in the cell satisfies
  // dist(centre, seg) <= r + |p - centre| <= r + half_diag, and a segment
  // within d of a point has its bounding box intersecting the d-buffered
  // point box — so this query returns a superset of every exact radius-r
  // result issued from inside the cell. The R-tree traversal runs outside
  // any lock; a racer on the same key computes the same candidates, and
  // the publish keeps one copy.
  const GridMapping::Cell c{cell % grid_->cols(), cell / grid_->cols()};
  const BBox query = BBox::FromPoint(grid_->CellCenter(c))
                         .Buffered(radii_[slot] + half_diag_);
  // Ascending segment id, so a hit lists its segments in id order.
  std::vector<int> ids = rtree_->Query(query);
  std::sort(ids.begin(), ids.end());
  auto value = std::make_unique<Candidates>();
  value->reserve(ids.size());
  for (int id : ids) value->push_back({id, rn_->segment(id).geometry.bounds()});
  misses_.fetch_add(1, std::memory_order_relaxed);
  const auto [resident, won] =
      table_.Publish(KeyOf(cell, slot), std::move(value));
  if (won) entries_.fetch_add(1, std::memory_order_relaxed);
  return *resident;
}

std::vector<NearbySegment> CellCandidateCache::WithinRadius(
    const Vec2& p, double radius) const {
  const int slot = RadiusSlot(radius);
  const int cell = slot >= 0 ? CellContaining(p) : -1;
  if (cell >= 0) {
    const Candidates* cached = table_.Get(KeyOf(cell, slot));
    if (cached != nullptr) {
      hits_.fetch_add(1, std::memory_order_relaxed);
    } else {
      cached = &Fill(cell, slot);
    }
    // Same bbox prefilter as the R-tree leaf pass: project exactly the
    // segments the direct path would project.
    const BBox qbox = BBox::FromPoint(p).Buffered(radius);
    std::vector<NearbySegment> out;
    out.reserve(cached->size());
    for (const CandidateBox& cand : *cached) {
      if (!cand.box.Intersects(qbox)) continue;
      PointProjection proj = rn_->Project(p, cand.seg_id);
      if (proj.distance <= radius) out.push_back({cand.seg_id, proj});
    }
    if (!out.empty()) return out;
    // Fall through: the direct path's radius expansion must kick in.
  }
  fallbacks_.fetch_add(1, std::memory_order_relaxed);
  return SegmentsWithinRadius(*rn_, *rtree_, p, radius);
}

void CellCandidateCache::Prefetch(const std::vector<Vec2>& points,
                                  double radius) const {
  const int slot = RadiusSlot(radius);
  if (slot < 0) return;
  // Distinct unfilled cells covering the batch.
  std::vector<int> missing;
  for (const Vec2& p : points) {
    const int cell = CellContaining(p);
    if (cell >= 0 && table_.Get(KeyOf(cell, slot)) == nullptr) {
      missing.push_back(cell);
    }
  }
  std::sort(missing.begin(), missing.end());
  missing.erase(std::unique(missing.begin(), missing.end()), missing.end());

  // One R-tree sweep for the whole batch, chunked across the pool.
  ParallelFor(0, static_cast<int64_t>(missing.size()), /*grain=*/4,
              [&](int64_t begin, int64_t end) {
                for (int64_t i = begin; i < end; ++i) Fill(missing[i], slot);
              });
}

RoadnetCacheStats CellCandidateCache::stats() const {
  RoadnetCacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.fallbacks = fallbacks_.load(std::memory_order_relaxed);
  s.entries = entries_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace serve
}  // namespace rntraj
