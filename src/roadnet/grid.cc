#include "src/roadnet/grid.h"

#include <algorithm>
#include <cmath>

namespace rntraj {

namespace {

/// floor(v) clamped to [0, n - 1]. The clamp runs in floating point: casting
/// a far-off (or NaN) coordinate to int first is undefined behaviour. NaN
/// maps to 0.
int ClampedFloor(double v, int n) {
  const double f = std::floor(v);
  if (!(f > 0.0)) return 0;
  return f < n - 1 ? static_cast<int>(f) : n - 1;
}

}  // namespace

GridMapping::GridMapping(const BBox& bounds, double cell_size)
    : bounds_(bounds.Buffered(cell_size * 0.5)), cell_size_(cell_size) {
  RNTRAJ_CHECK_MSG(cell_size > 0.0, "cell_size must be positive");
  cols_ = std::max(1, static_cast<int>(std::ceil(bounds_.width() / cell_size_)));
  rows_ = std::max(1, static_cast<int>(std::ceil(bounds_.height() / cell_size_)));
}

GridMapping::Cell GridMapping::CellOf(const Vec2& p) const {
  return {ClampedFloor((p.x - bounds_.min_x) / cell_size_, cols_),
          ClampedFloor((p.y - bounds_.min_y) / cell_size_, rows_)};
}

Vec2 GridMapping::CellCenter(const Cell& c) const {
  return {bounds_.min_x + (c.gx + 0.5) * cell_size_,
          bounds_.min_y + (c.gy + 0.5) * cell_size_};
}

std::vector<int> GridMapping::GridSequence(const Polyline& line) const {
  // Sample the arc densely (half-cell steps) and deduplicate consecutive
  // cells; robust for arbitrary polylines and exact enough at 50 m cells.
  const int steps =
      std::max(1, static_cast<int>(std::ceil(line.length() / (cell_size_ * 0.5))));
  std::vector<int> seq;
  seq.reserve(steps + 1);
  for (int i = 0; i <= steps; ++i) {
    const double ratio = static_cast<double>(i) / steps;
    const int cell = CellIndexOf(line.PointAt(ratio));
    if (seq.empty() || seq.back() != cell) seq.push_back(cell);
  }
  return seq;
}

}  // namespace rntraj
