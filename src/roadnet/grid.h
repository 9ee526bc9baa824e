#ifndef RNTRAJ_ROADNET_GRID_H_
#define RNTRAJ_ROADNET_GRID_H_

#include <vector>

#include "src/geo/geo.h"

/// \file grid.h
/// Equal-sized grid partition of the road-network area (paper §IV-B: 50 m x
/// 50 m cells). Provides the GPS-point -> cell lookup used by the encoders
/// and the segment -> grid-sequence rasterisation consumed by GridGNN.

namespace rntraj {

/// Maps planar points to cells of an m x n grid covering a bounding box.
class GridMapping {
 public:
  /// Covers `bounds` (plus a small margin) with square cells of `cell_size`
  /// meters.
  GridMapping(const BBox& bounds, double cell_size);

  /// Grid cell coordinate: gx indexes columns (x axis), gy rows (y axis).
  struct Cell {
    int gx = 0;
    int gy = 0;
    bool operator==(const Cell&) const = default;
  };

  int cols() const { return cols_; }
  int rows() const { return rows_; }
  int num_cells() const { return rows_ * cols_; }
  double cell_size() const { return cell_size_; }

  /// Cell containing `p`, clamped to the grid extent; a NaN coordinate maps
  /// to index 0 on its axis.
  Cell CellOf(const Vec2& p) const;

  /// Flattened index of a cell (row-major).
  int CellIndex(const Cell& c) const { return c.gy * cols_ + c.gx; }

  /// Flattened index of the cell containing `p`.
  int CellIndexOf(const Vec2& p) const { return CellIndex(CellOf(p)); }

  /// Centre point of a cell.
  Vec2 CellCenter(const Cell& c) const;

  /// Ordered sequence of distinct flattened cell indices that a polyline
  /// passes through (paper: the grid sequence S_i of road segment e_i).
  /// Consecutive duplicates are removed; the sequence always has >= 1 entry.
  std::vector<int> GridSequence(const Polyline& line) const;

 private:
  BBox bounds_;
  double cell_size_;
  int cols_;
  int rows_;
};

}  // namespace rntraj

#endif  // RNTRAJ_ROADNET_GRID_H_
