#ifndef RNTRAJ_SIM_DATASET_H_
#define RNTRAJ_SIM_DATASET_H_

#include <memory>
#include <string>
#include <vector>

#include "src/roadnet/grid.h"
#include "src/roadnet/road_network.h"
#include "src/roadnet/rtree.h"
#include "src/roadnet/shortest_path.h"
#include "src/sim/city.h"
#include "src/sim/simulate.h"
#include "src/traj/resample.h"
#include "src/traj/trajectory.h"

/// \file dataset.h
/// End-to-end dataset construction: synthetic city, simulated ground-truth
/// trajectories, noisy raw observations, low-sample inputs, and the shared
/// spatial indexes every model consumes. One Dataset mirrors one row of the
/// paper's Table II (at laptop scale).

namespace rntraj {

/// One supervised example for trajectory recovery.
struct TrajectorySample {
  /// Stable id used by model-side memo caches. Negative ids mark *ephemeral*
  /// samples (online serving requests): models must compute per-call scratch
  /// for them instead of memoising, so request streams cannot grow the
  /// caches without bound or collide on recycled ids.
  int64_t uid = 0;
  MatchedTrajectory truth;     ///< Map-matched ground truth at eps_rho.
  RawTrajectory raw_noisy;     ///< Noisy observation of every truth point.
  RawTrajectory input;         ///< Low-sample model input (every k-th point).
  std::vector<int> input_indices;  ///< Positions of input points in `truth`.
};

/// Builds an ephemeral (uid = -1) sample for online inference: `input` plus
/// the target timestamp grid is everything Recover is allowed to read — the
/// truth points carry timestamps only (seg_id = -1). `input_indices[i]` is
/// the position of input point i in the target grid.
TrajectorySample MakeEphemeralSample(RawTrajectory input,
                                     std::vector<int> input_indices,
                                     const std::vector<double>& target_times);

/// Everything needed to build one dataset.
struct DatasetConfig {
  std::string name = "city";
  CityConfig city;
  double grid_cell_size = 50.0;  ///< Paper: 50 m x 50 m cells.
  int keep_every = 8;            ///< 8 -> 12.5% kept; 16 -> 6.25% kept.
  GpsNoiseConfig noise;
  SimulatorConfig sim;
  int num_train = 200;
  int num_val = 40;
  int num_test = 60;
  uint64_t seed = 7;
};

/// An immutable bundle of road network, indexes and splits. Non-movable:
/// `netdist` and `rtree` hold pointers into the owned road network.
class Dataset {
 public:
  explicit Dataset(const DatasetConfig& config);

  Dataset(const Dataset&) = delete;
  Dataset& operator=(const Dataset&) = delete;

  const DatasetConfig& config() const { return config_; }
  const RoadNetwork& roadnet() const { return roadnet_; }
  const GridMapping& grid() const { return grid_; }
  const RTree& rtree() const { return rtree_; }
  const NetworkDistance& netdist() const { return netdist_; }

  const std::vector<TrajectorySample>& train() const { return train_; }
  const std::vector<TrajectorySample>& val() const { return val_; }
  const std::vector<TrajectorySample>& test() const { return test_; }

  /// Average raw sample interval of inputs (Table II row).
  double input_interval() const {
    return config_.sim.eps_rho * config_.keep_every;
  }

 private:
  TrajectorySample MakeSample(int64_t uid, const TrajectorySimulator& sim,
                              Rng& rng) const;

  DatasetConfig config_;
  RoadNetwork roadnet_;
  GridMapping grid_;
  RTree rtree_;
  NetworkDistance netdist_;
  std::vector<TrajectorySample> train_;
  std::vector<TrajectorySample> val_;
  std::vector<TrajectorySample> test_;
};

/// Convenience: heap-build (Dataset is non-movable).
std::unique_ptr<Dataset> BuildDataset(const DatasetConfig& config);

}  // namespace rntraj

#endif  // RNTRAJ_SIM_DATASET_H_
