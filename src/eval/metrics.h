#ifndef RNTRAJ_EVAL_METRICS_H_
#define RNTRAJ_EVAL_METRICS_H_

#include <vector>

#include "src/roadnet/road_network.h"
#include "src/roadnet/shortest_path.h"
#include "src/traj/trajectory.h"

/// \file metrics.h
/// Evaluation metrics of paper §VI-A2: travel-path Recall/Precision/F1,
/// per-point segment Accuracy, network-distance MAE/RMSE, and the SR%k
/// robustness statistic for the elevated-road task.

namespace rntraj {

/// Aggregate recovery quality over a set of trajectories. Recall, Precision,
/// F1 and Accuracy are averaged per-trajectory; MAE/RMSE pool the per-point
/// network distance errors across all trajectories.
struct RecoveryMetrics {
  double recall = 0.0;
  double precision = 0.0;
  double f1 = 0.0;
  double accuracy = 0.0;
  double mae = 0.0;
  double rmse = 0.0;
  int num_trajectories = 0;
};

/// Travel-path recall/precision/F1 of one prediction against the truth
/// (set-based intersection of the de-duplicated segment paths).
struct PathScore {
  double recall = 0.0;
  double precision = 0.0;
  double f1 = 0.0;
};

PathScore ScoreTravelPath(const std::vector<int>& truth_path,
                          const std::vector<int>& pred_path);

/// Full metric suite over aligned prediction/truth pairs (equal lengths,
/// matching timestamps).
RecoveryMetrics EvaluateRecovery(const NetworkDistance& nd,
                                 const std::vector<MatchedTrajectory>& preds,
                                 const std::vector<MatchedTrajectory>& truths);

/// Per-trajectory F1 restricted to the elevated sub-trajectory: the
/// timestamps whose ground-truth segment is elevated or lies within
/// `near_radius` of an elevated segment (the trunk road beneath). Returns one
/// F1 per trajectory having at least `min_points` such timestamps.
std::vector<double> ElevatedSubTrajectoryF1(
    const RoadNetwork& rn, const std::vector<MatchedTrajectory>& preds,
    const std::vector<MatchedTrajectory>& truths, double near_radius = 30.0,
    int min_points = 4);

/// SR%k (paper §VI-A2): the fraction of values strictly exceeding `k`.
double SrAtK(const std::vector<double>& f1_values, double k);

}  // namespace rntraj

#endif  // RNTRAJ_EVAL_METRICS_H_
