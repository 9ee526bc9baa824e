#include "src/eval/metrics.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "src/common/check.h"

namespace rntraj {

PathScore ScoreTravelPath(const std::vector<int>& truth_path,
                          const std::vector<int>& pred_path) {
  const std::set<int> truth_set(truth_path.begin(), truth_path.end());
  const std::set<int> pred_set(pred_path.begin(), pred_path.end());
  int common = 0;
  for (int seg : pred_set) common += truth_set.count(seg) > 0;
  PathScore s;
  if (!truth_set.empty()) s.recall = static_cast<double>(common) / truth_set.size();
  if (!pred_set.empty()) {
    s.precision = static_cast<double>(common) / pred_set.size();
  }
  if (s.recall + s.precision > 0.0) {
    s.f1 = 2.0 * s.recall * s.precision / (s.recall + s.precision);
  }
  return s;
}

RecoveryMetrics EvaluateRecovery(const NetworkDistance& nd,
                                 const std::vector<MatchedTrajectory>& preds,
                                 const std::vector<MatchedTrajectory>& truths) {
  RNTRAJ_CHECK_MSG(preds.size() == truths.size(), "pred/truth count mismatch");
  RecoveryMetrics m;
  double sum_sq = 0.0;
  double sum_abs = 0.0;
  int64_t num_points = 0;
  for (size_t i = 0; i < preds.size(); ++i) {
    const auto& pred = preds[i];
    const auto& truth = truths[i];
    RNTRAJ_CHECK_MSG(pred.size() == truth.size(),
                     "trajectory " << i << ": length mismatch " << pred.size()
                                   << " vs " << truth.size());
    const PathScore ps = ScoreTravelPath(truth.TravelPath(), pred.TravelPath());
    m.recall += ps.recall;
    m.precision += ps.precision;
    m.f1 += ps.f1;
    int correct = 0;
    for (int j = 0; j < pred.size(); ++j) {
      const auto& pp = pred.points[j];
      const auto& tp = truth.points[j];
      correct += pp.seg_id == tp.seg_id;
      const double err = nd.Symmetric(pp.seg_id, pp.ratio, tp.seg_id, tp.ratio);
      sum_abs += err;
      sum_sq += err * err;
      ++num_points;
    }
    m.accuracy += static_cast<double>(correct) / pred.size();
  }
  const double n = static_cast<double>(preds.size());
  if (n > 0) {
    m.recall /= n;
    m.precision /= n;
    m.f1 /= n;
    m.accuracy /= n;
  }
  if (num_points > 0) {
    m.mae = sum_abs / static_cast<double>(num_points);
    m.rmse = std::sqrt(sum_sq / static_cast<double>(num_points));
  }
  m.num_trajectories = static_cast<int>(preds.size());
  return m;
}

std::vector<double> ElevatedSubTrajectoryF1(
    const RoadNetwork& rn, const std::vector<MatchedTrajectory>& preds,
    const std::vector<MatchedTrajectory>& truths, double near_radius,
    int min_points) {
  RNTRAJ_CHECK(preds.size() == truths.size());
  // Precompute which segments count as "on or near" the elevated corridor.
  std::vector<bool> near_elevated(rn.num_segments(), false);
  for (int i = 0; i < rn.num_segments(); ++i) {
    if (rn.segment(i).elevated()) {
      near_elevated[i] = true;
      continue;
    }
    const Vec2 mid = rn.PointAt(i, 0.5);
    for (int j = 0; j < rn.num_segments() && !near_elevated[i]; ++j) {
      if (!rn.segment(j).elevated()) continue;
      if (rn.Project(mid, j).distance <= near_radius) near_elevated[i] = true;
    }
  }

  std::vector<double> out;
  for (size_t i = 0; i < preds.size(); ++i) {
    std::vector<int> truth_sub;
    std::vector<int> pred_sub;
    for (int j = 0; j < truths[i].size(); ++j) {
      if (near_elevated[truths[i].points[j].seg_id]) {
        truth_sub.push_back(truths[i].points[j].seg_id);
        pred_sub.push_back(preds[i].points[j].seg_id);
      }
    }
    if (static_cast<int>(truth_sub.size()) < min_points) continue;
    MatchedTrajectory t;
    MatchedTrajectory p;
    for (int seg : truth_sub) t.points.push_back({seg, 0, 0});
    for (int seg : pred_sub) p.points.push_back({seg, 0, 0});
    out.push_back(ScoreTravelPath(t.TravelPath(), p.TravelPath()).f1);
  }
  return out;
}

double SrAtK(const std::vector<double>& f1_values, double k) {
  if (f1_values.empty()) return 0.0;
  int count = 0;
  for (double v : f1_values) count += v > k;
  return static_cast<double>(count) / static_cast<double>(f1_values.size());
}

}  // namespace rntraj
