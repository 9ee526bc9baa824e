#include "src/mapmatch/hmm.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace rntraj {

namespace {

constexpr double kNegInf = -1e18;

struct Candidate {
  int seg_id;
  double ratio;
  double emission_logp;
};

}  // namespace

MatchedTrajectory HmmMapMatch(const RoadNetwork& rn, const RTree& rtree,
                              const NetworkDistance& nd,
                              const RawTrajectory& traj,
                              const HmmConfig& cfg) {
  MatchedTrajectory out;
  if (traj.empty()) return out;
  const int n = traj.size();

  // Candidate generation per point.
  std::vector<std::vector<Candidate>> layers(n);
  for (int t = 0; t < n; ++t) {
    auto near = SegmentsWithinRadius(rn, rtree, traj.points[t].pos,
                                     cfg.candidate_radius);
    if (static_cast<int>(near.size()) > cfg.max_candidates) {
      near.resize(cfg.max_candidates);
    }
    layers[t].reserve(near.size());
    for (const auto& ns : near) {
      const double z = ns.projection.distance / cfg.sigma_z;
      layers[t].push_back({ns.seg_id, std::min(ns.projection.ratio, 0.999),
                           -0.5 * z * z});
    }
  }

  // Viterbi.
  std::vector<std::vector<double>> score(n);
  std::vector<std::vector<int>> parent(n);
  score[0].resize(layers[0].size());
  parent[0].assign(layers[0].size(), -1);
  for (size_t i = 0; i < layers[0].size(); ++i) {
    score[0][i] = layers[0][i].emission_logp;
  }
  for (int t = 1; t < n; ++t) {
    const double gc =
        Distance(traj.points[t - 1].pos, traj.points[t].pos);
    score[t].assign(layers[t].size(), kNegInf);
    parent[t].assign(layers[t].size(), -1);
    for (size_t j = 0; j < layers[t].size(); ++j) {
      const Candidate& cand = layers[t][j];
      for (size_t i = 0; i < layers[t - 1].size(); ++i) {
        if (score[t - 1][i] <= kNegInf / 2) continue;
        const Candidate& prev = layers[t - 1][i];
        const double route =
            nd.PointToPoint(prev.seg_id, prev.ratio, cand.seg_id, cand.ratio);
        if (route == NetworkDistance::kUnreachable) continue;
        const double trans_logp = -std::abs(route - gc) / cfg.beta;
        const double s = score[t - 1][i] + trans_logp + cand.emission_logp;
        if (s > score[t][j]) {
          score[t][j] = s;
          parent[t][j] = static_cast<int>(i);
        }
      }
    }
    // Break recovery: no candidate is reachable from the previous layer ->
    // restart the chain at this point (Newson-Krumm gap handling).
    bool all_dead = true;
    for (double s : score[t]) all_dead &= s <= kNegInf / 2;
    if (all_dead) {
      for (size_t j = 0; j < layers[t].size(); ++j) {
        score[t][j] = layers[t][j].emission_logp;
        parent[t][j] = -1;
      }
    }
  }

  // Backtrack. A restart (parent == -1 past layer 0) re-anchors at the best
  // candidate of the earlier layer.
  std::vector<int> choice(n, 0);
  {
    int best = 0;
    for (size_t j = 1; j < score[n - 1].size(); ++j) {
      if (score[n - 1][j] > score[n - 1][best]) best = static_cast<int>(j);
    }
    choice[n - 1] = best;
  }
  for (int t = n - 1; t > 0; --t) {
    int p = parent[t][choice[t]];
    if (p < 0) {
      // Chain break: pick the best-scoring candidate of layer t-1.
      p = 0;
      for (size_t j = 1; j < score[t - 1].size(); ++j) {
        if (score[t - 1][j] > score[t - 1][p]) p = static_cast<int>(j);
      }
    }
    choice[t - 1] = p;
  }

  out.points.reserve(n);
  for (int t = 0; t < n; ++t) {
    const Candidate& c = layers[t][choice[t]];
    out.points.push_back({c.seg_id, c.ratio, traj.points[t].t});
  }
  return out;
}

}  // namespace rntraj
