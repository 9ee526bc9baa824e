#ifndef RNTRAJ_MAPMATCH_HMM_H_
#define RNTRAJ_MAPMATCH_HMM_H_

#include "src/roadnet/rtree.h"
#include "src/roadnet/shortest_path.h"
#include "src/traj/trajectory.h"

/// \file hmm.h
/// Hidden-Markov-Model map matching (Newson & Krumm [14]): the classical
/// baseline the paper uses to label data and as the second stage of the
/// Linear+HMM and DHTR+HMM baselines.
///
/// Emission: candidate segments within a radius score a Gaussian on the
/// projection distance. Transition: exp(-|route - great-circle| / beta),
/// computed with directed network distances. Decoding: Viterbi with
/// break-recovery (a layer whose best score is -inf restarts the chain, as in
/// the original paper's handling of gaps).

namespace rntraj {

/// Newson-Krumm parameters.
struct HmmConfig {
  double sigma_z = 15.0;           ///< GPS noise scale (m).
  double beta = 30.0;              ///< Transition tolerance (m).
  double candidate_radius = 120.0; ///< Candidate search radius (m).
  int max_candidates = 8;          ///< Candidates per point.
};

/// Map-matches a raw trajectory; output has one matched point per input
/// point (same timestamps).
MatchedTrajectory HmmMapMatch(const RoadNetwork& rn, const RTree& rtree,
                              const NetworkDistance& nd,
                              const RawTrajectory& traj,
                              const HmmConfig& config = {});

}  // namespace rntraj

#endif  // RNTRAJ_MAPMATCH_HMM_H_
