#ifndef RNTRAJ_BASELINES_TWO_STAGE_H_
#define RNTRAJ_BASELINES_TWO_STAGE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/baselines/kalman.h"
#include "src/core/features.h"
#include "src/core/model_api.h"
#include "src/mapmatch/hmm.h"
#include "src/nn/attention.h"
#include "src/nn/linear.h"
#include "src/nn/rnn.h"

/// \file two_stage.h
/// The two-stage baselines: Linear+HMM (interpolation then map matching,
/// Hoteit [18] + Newson-Krumm [14]) and DHTR+HMM (a seq2seq coordinate
/// regressor with Kalman-filter calibration [19], then map matching).

namespace rntraj {

/// Linear interpolation + HMM (no learning).
class LinearHmmModel : public RecoveryModel {
 public:
  LinearHmmModel(const ModelContext& ctx, const HmmConfig& hmm = {})
      : ctx_(ctx), hmm_(hmm) {}

  std::string name() const override { return "Linear+HMM"; }
  Tensor TrainLoss(const TrajectorySample&) override { return Tensor(); }
  MatchedTrajectory Recover(const TrajectorySample& sample) override;

 private:
  ModelContext ctx_;
  HmmConfig hmm_;
};

/// DHTR + HMM: GRU seq2seq with attention predicts the high-sample coordinate
/// sequence (trained with MSE in normalised coordinates), a Kalman RTS
/// smoother calibrates it, and HMM recovers the map-matched trajectory.
class DhtrModel : public Module, public RecoveryModel {
 public:
  DhtrModel(int dim, const ModelContext& ctx);

  std::string name() const override { return "DHTR+HMM"; }
  rntraj::StateDict StateDict() const override { return Module::StateDict(); }
  Tensor TrainLoss(const TrajectorySample& sample) override;
  MatchedTrajectory Recover(const TrajectorySample& sample) override;
  void SetTrainingMode(bool training) override { SetTraining(training); }

 private:
  /// Encoder outputs over the low-sample input.
  Tensor EncodeInput(const TrajectorySample& sample) const;

  /// Predicted normalised coordinates, teacher-forced when `truth` set.
  Tensor PredictCoords(const Tensor& enc, const TrajectorySample& sample,
                       bool teacher_forcing) const;

  /// Maps normalised (x, y) back to the planar frame.
  Vec2 Unnormalise(float nx, float ny) const;

  int dim_;
  ModelContext ctx_;
  Embedding grid_emb_;
  Linear in_proj_;
  Gru encoder_;
  AdditiveAttention attn_;
  GruCell dec_cell_;
  Linear coord_head_;
  KalmanConfig kalman_;
  HmmConfig hmm_;
};

}  // namespace rntraj

#endif  // RNTRAJ_BASELINES_TWO_STAGE_H_
