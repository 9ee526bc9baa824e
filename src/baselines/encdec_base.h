#ifndef RNTRAJ_BASELINES_ENCDEC_BASE_H_
#define RNTRAJ_BASELINES_ENCDEC_BASE_H_

#include <string>

#include "src/core/decoder.h"
#include "src/core/features.h"
#include "src/core/model_api.h"

/// \file encdec_base.h
/// Shared skeleton for the "A + Decoder" baselines (paper Remark 2): each
/// method contributes only an encoder; the multi-task constraint-mask decoder
/// of MTrajRec is shared, exactly as the paper evaluates them.

namespace rntraj {

/// Baseline hyper-parameters.
struct BaselineConfig {
  int dim = 32;
  int heads = 4;
  DecoderConfig decoder;

  void Sync() { decoder.dim = dim; }
};

/// Base class: TrainLoss/Recover in terms of a virtual `Encode`.
class EncoderDecoderModel : public Module, public RecoveryModel {
 public:
  EncoderDecoderModel(std::string name, BaselineConfig config,
                      const ModelContext& ctx)
      : cfg_([&config] {
          config.Sync();
          return config;
        }()),
        ctx_(ctx),
        decoder_(cfg_.decoder, &ctx_),
        traj_proj_(cfg_.dim + kEnvFeatureDim, cfg_.dim),
        name_(std::move(name)) {
    RegisterChild("decoder", &decoder_);
    RegisterChild("traj_proj", &traj_proj_);
  }

  std::string name() const override { return name_; }
  rntraj::StateDict StateDict() const override { return Module::StateDict(); }

  /// The encoders run per sample; the shared decoder sees each sample as a
  /// batch of one.
  Tensor TrainLoss(const TrajectorySample& sample) override {
    Encoded e = Encode(sample);
    return decoder_.TrainLossBatch({e.outputs}, {e.traj_h}, {&sample}).front();
  }

  MatchedTrajectory Recover(const TrajectorySample& sample) override {
    NoGradGuard guard;
    Encoded e = Encode(sample);
    return decoder_.DecodeBatch({e.outputs}, {e.traj_h}, {&sample}).front();
  }

  void SetTrainingMode(bool training) override { SetTraining(training); }
  void SetTeacherForcing(double prob) override {
    decoder_.set_teacher_forcing(prob);
  }

 protected:
  struct Encoded {
    Tensor outputs;  ///< (l, d) per-point encoder states.
    Tensor traj_h;   ///< (1, d) trajectory-level state.
  };

  virtual Encoded Encode(const TrajectorySample& sample) = 0;

  /// Standard trajectory-level head: mean pooling + environmental context.
  Tensor MakeTrajH(const Tensor& outputs, const TrajectorySample& sample) const {
    Tensor pooled = Reshape(ColMean(outputs), {1, cfg_.dim});
    return traj_proj_.Forward(ConcatCols({pooled, EnvContext(sample)}));
  }

  BaselineConfig cfg_;
  ModelContext ctx_;
  Decoder decoder_;
  Linear traj_proj_;
  std::string name_;
};

}  // namespace rntraj

#endif  // RNTRAJ_BASELINES_ENCDEC_BASE_H_
