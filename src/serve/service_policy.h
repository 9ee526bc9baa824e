#ifndef RNTRAJ_SERVE_SERVICE_POLICY_H_
#define RNTRAJ_SERVE_SERVICE_POLICY_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>

/// \file service_policy.h
/// The graceful-degradation ladder of the recovery service: a hysteretic
/// state machine over queue depth and recent deadline-miss rate.
///
///   OK ──overload──▶ DEGRADED ──worse──▶ SHEDDING
///    ◀──recovered──           ◀──better──
///
/// OK serves every request with the full model. DEGRADED routes requests to
/// the cheap fallback recovery path (linear interpolation + HMM map
/// matching) so the queue keeps draining under load — responses carry a
/// `degraded` flag. SHEDDING is the last rung: new admissions are refused
/// outright (immediate shed response) until the backlog clears. Enter and
/// exit watermarks (fixed constants, ServicePolicy::k*) are separated
/// (hysteresis) so the ladder does not flap at a boundary, and the miss-rate
/// signal is a sliding window, so recovery to OK requires genuinely healthy
/// recent traffic, not one lucky request.

namespace rntraj {
namespace serve {

/// Ladder rungs, ordered by severity.
enum class PolicyState { kOk = 0, kDegraded = 1, kShedding = 2 };

inline const char* ToString(PolicyState s) {
  switch (s) {
    case PolicyState::kOk: return "OK";
    case PolicyState::kDegraded: return "DEGRADED";
    case PolicyState::kShedding: return "SHEDDING";
  }
  return "?";
}

/// The ladder's switch. The watermarks are ServicePolicy constants.
struct ServicePolicyConfig {
  /// Off keeps the pre-ladder behaviour (full model always, shedding only
  /// on a full queue).
  bool enabled = false;
};

/// Counters for Stats(): how often each rung was entered.
struct ServicePolicyStats {
  PolicyState state = PolicyState::kOk;
  int64_t entered_degraded = 0;
  int64_t entered_shedding = 0;
  double recent_miss_rate = 0.0;
};

/// Thread-safe ladder. Producers consult `state()` (one atomic load) on the
/// hot path; transitions are evaluated under a mutex whenever a signal
/// arrives (a depth observation or an answered-request outcome). The
/// service builds one only when ServicePolicyConfig::enabled is set.
class ServicePolicy {
 public:
  /// Watermarks. Depth thresholds are fractions of the admission queue's
  /// max_queue_depth; miss rates are fractions of the outcome window. Each
  /// enter threshold sits above its exit threshold: that gap is the
  /// hysteresis band.
  ///
  /// OK -> DEGRADED when queue depth crosses the degrade-enter fraction (or
  /// the miss rate trips); DEGRADED -> OK only once depth falls back under
  /// the exit fraction AND the miss rate has calmed.
  static constexpr double kDegradeEnterDepth = 0.50;
  static constexpr double kDegradeExitDepth = 0.20;
  /// DEGRADED -> SHEDDING when depth keeps climbing despite the cheap path;
  /// SHEDDING -> DEGRADED once depth falls back under the exit fraction.
  static constexpr double kShedEnterDepth = 0.85;
  static constexpr double kShedExitDepth = 0.50;
  /// Deadline-miss-rate watermarks over the sliding outcome window.
  static constexpr double kDegradeEnterMissRate = 0.20;
  static constexpr double kDegradeExitMissRate = 0.05;
  /// Sliding window of recent answered-request outcomes (missed deadline or
  /// not) behind the miss-rate signal.
  static constexpr int kWindow = 64;
  /// Outcomes required in the window before the miss rate may *trip* the
  /// ladder (a single early miss must not degrade an idle service). Exit is
  /// not gated: an emptying window reads as calm.
  static constexpr int kMinWindowFill = 8;

  explicit ServicePolicy(size_t max_queue_depth);

  /// Feed the current admission-queue depth (called on submit and on batch
  /// completion). Re-evaluates transitions.
  void ObserveDepth(size_t depth);

  /// Feed one answered request's outcome: did it miss its deadline?
  /// (Shed and invalid requests are not outcomes — they carry no signal
  /// about serving capacity.) Re-evaluates transitions.
  void RecordOutcome(bool deadline_missed);

  /// Current rung (lock-free read).
  PolicyState state() const {
    return static_cast<PolicyState>(state_.load(std::memory_order_acquire));
  }

  ServicePolicyStats Snapshot() const;

 private:
  /// Transition evaluation; callers hold mu_.
  void EvaluateLocked();
  double MissRateLocked() const;

  size_t max_depth_;

  mutable std::mutex mu_;
  size_t last_depth_ = 0;
  std::array<bool, kWindow> outcomes_{};  ///< Ring of deadline-missed flags.
  size_t outcome_next_ = 0;
  size_t outcome_count_ = 0;  ///< Valid entries (<= kWindow).
  int64_t entered_degraded_ = 0;
  int64_t entered_shedding_ = 0;

  std::atomic<int> state_{static_cast<int>(PolicyState::kOk)};
};

}  // namespace serve
}  // namespace rntraj

#endif  // RNTRAJ_SERVE_SERVICE_POLICY_H_
