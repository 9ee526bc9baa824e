#include "src/serve/service_policy.h"

#include <algorithm>

namespace rntraj {
namespace serve {

ServicePolicy::ServicePolicy(size_t max_queue_depth)
    : max_depth_(std::max<size_t>(1, max_queue_depth)) {}

void ServicePolicy::ObserveDepth(size_t depth) {
  std::lock_guard<std::mutex> lock(mu_);
  last_depth_ = depth;
  EvaluateLocked();
}

void ServicePolicy::RecordOutcome(bool deadline_missed) {
  std::lock_guard<std::mutex> lock(mu_);
  outcomes_[outcome_next_] = deadline_missed;
  outcome_next_ = (outcome_next_ + 1) % outcomes_.size();
  outcome_count_ = std::min(outcome_count_ + 1, outcomes_.size());
  EvaluateLocked();
}

double ServicePolicy::MissRateLocked() const {
  if (outcome_count_ == 0) return 0.0;
  size_t missed = 0;
  for (size_t i = 0; i < outcome_count_; ++i) {
    if (outcomes_[i]) ++missed;
  }
  return static_cast<double>(missed) / static_cast<double>(outcome_count_);
}

void ServicePolicy::EvaluateLocked() {
  const double depth_frac =
      static_cast<double>(last_depth_) / static_cast<double>(max_depth_);
  const double miss_rate = MissRateLocked();
  // The miss-rate signal may only *escalate* once the window has enough
  // outcomes to mean something; de-escalation reads an underfilled window
  // as calm (an idle service is a healthy service).
  const bool miss_trips = outcome_count_ >= static_cast<size_t>(kMinWindowFill) &&
                          miss_rate >= kDegradeEnterMissRate;

  PolicyState s = state();
  switch (s) {
    case PolicyState::kOk:
      if (depth_frac >= kShedEnterDepth) {
        s = PolicyState::kShedding;  // cliff arrival: jump both rungs
        ++entered_degraded_;
        ++entered_shedding_;
      } else if (depth_frac >= kDegradeEnterDepth || miss_trips) {
        s = PolicyState::kDegraded;
        ++entered_degraded_;
      }
      break;
    case PolicyState::kDegraded:
      if (depth_frac >= kShedEnterDepth) {
        s = PolicyState::kShedding;
        ++entered_shedding_;
      } else if (depth_frac <= kDegradeExitDepth &&
                 miss_rate <= kDegradeExitMissRate) {
        s = PolicyState::kOk;
      }
      break;
    case PolicyState::kShedding:
      if (depth_frac <= kShedExitDepth) {
        // One rung at a time on the way down: the cheap path must prove it
        // keeps up (DEGRADED) before full service resumes.
        s = PolicyState::kDegraded;
      }
      break;
  }
  state_.store(static_cast<int>(s), std::memory_order_release);
}

ServicePolicyStats ServicePolicy::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServicePolicyStats st;
  st.state = state();
  st.entered_degraded = entered_degraded_;
  st.entered_shedding = entered_shedding_;
  st.recent_miss_rate = MissRateLocked();
  return st;
}

}  // namespace serve
}  // namespace rntraj
