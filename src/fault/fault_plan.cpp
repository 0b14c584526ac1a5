#include "fault/fault_plan.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace smac::fault {

namespace {

void check_probability(double p, const char* what) {
  if (!(p >= 0.0) || !(p <= 1.0)) {
    throw std::invalid_argument(std::string(what) + " outside [0,1]");
  }
}

void check_channel(const GilbertElliottConfig& channel) {
  check_probability(channel.p_good_to_bad, "GilbertElliott p_good_to_bad");
  check_probability(channel.p_bad_to_good, "GilbertElliott p_bad_to_good");
  if (!(channel.per_bad >= 0.0) || !(channel.per_bad < 1.0)) {
    throw std::invalid_argument("GilbertElliott per_bad outside [0,1)");
  }
  if (channel.enabled() && channel.p_bad_to_good <= 0.0) {
    throw std::invalid_argument(
        "GilbertElliott: bad state must be escapable (p_bad_to_good > 0)");
  }
}

}  // namespace

const char* to_string(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::kCrash: return "crash";
    case FaultKind::kJoin: return "join";
  }
  return "unknown";
}

void FaultPlan::validate() const {
  check_probability(churn.crash_rate, "ChurnConfig crash_rate");
  check_probability(churn.recover_rate, "ChurnConfig recover_rate");
  check_channel(channel);
  check_probability(observation.loss_probability,
                    "ObservationFaultConfig loss_probability");
  check_probability(observation.noise_probability,
                    "ObservationFaultConfig noise_probability");
  if (observation.noise_magnitude < 0 ||
      (observation.noise_probability > 0.0 &&
       observation.noise_magnitude < 1)) {
    throw std::invalid_argument(
        "ObservationFaultConfig noise_magnitude must be >= 1 when noise "
        "is enabled");
  }
  for (const StageEvent& e : scripted) {
    if (e.stage < 0) throw std::invalid_argument("StageEvent stage < 0");
  }
}

void SlotFaultPlan::validate() const { check_channel(channel); }

void SlotFaultPlan::order_events(std::size_t node_count) {
  for (const SlotEvent& e : events) {
    if (e.node >= node_count) {
      throw std::invalid_argument("SlotEvent node index >= node count");
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const SlotEvent& a, const SlotEvent& b) {
                     return a.slot < b.slot;
                   });
}

}  // namespace smac::fault
