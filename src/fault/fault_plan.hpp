// Fault scenario description: what goes wrong, when, and how often.
//
// MANETs do not run clean: nodes crash and rejoin (churn), the channel
// loses packets in bursts rather than i.i.d. (Gilbert–Elliott episodes),
// and the promiscuous observations that TFT/GTFT and the misbehavior
// detector rely on go missing or arrive garbled. A FaultPlan is the
// declarative description of one such stress scenario — scripted events
// plus stochastic rates — consumed by fault::FaultInjector (stage-driven
// engines) and the slot-driven simulators sim::Simulator and
// multihop::MultihopSimulator (via SlotFaultPlan). Plans are
// plain data: copying one into every replication is how fault scenarios
// stay deterministic under parallel fan-out.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace smac::fault {

/// What a scripted event does to its target node.
enum class FaultKind {
  kCrash,  ///< node leaves: stops transmitting, invisible to observers
  kJoin,   ///< node (re)joins with its previous configuration
};

const char* to_string(FaultKind kind) noexcept;

/// One scripted stage-indexed event (repeated-game / multihop engines).
struct StageEvent {
  int stage = 0;
  std::size_t node = 0;
  FaultKind kind = FaultKind::kCrash;
};

/// One scripted slot-indexed event (slot-level simulators; `slot` counts
/// from simulator construction, across measurement windows).
struct SlotEvent {
  std::uint64_t slot = 0;
  std::size_t node = 0;
  FaultKind kind = FaultKind::kCrash;
};

/// Random node churn: per-stage Bernoulli rates.
struct ChurnConfig {
  double crash_rate = 0.0;    ///< P(online node crashes this stage)
  double recover_rate = 0.0;  ///< P(crashed node rejoins this stage)

  bool enabled() const noexcept { return crash_rate > 0.0; }
};

/// Two-state Gilbert–Elliott bursty-loss channel. In the Good state the
/// base packet_error_rate applies unchanged; in the Bad state an extra
/// loss probability `per_bad` is layered on top:
///   PER_eff = 1 − (1 − base)(1 − per_bad).
/// Mean episode lengths are 1/p_good_to_bad and 1/p_bad_to_good steps
/// (stages for the analytical engines, channel slots for the simulator).
struct GilbertElliottConfig {
  double p_good_to_bad = 0.0;
  double p_bad_to_good = 1.0;
  double per_bad = 0.0;

  bool enabled() const noexcept {
    return p_good_to_bad > 0.0 && per_bad > 0.0;
  }
};

/// Imperfect observation of other nodes' contention windows (the
/// promiscuous-mode assumption of paper §IV, relaxed). Loss keeps the
/// observer's previous belief (stale data); noise perturbs the observed
/// window by up to ±noise_magnitude (clamped to >= 1).
struct ObservationFaultConfig {
  double loss_probability = 0.0;
  double noise_probability = 0.0;
  int noise_magnitude = 1;

  bool enabled() const noexcept {
    return loss_probability > 0.0 || noise_probability > 0.0;
  }
};

/// Complete stage-driven fault scenario.
struct FaultPlan {
  std::vector<StageEvent> scripted;
  ChurnConfig churn;
  GilbertElliottConfig channel;
  ObservationFaultConfig observation;

  bool empty() const noexcept {
    return scripted.empty() && !churn.enabled() && !channel.enabled() &&
           !observation.enabled();
  }

  /// Throws std::invalid_argument on out-of-range rates/probabilities.
  void validate() const;
};

/// Slot-driven fault scenario for the slot-level simulators (single-hop
/// sim::Simulator and spatial multihop::MultihopSimulator).
struct SlotFaultPlan {
  std::vector<SlotEvent> events;
  GilbertElliottConfig channel;

  bool empty() const noexcept {
    return events.empty() && !channel.enabled();
  }

  void validate() const;

  /// Prepares the scripted events for a simulator of `node_count` nodes:
  /// throws std::invalid_argument when an event names a node >=
  /// node_count, then stable-sorts the events by slot, so they apply in
  /// (slot, declaration) order.
  void order_events(std::size_t node_count);
};

}  // namespace smac::fault
