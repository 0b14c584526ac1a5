// Accounting of everything that did NOT go cleanly in a run.
//
// Graceful degradation is only useful if it is visible: a sweep that
// silently papered over failed solves would report equilibria that were
// never actually computed. Every fault-aware engine therefore carries a
// DegradationReport in its result — how many stages solved degraded or
// failed, how many reused the last converged payoffs, what topology and
// observation faults fired — and batch drivers merge the per-run reports
// into one summary line.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analytical/fixed_point_solver.hpp"

namespace smac::fault {

class FaultInjector;

/// One non-clean stage: what the solver reported and what the engine did.
struct StageIncident {
  int stage = 0;
  analytical::SolveStatus status = analytical::SolveStatus::kDegraded;
  double residual = 0.0;
  int retries = 0;
  /// Payoffs were substituted from the last converged stage.
  bool reused_last_converged = false;
};

struct DegradationReport {
  int stages = 0;           ///< stages played in total
  int degraded_stages = 0;  ///< solver returned kDegraded
  int failed_stages = 0;    ///< solver returned kFailed
  int reused_stages = 0;    ///< payoffs reused from the last good stage
  int crash_events = 0;
  int join_events = 0;
  std::uint64_t lost_observations = 0;
  std::uint64_t noisy_observations = 0;
  /// Stage of the most recent crash/join, −1 if none fired.
  int last_fault_stage = -1;
  /// Non-clean stages only (bounded by degraded + failed counts).
  std::vector<StageIncident> incidents;

  /// True when every stage solved converged and no fault fired.
  bool clean() const noexcept;

  /// Takes the horizon length and `injector`'s cumulative fault counters
  /// (crashes, joins, lost/noisy observations, last fault stage) — how
  /// every fault-aware engine closes its report after the last stage.
  void record_injector(const FaultInjector& injector, int stages_played);

  /// Folds `other` into this report (counters add; last_fault_stage takes
  /// the max; incidents concatenate in call order).
  void merge(const DegradationReport& other);

  /// One human-readable line, e.g.
  /// "120 stages: 118 converged, 2 degraded, 0 failed (0 reused); ...".
  std::string summary() const;
};

}  // namespace smac::fault
