// Sim-driven repeated game: strategies adapt their contention window stage
// by stage while payoffs are *measured* on the slot-level simulator
// instead of computed from the analytical model.
//
// This is the paper's actual operating regime: each stage lasts T seconds,
// nodes observe opponents' windows and realized payoffs are (n_s·g − n_e·e)
// over the stage. Comparing trajectories of this runtime against
// game::RepeatedGameEngine validates the analytical model end to end.
//
// Observation comes in two forms. A runtime built from a strategy list
// assumes perfect promiscuous-mode measurement, as the paper does:
// strategies read opponents' configured windows from the history. A
// runtime built from a strategy factory also owns two feeds, refreshed
// after every stage from that stage's observable counters — window
// estimates Ŵ_j (sim/cw_estimator.hpp, the estimation of the paper's
// ref. [3]) and misbehavior flags (sim/misbehavior_detector.hpp) — so
// estimating strategies such as DetectorGtft act on what a listener
// could actually measure.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "game/strategies.hpp"
#include "sim/simulator.hpp"

namespace smac::sim {

struct AdaptiveResult {
  game::History history;                   ///< per stage: profile + measured payoffs
  std::vector<double> discounted_utility;  ///< Σ_k δ^k·U_i^s
  std::vector<double> total_utility;
  /// Feed-built runtimes only (empty otherwise): the estimate and flag
  /// feeds as refreshed after each stage, [stage][node].
  std::vector<std::vector<double>> estimates_per_stage;
  std::vector<std::vector<bool>> flags_per_stage;
  /// Convergence facts of the trajectory (game/convergence.hpp).
  std::optional<int> converged_cw;
  int stable_from = 0;
};

class AdaptiveRuntime {
 public:
  using EstimateFeed = std::shared_ptr<const std::vector<double>>;
  using FlagFeed = std::shared_ptr<const std::vector<bool>>;
  /// `make_strategy(i, estimates, flags)` builds node i's strategy around
  /// the runtime's shared feeds.
  using StrategyFactory = std::function<std::unique_ptr<game::Strategy>(
      std::size_t, EstimateFeed, FlagFeed)>;

  /// One strategy per node, observing configured windows. Stage duration
  /// defaults to the parameter set's T; shorten it in tests to trade
  /// accuracy for speed.
  AdaptiveRuntime(SimConfig config,
                  std::vector<std::unique_ptr<game::Strategy>> strategies,
                  std::optional<double> stage_duration_us = std::nullopt);

  /// `n` strategies from `make_strategy`, wired to the estimate and flag
  /// feeds. Both feeds are refreshed after every stage, before strategies
  /// decide the next one: estimates from the stage's attempt counts, and
  /// node j flagged when its measured attempt rate significantly exceeds
  /// compliance with the *modal* window of the profile just played (the
  /// de-facto agreement).
  AdaptiveRuntime(SimConfig config, std::size_t n,
                  const StrategyFactory& make_strategy,
                  double stage_duration_us);

  std::size_t player_count() const noexcept { return strategies_.size(); }

  /// Plays `stages` stages; the simulator's backoff state carries across
  /// stages (only measurement counters reset).
  AdaptiveResult play(int stages);

 private:
  void refresh_feeds(const SimResult& stage, const std::vector<int>& profile,
                     AdaptiveResult& result);

  /// The feeds: null unless built from a factory (declared first: the
  /// factory's strategies capture them).
  std::shared_ptr<std::vector<double>> estimates_;
  std::shared_ptr<std::vector<bool>> flags_;
  std::vector<std::unique_ptr<game::Strategy>> strategies_;
  Simulator simulator_;
  double stage_duration_us_;
  double discount_;
};

}  // namespace smac::sim
