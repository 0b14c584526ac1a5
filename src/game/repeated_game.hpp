// Model-driven engine for the repeated MAC game G (paper §IV).
//
// Plays strategies against each other stage by stage; stage payoffs come
// from the analytical stage game (the sim-driven counterpart lives in
// sim::AdaptiveRuntime). Records the full trajectory, discounted
// utilities, and convergence facts.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "fault/degradation.hpp"
#include "fault/fault_injector.hpp"
#include "game/observation_filter.hpp"
#include "game/reaction.hpp"
#include "game/stage_game.hpp"
#include "game/strategies.hpp"

namespace smac::game {

/// Outcome of a finite horizon of the repeated game.
struct RepeatedGameResult {
  History history;                         ///< one record per stage
  std::vector<double> discounted_utility;  ///< Σ_k δ^k·U_i^s(W^k)
  std::vector<double> total_utility;       ///< undiscounted sum
  /// Convergence facts of the trajectory (game/convergence.hpp).
  std::optional<int> converged_cw;
  int stable_from = 0;
  /// What did not go cleanly (empty/clean for fault-free runs).
  fault::DegradationReport degradation;
  /// What enforcement did (clean/default when no enforcement installed).
  EnforcementReport enforcement;
};

/// Plays n strategies for a fixed number of stages.
class RepeatedGameEngine {
 public:
  /// `game` must outlive the engine. One strategy per player.
  RepeatedGameEngine(const StageGame& game,
                     std::vector<std::unique_ptr<Strategy>> strategies);

  std::size_t player_count() const noexcept { return strategies_.size(); }

  /// Runs `stages` >= 1 stages from scratch and returns the trajectory.
  ///
  /// Fault-aware when `injector` (node_count == player_count, stage 0
  /// not yet begun) is given: it drives crashes/joins, bursty PER, and
  /// observation faults; nullptr (the default) plays fault-free.
  ///
  /// Semantics under faults:
  ///  - A crashed player keeps its configured window but does not
  ///    transmit: its stage utility is 0 and its strategy is not asked to
  ///    decide until it rejoins. StageRecord::online carries the mask.
  ///  - Stage payoffs solve over the *online* sub-profile with the
  ///    injector's effective PER. A kDegraded solve is used as-is but
  ///    recorded; a kFailed solve reuses each online player's payoff from
  ///    the last stage that solved (0 before any did) — the engine never
  ///    throws on solver trouble.
  ///  - When observation faults are enabled, each player decides on its
  ///    own observed history: opponents' windows pass through
  ///    FaultInjector::observe_cw with the player's previous belief as the
  ///    loss fallback.
  RepeatedGameResult play(int stages,
                          fault::FaultInjector* injector = nullptr);

  /// Installs an observation filter between the (possibly faulted)
  /// observed histories and the strategies: every player decides on a
  /// view whose opponents' windows are smoothed by `config` (own window,
  /// utilities, and online mask stay exact). Enabling a filter forces
  /// per-player views even without observation faults, so filtered runs
  /// are well defined fault-free too. Pass a default (kNone) config to
  /// remove the filter. Throws std::invalid_argument on a bad config.
  void set_observation_filter(ObservationFilterConfig config);

  const ObservationFilter& observation_filter() const noexcept {
    return filter_;
  }

  /// Installs the enforcement closed loop (game/reaction.hpp): a monitor
  /// observes every stage (through the injector's observation faults when
  /// one is active, drawn after the player views in a fixed order), feeds
  /// a sequential detector, and on a flag opens a calibrated punishment
  /// episode. During an episode:
  ///  - every online player whose strategy follows_enforcement() plays
  ///    the policy's commanded window instead of its own decision;
  ///  - player views of punished stages are sanitized to the agreement
  ///    window (the sanction owns the response — strategies must not
  ///    TFT-ratchet on the punishment itself); utilities and the online
  ///    mask stay real;
  ///  - detection is suspended, and the episode's end rehabilitates the
  ///    offender (evidence cleared).
  /// Enforcement forces per-player views (like a filter). Pass nullopt to
  /// remove. Throws std::invalid_argument on an invalid config.
  void set_enforcement(std::optional<ReactionConfig> config);

  const std::optional<ReactionConfig>& enforcement() const noexcept {
    return enforcement_;
  }

 private:
  const StageGame& game_;
  std::vector<std::unique_ptr<Strategy>> strategies_;
  ObservationFilter filter_;  ///< disabled by default
  std::optional<ReactionConfig> enforcement_;
};

/// Convenience: n TFT players all starting from `initial_w`.
std::vector<std::unique_ptr<Strategy>> make_tft_population(std::size_t n,
                                                           int initial_w);

/// n GTFT players with the given tolerance parameters.
std::vector<std::unique_ptr<Strategy>> make_gtft_population(std::size_t n,
                                                            int initial_w,
                                                            double beta,
                                                            int r0);

/// n Contrite-TFT players drifting back to `w_coop` after `clean_stages`
/// clean stages.
std::vector<std::unique_ptr<Strategy>> make_contrite_population(
    std::size_t n, int w_coop, int clean_stages);

}  // namespace smac::game
