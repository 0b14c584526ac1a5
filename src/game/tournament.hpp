// Strategy tournaments and invasion analysis (the paper's §IV claim that
// TFT "is shown to be the best strategy in non-cooperative environments",
// tested rather than asserted).
//
// The MAC game is an n-player game, so Axelrod's pairwise round-robin
// generalizes to *mixes*: k players of strategy A against n − k of
// strategy B, scored by average discounted utility per group. From mix
// outcomes follow the two ecological questions:
//
//   * resistance — does a lone B-mutant in an A-population earn more
//     than a member of the *pure* A-population would? Punishment in this
//     game is collective (TFT drags every window down), so the mutant and
//     the residents end up equal *within* the invaded game and the mutant
//     keeps its early head start forever; the economically meaningful
//     comparison is against the counterfactual of never deviating — the
//     same notion as §V.D's U_s vs U_s0 and Theorem 2's NE condition.
//
// Strategies are supplied as factories because instances hold per-player
// state (GTFT's averaging window).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "game/repeated_game.hpp"
#include "game/stage_game.hpp"
#include "parallel/replication.hpp"

namespace smac::game {

/// Named strategy factory for tournament play.
struct Contender {
  std::string name;
  std::function<std::unique_ptr<Strategy>()> make;
};

/// Average discounted payoff per member of each group in one mix.
struct MixOutcome {
  int count_a = 0;
  int count_b = 0;
  double payoff_a = 0.0;  ///< mean discounted utility of A-players
  double payoff_b = 0.0;  ///< mean discounted utility of B-players
  /// Faults and solver trouble of this mix's repeated game (clean when no
  /// fault plan is set).
  fault::DegradationReport degradation;
  /// What enforcement did in this mix (default when none installed).
  EnforcementReport enforcement;
};

class Tournament {
 public:
  /// `game` must outlive the tournament. `stages` is the repeated-game
  /// horizon used for every match. `jobs` fans the independent mixes of
  /// invasion_matrix / round_robin_scores across a thread pool (1 =
  /// serial, 0 = parallel::ThreadPool::default_jobs()); every mix is a
  /// deterministic self-contained repeated game and results are reduced
  /// in a fixed order, so scores are bit-identical for any jobs value.
  Tournament(const StageGame& game, int n_players, int stages,
             std::size_t jobs = 1);

  /// Runs every subsequent mix under this fault plan. Each mix gets its
  /// own FaultInjector seeded via parallel::stream_seed(seed, count_a), so
  /// outcomes stay bit-identical for any jobs value and comparisons across
  /// mixes of the same size face the same fault trajectory. Pass an empty
  /// plan to go back to fault-free play.
  void set_fault_plan(fault::FaultPlan plan, std::uint64_t seed);

  /// Runs every subsequent mix with the enforcement closed loop installed
  /// (RepeatedGameEngine::set_enforcement): the monitor flags deviants,
  /// compliant players serve calibrated punishment episodes, offenders
  /// are rehabilitated. Invasion and round-robin analyses then measure
  /// deviant payoffs *under enforcement*. Pass nullopt to go back to
  /// unenforced play. Throws std::invalid_argument on a bad config.
  void set_enforcement(std::optional<ReactionConfig> config);

  const std::optional<ReactionConfig>& enforcement() const noexcept {
    return enforcement_;
  }

  /// Plays one mix: the first `count_a` players use A, the rest B.
  MixOutcome play_mix(const Contender& a, const Contender& b,
                      int count_a) const;

  /// Replicates one mix under the active fault plan until `rule`'s CI
  /// half-width target is met or rule.max_reps (must be > 0) is
  /// exhausted, fanned over this tournament's jobs. Replication r plays
  /// with injector seed stream_seed(stream_seed(fault_seed, count_a), r),
  /// so the family is disjoint from the single-shot play_mix seed and
  /// bit-identical for any jobs value. Without a fault plan every
  /// replication is the same deterministic game — the CI collapses to 0
  /// and the run stops at the first batch boundary holding two samples.
  /// Metric columns are "payoff A" and "payoff B".
  parallel::ReplicationSummary play_mix_replicated(
      const Contender& a, const Contender& b, int count_a,
      const parallel::StoppingRule& rule) const;

  /// True when a lone B-mutant among (n−1) A-residents earns no more than
  /// a member of the *pure* A-population (within `tolerance`, relative):
  /// deviating into B does not pay, so the A-population resists B.
  bool resists_invasion(const Contender& resident, const Contender& mutant,
                        double tolerance = 1e-3) const;

  /// Pairwise invasion matrix over a roster: entry (i, j) is true when a
  /// population of roster[i] resists a lone roster[j] mutant. Diagonal is
  /// trivially true.
  std::vector<std::vector<bool>> invasion_matrix(
      const std::vector<Contender>& roster, double tolerance = 1e-3) const;

  /// Round-robin score: for each roster member, the mean of its
  /// per-member payoff across all mixes (1..n−1 of itself) against every
  /// other roster member — Axelrod's total-points view, generalized.
  std::vector<double> round_robin_scores(
      const std::vector<Contender>& roster) const;

 private:
  /// play_mix with an explicit injector seed (ignored when the plan is
  /// empty) — the shared core of single-shot and replicated play.
  MixOutcome play_mix_impl(const Contender& a, const Contender& b, int count_a,
                           std::uint64_t injector_seed) const;

  const StageGame& game_;
  int n_;
  int stages_;
  std::size_t jobs_;
  fault::FaultPlan fault_plan_;  ///< empty() = fault-free play
  std::uint64_t fault_seed_ = 0;
  std::optional<ReactionConfig> enforcement_;  ///< nullopt = unenforced
};

/// The paper's cast, ready to use: TFT, GTFT(β, r0), Constant(w),
/// ShortSighted(w_s) — all starting from / anchored at `w_coop`.
std::vector<Contender> standard_roster(const StageGame& game, int n,
                                       int w_coop);

/// The enforcement-aware cast: the compliant reactive strategies only
/// (tft, gtft, contrite-tft, forgiving-gtft) — the populations whose
/// members actually execute punishment commands, used as residents in
/// enforcement invasion studies. Deviants come from standard_roster (or
/// deviant_roster below).
std::vector<Contender> enforcement_roster(const StageGame& game, int n,
                                          int w_coop);

/// The §V.D/§V.E deviant cast: relentless short-sighted (W_coop/4) and
/// malicious (cooperate, then attack at w=2 from `attack_stage`).
std::vector<Contender> deviant_roster(int w_coop, int attack_stage = 3);

}  // namespace smac::game
