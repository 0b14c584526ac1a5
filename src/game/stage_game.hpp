// The stage game of the non-cooperative MAC game G (paper §IV).
//
// One stage lasts T seconds during which every node operates a fixed
// contention window; the stage payoff is the utility rate u_i (from the
// extended Bianchi model) times the stage duration. This class is the
// bridge between the analytical model and the game-theoretic machinery:
// strategies and equilibrium analysis consume it, never the raw solver.
#pragma once

#include <map>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "analytical/fixed_point_solver.hpp"
#include "analytical/solver_service.hpp"
#include "phy/parameters.hpp"

namespace smac::game {

/// Evaluates stage payoffs of contention-window profiles.
///
/// Homogeneous evaluations are memoized: equilibrium sweeps and repeated
/// games revisit the same (w, n) points thousands of times. The memo
/// cache is mutex-guarded, so const evaluation is safe from concurrent
/// threads (parallel tournaments share one StageGame across workers).
class StageGame {
 public:
  StageGame(phy::Parameters params, phy::AccessMode mode);

  /// Same, with explicit SolverService options — the way to hand the
  /// owned service a ThreadPool (city-scale pricing chunks its miss
  /// batches across it; results stay bitwise jobs-invariant per the
  /// service contract). The pool, if any, must outlive this game.
  StageGame(phy::Parameters params, phy::AccessMode mode,
            analytical::SolverService::Options solver_options);

  const phy::Parameters& params() const noexcept { return params_; }
  phy::AccessMode mode() const noexcept { return mode_; }

  /// Stage duration in µs (utility rates are per µs).
  double stage_duration_us() const noexcept {
    return params_.stage_duration_s * 1e6;
  }

  /// Per-node stage payoffs U_i^s = u_i·T for an arbitrary profile.
  /// Throws std::invalid_argument on an empty profile or a window < 1;
  /// otherwise prices the solver's sanitized state whatever its status.
  std::vector<double> stage_utilities(const std::vector<int>& w) const;

  /// Non-throwing stage payoffs: per-node payoffs plus the solver
  /// diagnostics; `utilities` stays empty when the solve is unusable (an
  /// empty profile yields kFailed/"invalid" without reaching the solver).
  /// `per_override` replaces the configured packet error rate (fault
  /// injection layers bursty loss on top of the base PER). Routed through
  /// the solver service's canonical cache, so repeated games and
  /// tournaments that revisit a profile — or any permutation of it — pay
  /// for each solve once.
  struct StagePayoffs {
    std::vector<double> utilities;
    analytical::SolveDiagnostics diagnostics;
  };
  StagePayoffs try_stage_utilities(
      const std::vector<int>& w,
      std::optional<double> per_override = std::nullopt) const;

  /// Batched try_stage_utilities: submits every profile to the solver
  /// service, drains once, and returns the payoffs in input order. Each
  /// element is bitwise equal to the corresponding sequential
  /// try_stage_utilities call, with the same cache traffic; only the
  /// solver work is shared. Callers that only want the cache warm for
  /// later sequential calls discard the result.
  std::vector<StagePayoffs> try_stage_utilities_batch(
      const std::vector<std::vector<int>>& profiles,
      std::optional<double> per_override = std::nullopt) const;

  /// Class-space batch pricing: each entry is a canonical ClassProfile
  /// (as produced by classify_profile, class_of populated) and the result
  /// holds one stage payoff per *class* — the payoff every node of that
  /// class would get from try_stage_utilities on any expansion of the
  /// profile, bitwise (nodes of a class share tau/p exactly). This is the
  /// city-scale entry point: a 10^4-node stage submits one ticket per
  /// distinct local profile, solves only its distinct
  /// (neighborhood-size, window-mix, PER) classes, and copies each
  /// distinct profile's payoffs out to its repeats. Profiles with no
  /// classes yield kFailed/"invalid".
  using ClassPayoffs = StagePayoffs;  ///< utilities sized class_count()
  std::vector<ClassPayoffs> try_class_utilities_batch(
      const std::vector<analytical::ClassProfile>& profiles,
      std::optional<double> per_override = std::nullopt) const;

  /// Utility rate of one node when all n nodes play w (memoized).
  double homogeneous_utility_rate(int w, int n) const;

  /// Stage payoff of one node when all n nodes play w.
  double homogeneous_stage_utility(int w, int n) const;

  /// Σ_i U_i^s over a homogeneous profile: the social welfare of a stage.
  double social_welfare(int w, int n) const;

  /// Normalized global payoff U/C (Figures 2–3 y-axis).
  double normalized_global_payoff(int w, int n) const;

  /// Traffic counters of the solver service's cache (every
  /// heterogeneous payoff entry point routes through it); benches print
  /// these to show how much of a run the class-canonical key
  /// deduplicates.
  analytical::SolveCacheStats solve_cache_stats() const {
    return solver_.cache_stats();
  }

 private:
  /// The one pricing step of every heterogeneous entry point. A profile
  /// with no classes short-circuits to kFailed/"invalid" without calling
  /// `solve`; otherwise `solve()` yields the class-space result, which is
  /// expanded through class_of, priced with analytical::utility_rates and
  /// scaled by T — when the solve is usable, or whatever its status with
  /// `price_unusable`.
  template <typename Solve>
  StagePayoffs price(const analytical::ClassProfile& classes, Solve&& solve,
                     bool price_unusable = false) const;
  /// Submits every distinct profile with classes (one ticket per exact
  /// profile, counted once per request), drains once, prices each
  /// distinct profile, applies `finish(profile, payoffs)` to it, and
  /// copies the result out to every request in input order.
  template <typename Finish>
  std::vector<StagePayoffs> price_batch(
      const std::vector<analytical::ClassProfile>& profiles,
      std::optional<double> per_override, Finish&& finish) const;

  phy::Parameters params_;
  phy::AccessMode mode_;
  mutable std::mutex cache_mutex_;
  mutable std::map<std::pair<int, int>, double> homogeneous_cache_;
  /// Every heterogeneous evaluation routes through this service (see
  /// docs/SOLVER_API.md).
  analytical::SolverService solver_;
};

}  // namespace smac::game
