#include "game/tournament.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>
#include <utility>

#include "game/equilibrium.hpp"
#include "parallel/replication.hpp"
#include "parallel/thread_pool.hpp"

namespace smac::game {

namespace {

/// Opening contention windows of a roster, or empty when any factory is
/// null (the subsequent play_mix raises the error in that case).
std::vector<int> opening_windows(const std::vector<Contender>& roster) {
  if (!std::all_of(roster.begin(), roster.end(), [](const Contender& c) {
        return static_cast<bool>(c.make);
      })) {
    return {};
  }
  std::vector<int> opening(roster.size());
  for (std::size_t i = 0; i < roster.size(); ++i) {
    opening[i] = roster[i].make()->initial_cw();
  }
  return opening;
}

}  // namespace

Tournament::Tournament(const StageGame& game, int n_players, int stages,
                       std::size_t jobs)
    : game_(game), n_(n_players), stages_(stages), jobs_(jobs) {
  if (n_players < 2) throw std::invalid_argument("Tournament: n < 2");
  if (stages < 1) throw std::invalid_argument("Tournament: stages < 1");
}

void Tournament::set_fault_plan(fault::FaultPlan plan, std::uint64_t seed) {
  plan.validate();
  fault_plan_ = std::move(plan);
  fault_seed_ = seed;
}

void Tournament::set_enforcement(std::optional<ReactionConfig> config) {
  if (config) config->validate();
  enforcement_ = std::move(config);
}

MixOutcome Tournament::play_mix(const Contender& a, const Contender& b,
                                int count_a) const {
  // One injector per mix, seeded off the mix size: every play_mix call
  // is self-contained, so fan-out order cannot perturb fault draws.
  return play_mix_impl(
      a, b, count_a,
      parallel::stream_seed(fault_seed_, static_cast<std::uint64_t>(
                                             std::max(count_a, 0))));
}

MixOutcome Tournament::play_mix_impl(const Contender& a, const Contender& b,
                                     int count_a,
                                     std::uint64_t injector_seed) const {
  if (count_a < 0 || count_a > n_) {
    throw std::invalid_argument("Tournament: count_a outside [0, n]");
  }
  if (!a.make || !b.make) {
    throw std::invalid_argument("Tournament: null contender factory");
  }
  std::vector<std::unique_ptr<Strategy>> players;
  players.reserve(static_cast<std::size_t>(n_));
  for (int i = 0; i < n_; ++i) {
    players.push_back(i < count_a ? a.make() : b.make());
  }
  RepeatedGameEngine engine(game_, std::move(players));
  if (enforcement_) engine.set_enforcement(enforcement_);
  RepeatedGameResult result;
  if (fault_plan_.empty()) {
    result = engine.play(stages_);
  } else {
    fault::FaultInjector injector(fault_plan_, static_cast<std::size_t>(n_),
                                  injector_seed);
    result = engine.play(stages_, &injector);
  }

  MixOutcome outcome;
  outcome.count_a = count_a;
  outcome.degradation = result.degradation;
  outcome.enforcement = result.enforcement;
  outcome.count_b = n_ - count_a;
  for (int i = 0; i < n_; ++i) {
    const double u = result.discounted_utility[static_cast<std::size_t>(i)];
    if (i < count_a) {
      outcome.payoff_a += u / std::max(count_a, 1);
    } else {
      outcome.payoff_b += u / std::max(n_ - count_a, 1);
    }
  }
  return outcome;
}

parallel::ReplicationSummary Tournament::play_mix_replicated(
    const Contender& a, const Contender& b, int count_a,
    const parallel::StoppingRule& rule) const {
  if (rule.max_reps == 0) {
    throw std::invalid_argument("play_mix_replicated: rule.max_reps == 0");
  }
  static const std::vector<std::string> names{"payoff A", "payoff B"};
  // The replication family hangs off the mix's own seed, so replication 0
  // differs from the single-shot play_mix trajectory and families of
  // different mixes stay disjoint.
  const std::uint64_t mix_seed = parallel::stream_seed(
      fault_seed_, static_cast<std::uint64_t>(std::max(count_a, 0)));
  const parallel::ReplicationRunner runner({rule.max_reps, mix_seed, jobs_});
  return runner.run_sequential(
      names, rule, [&](std::uint64_t seed, std::size_t /*index*/) {
        const MixOutcome o = play_mix_impl(a, b, count_a, seed);
        return std::vector<double>{o.payoff_a, o.payoff_b};
      });
}

bool Tournament::resists_invasion(const Contender& resident,
                                  const Contender& mutant,
                                  double tolerance) const {
  // One mutant (group B) among n−1 residents vs the pure-A counterfactual.
  const MixOutcome invaded = play_mix(resident, mutant, n_ - 1);
  const MixOutcome pure = play_mix(resident, mutant, n_);
  return invaded.payoff_b <=
         pure.payoff_a + tolerance * std::abs(pure.payoff_a);
}

std::vector<std::vector<bool>> Tournament::invasion_matrix(
    const std::vector<Contender>& roster, double tolerance) const {
  std::vector<std::vector<bool>> matrix(
      roster.size(), std::vector<bool>(roster.size(), true));
  // Flatten the off-diagonal pairs so each can run as one pool task.
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  for (std::size_t i = 0; i < roster.size(); ++i) {
    for (std::size_t j = 0; j < roster.size(); ++j) {
      if (i != j) pairs.emplace_back(i, j);
    }
  }
  // Every pair's stage-0 profiles (one mutant among residents, and the
  // pure-resident counterfactual) are known upfront: warm the shared
  // solve cache in one batched drain (the payoffs themselves are
  // discarded) so the fan-out's opening solves are hits instead of
  // duplicated misses across workers.
  if (const std::vector<int> opening = opening_windows(roster);
      !opening.empty()) {
    std::set<std::vector<int>> distinct;
    for (const auto& [i, j] : pairs) {
      std::vector<int> invaded(static_cast<std::size_t>(n_), opening[j]);
      std::fill_n(invaded.begin(), n_ - 1, opening[i]);
      distinct.insert(std::move(invaded));
      distinct.insert(
          std::vector<int>(static_cast<std::size_t>(n_), opening[i]));
    }
    (void)game_.try_stage_utilities_batch({distinct.begin(), distinct.end()});
  }
  // std::vector<bool> is bit-packed, so concurrent writes to matrix[i][j]
  // would race; stage into a byte vector instead.
  std::vector<char> verdicts(pairs.size(), 0);
  parallel::for_each_index(jobs_, pairs.size(), [&](std::size_t k) {
    const auto [i, j] = pairs[k];
    verdicts[k] = resists_invasion(roster[i], roster[j], tolerance) ? 1 : 0;
  });
  for (std::size_t k = 0; k < pairs.size(); ++k) {
    matrix[pairs[k].first][pairs[k].second] = verdicts[k] != 0;
  }
  return matrix;
}

std::vector<double> Tournament::round_robin_scores(
    const std::vector<Contender>& roster) const {
  // Every (i, j, count_a) mix is independent; fan them out, then reduce
  // per roster member in enumeration order (fixed flop sequence ⇒ scores
  // bit-identical for any jobs value).
  struct Mix {
    std::size_t i, j;
    int count_a;
  };
  std::vector<Mix> mixes;
  for (std::size_t i = 0; i < roster.size(); ++i) {
    for (std::size_t j = 0; j < roster.size(); ++j) {
      if (i == j) continue;
      for (int count_a = 1; count_a < n_; ++count_a) {
        mixes.push_back({i, j, count_a});
      }
    }
  }
  // Same batched warm-up as invasion_matrix: every mix's stage-0 profile
  // is a function of the two contenders' opening windows and count_a.
  if (const std::vector<int> opening = opening_windows(roster);
      !opening.empty()) {
    std::set<std::vector<int>> distinct;
    for (const Mix& mix : mixes) {
      std::vector<int> profile(static_cast<std::size_t>(n_),
                               opening[mix.j]);
      std::fill_n(profile.begin(), mix.count_a, opening[mix.i]);
      distinct.insert(std::move(profile));
    }
    (void)game_.try_stage_utilities_batch({distinct.begin(), distinct.end()});
  }
  std::vector<double> payoff_a(mixes.size(), 0.0);
  parallel::for_each_index(jobs_, mixes.size(), [&](std::size_t k) {
    payoff_a[k] =
        play_mix(roster[mixes[k].i], roster[mixes[k].j], mixes[k].count_a)
            .payoff_a;
  });
  std::vector<double> scores(roster.size(), 0.0);
  std::vector<int> samples(roster.size(), 0);
  for (std::size_t k = 0; k < mixes.size(); ++k) {
    scores[mixes[k].i] += payoff_a[k];
    ++samples[mixes[k].i];
  }
  for (std::size_t i = 0; i < scores.size(); ++i) {
    if (samples[i] > 0) scores[i] /= samples[i];
  }
  return scores;
}

namespace {

/// A Contender whose display name is the strategy's own name() — the
/// full parameter set (β, r0, trigger/clean stages, …), so bench output
/// disambiguates configurations instead of hand-written labels drifting
/// out of sync with the factory.
Contender make_contender(std::function<std::unique_ptr<Strategy>()> make) {
  Contender c;
  c.name = make()->name();
  c.make = std::move(make);
  return c;
}

}  // namespace

std::vector<Contender> standard_roster(const StageGame& game, int n,
                                       int w_coop) {
  (void)game;
  (void)n;
  std::vector<Contender> roster;
  roster.push_back(make_contender(
      [w_coop] { return std::make_unique<TitForTat>(w_coop); }));
  roster.push_back(make_contender([w_coop] {
    return std::make_unique<GenerousTitForTat>(w_coop, 0.9, 3);
  }));
  roster.push_back(make_contender(
      [w_coop] { return std::make_unique<ConstantStrategy>(w_coop); }));
  roster.push_back(make_contender([w_coop] {
    return std::make_unique<ShortSightedStrategy>(std::max(1, w_coop / 4));
  }));
  // The forgiving cast (observation-robust reaction rules; see
  // src/game/forgiveness_grid.hpp for the noise scenarios they exist for).
  roster.push_back(make_contender(
      [w_coop] { return std::make_unique<ContriteTitForTat>(w_coop, 3); }));
  roster.push_back(make_contender([w_coop] {
    return std::make_unique<ForgivingGtft>(w_coop, 0.9, 3, 2, 2);
  }));
  return roster;
}

std::vector<Contender> enforcement_roster(const StageGame& game, int n,
                                          int w_coop) {
  (void)game;
  (void)n;
  std::vector<Contender> roster;
  roster.push_back(make_contender(
      [w_coop] { return std::make_unique<TitForTat>(w_coop); }));
  roster.push_back(make_contender([w_coop] {
    return std::make_unique<GenerousTitForTat>(w_coop, 0.9, 3);
  }));
  roster.push_back(make_contender(
      [w_coop] { return std::make_unique<ContriteTitForTat>(w_coop, 3); }));
  roster.push_back(make_contender([w_coop] {
    return std::make_unique<ForgivingGtft>(w_coop, 0.9, 3, 2, 2);
  }));
  return roster;
}

std::vector<Contender> deviant_roster(int w_coop, int attack_stage) {
  std::vector<Contender> roster;
  roster.push_back(make_contender([w_coop] {
    return std::make_unique<ShortSightedStrategy>(std::max(1, w_coop / 4));
  }));
  roster.push_back(make_contender([w_coop, attack_stage] {
    return std::make_unique<MaliciousStrategy>(w_coop, 2, attack_stage);
  }));
  return roster;
}

}  // namespace smac::game
