// Enforced tournament workload: a game::Tournament on RTS/CTS among the
// enforcement-aware residents and the deviant cast, under observation
// noise, scored by invasion_matrix and round_robin_scores.
//
// It reaches the solver through many small per-profile payoff lookups
// from the repeated-game and enforcement loop (mostly cache hits), not
// through one class batch as the city workloads do.
#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fault/fault_plan.hpp"
#include "game/equilibrium.hpp"
#include "game/reaction.hpp"
#include "game/stage_game.hpp"
#include "game/tournament.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace smac;

constexpr int kPlayers = 10;

struct Setup {
  int w_star = 0;
  std::vector<game::Contender> roster;
};

Setup make_setup(const game::StageGame& game) {
  Setup s;
  s.w_star = game::EquilibriumFinder(game, kPlayers).efficient_cw();
  s.roster = game::enforcement_roster(game, kPlayers, s.w_star);
  for (game::Contender& c : game::deviant_roster(s.w_star)) {
    s.roster.push_back(std::move(c));
  }
  return s;
}

void configure(game::Tournament& t, int w_star, std::uint64_t seed) {
  game::ReactionConfig rc;
  rc.w_agreed = w_star;
  t.set_enforcement(rc);
  fault::FaultPlan plan;
  plan.observation.noise_probability = 0.05;
  plan.observation.noise_magnitude = 4;
  t.set_fault_plan(plan, seed);
}

Outputs outputs(const Setup& s, const std::vector<std::vector<bool>>& matrix,
                const std::vector<double>& scores) {
  Outputs out;
  out.add("w_star", s.w_star);
  for (std::size_t i = 0; i < s.roster.size(); ++i) {
    std::string row;
    for (const bool resists : matrix[i]) row += resists ? '1' : '0';
    out.add("resists." + s.roster[i].name, row);
    out.add("score." + s.roster[i].name, scores[i]);
  }
  return out;
}

Outputs run_untraced(int stages, std::uint64_t seed) {
  const game::StageGame game(phy::Parameters::paper(), phy::AccessMode::kRtsCts);
  const Setup s = make_setup(game);
  game::Tournament t(game, kPlayers, stages, kWorkers);
  configure(t, s.w_star, seed);
  const auto matrix = t.invasion_matrix(s.roster);
  return outputs(s, matrix, t.round_robin_scores(s.roster));
}

Outputs run_traced(int stages, std::uint64_t seed, Trace& trace,
                   LayerMetrics& m, Failures&) {
  std::optional<game::StageGame> game_slot;
  {
    const Trace::Scope span(trace, "game.stage_game.setup");
    game_slot.emplace(phy::Parameters::paper(), phy::AccessMode::kRtsCts);
  }
  const game::StageGame& game = *game_slot;
  Setup s;
  {
    const Trace::Scope span(trace, "game.equilibrium");
    s = make_setup(game);
    m["game.equilibrium.ms"] += span.ms();
  }
  // Every strategy the tournament instantiates goes through a roster
  // factory, and a mix instantiates one per player, so the count over n is
  // the mixes played (plus one strategy per contender for each probe of
  // the roster's opening windows).
  std::atomic<std::uint64_t> instances{0};
  for (game::Contender& c : s.roster) {
    c.make = [make = std::move(c.make), &instances] {
      instances.fetch_add(1, std::memory_order_relaxed);
      return make();
    };
  }
  std::optional<game::Tournament> t;
  {
    const Trace::Scope span(trace, "game.tournament.setup");
    t.emplace(game, kPlayers, stages, kWorkers);
    configure(*t, s.w_star, seed);
  }
  std::vector<std::vector<bool>> matrix;
  {
    const Trace::Scope span(trace, "game.tournament.invasion_matrix");
    matrix = t->invasion_matrix(s.roster);
    m["game.tournament.invasion_ms"] += span.ms();
  }
  std::vector<double> scores;
  {
    const Trace::Scope span(trace, "game.tournament.round_robin_scores");
    scores = t->round_robin_scores(s.roster);
    m["game.tournament.round_robin_ms"] += span.ms();
  }
  m["game.tournament.mixes"] =
      static_cast<double>(instances.load()) / kPlayers;
  const analytical::SolveCacheStats cache = game.solve_cache_stats();
  const double lookups = static_cast<double>(cache.hits + cache.misses);
  m["analytical.solver.lookups"] = lookups;
  m["analytical.solver.hits"] = static_cast<double>(cache.hits);
  m["analytical.solver.misses"] = static_cast<double>(cache.misses);
  m["analytical.solver.hit_rate"] =
      lookups > 0 ? static_cast<double>(cache.hits) / lookups : 0.0;
  {
    const Trace::Scope span(trace, "teardown");
    t.reset();
    game_slot.reset();
  }
  return outputs(s, matrix, scores);
}

}  // namespace

Workload enforced_tournament(bool toy) {
  const int stages = toy ? 40 : 600;
  return {"enforced_tournament",
          [stages](std::uint64_t seed) { return run_untraced(stages, seed); },
          [stages](std::uint64_t seed, Trace& trace, LayerMetrics& m,
                   Failures& failures) {
            return run_traced(stages, seed, trace, m, failures);
          }};
}

}  // namespace perfbench
