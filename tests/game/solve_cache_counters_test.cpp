// Pins the game layer's solve-cache traffic. Tournaments, deviation
// scans and fault-aware repeated games all price profiles through the
// StageGame's SolverService; the (size, hits, misses) triple after each
// run is a deterministic function of the run's inputs — independent of
// --jobs and of how requests are batched — so any change to how the game
// layer reaches the solver shows up here as a counter drift.
#include <cstdint>
#include <memory>
#include <vector>

#include "analytical/solver_service.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "game/deviation.hpp"
#include "game/equilibrium.hpp"
#include "game/repeated_game.hpp"
#include "game/stage_game.hpp"
#include "game/tournament.hpp"
#include "gtest/gtest.h"
#include "phy/parameters.hpp"

namespace smac::game {
namespace {

constexpr int kPlayers = 6;

struct Counters {
  std::size_t size;
  std::uint64_t hits;
  std::uint64_t misses;
};

void expect_counters(const StageGame& game, const Counters& want) {
  const analytical::SolveCacheStats got = game.solve_cache_stats();
  EXPECT_EQ(got.size, want.size);
  EXPECT_EQ(got.hits, want.hits);
  EXPECT_EQ(got.misses, want.misses);
}

TEST(SolveCacheCounters, TournamentIsPinnedAtAnyJobs) {
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(jobs);
    const StageGame game(phy::Parameters::paper(), phy::AccessMode::kRtsCts);
    const int w_star = EquilibriumFinder(game, kPlayers).efficient_cw();
    const std::vector<Contender> roster =
        standard_roster(game, kPlayers, w_star);
    const Tournament tournament(game, kPlayers, 40, jobs);
    (void)tournament.invasion_matrix(roster);
    (void)tournament.round_robin_scores(roster);
    expect_counters(game, {22, 8393, 22});
  }
}

TEST(SolveCacheCounters, ShortSightedScanIsPinned) {
  const StageGame game(phy::Parameters::paper(), phy::AccessMode::kRtsCts);
  const int w_star = EquilibriumFinder(game, kPlayers).efficient_cw();
  (void)best_shortsighted_deviation(game, kPlayers, w_star, 0.9, 2);
  expect_counters(game, {19, 0, 19});
}

TEST(SolveCacheCounters, FaultyRepeatedGameIsPinned) {
  fault::FaultPlan plan;
  plan.scripted.push_back({3, 0, fault::FaultKind::kCrash});
  plan.scripted.push_back({8, 0, fault::FaultKind::kJoin});
  plan.churn.crash_rate = 0.05;
  plan.churn.recover_rate = 0.3;
  plan.channel.p_good_to_bad = 0.2;
  plan.channel.p_bad_to_good = 0.4;
  plan.channel.per_bad = 0.4;
  plan.observation.loss_probability = 0.1;
  plan.observation.noise_probability = 0.1;
  plan.observation.noise_magnitude = 3;
  const StageGame game(phy::Parameters::paper(), phy::AccessMode::kRtsCts);
  fault::FaultInjector injector(plan, 5, 17);
  RepeatedGameEngine engine(game, make_tft_population(5, 32));
  (void)engine.play(30, &injector);
  expect_counters(game, {24, 6, 24});
}

}  // namespace
}  // namespace smac::game
