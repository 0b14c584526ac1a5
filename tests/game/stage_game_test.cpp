#include "game/stage_game.hpp"

#include <gtest/gtest.h>

#include "analytical/utility.hpp"

namespace smac::game {
namespace {

const phy::Parameters kParams = phy::Parameters::paper();
constexpr auto kBasic = phy::AccessMode::kBasic;

TEST(StageGameTest, RejectsInvalidParameters) {
  phy::Parameters bad = kParams;
  bad.discount = 1.5;
  EXPECT_THROW(StageGame(bad, kBasic), std::invalid_argument);
}

TEST(StageGameTest, RejectsEmptyProfile) {
  const StageGame game(kParams, kBasic);
  EXPECT_THROW(game.stage_utilities({}), std::invalid_argument);
}

TEST(StageGameTest, StageUtilityIsRateTimesDuration) {
  const StageGame game(kParams, kBasic);
  const std::vector<int> profile{32, 64, 128};
  const auto rates = analytical::utility_rates(
      analytical::solve_network(profile, kParams.max_backoff_stage, {},
                                kParams.packet_error_rate),
      kParams, kBasic);
  const auto stage = game.stage_utilities(profile);
  ASSERT_EQ(rates.size(), stage.size());
  for (std::size_t i = 0; i < rates.size(); ++i) {
    EXPECT_NEAR(stage[i], rates[i] * 10.0 * 1e6, std::abs(rates[i]));
  }
}

TEST(StageGameTest, HomogeneousMatchesAnalyticalModule) {
  const StageGame game(kParams, kBasic);
  for (int w : {16, 76, 336}) {
    for (int n : {2, 5, 20}) {
      EXPECT_NEAR(game.homogeneous_utility_rate(w, n),
                  analytical::homogeneous_utility_rate(w, n, kParams, kBasic),
                  1e-18);
    }
  }
}

TEST(StageGameTest, CacheReturnsIdenticalValues) {
  const StageGame game(kParams, kBasic);
  const double first = game.homogeneous_utility_rate(76, 5);
  const double second = game.homogeneous_utility_rate(76, 5);
  EXPECT_DOUBLE_EQ(first, second);
}

TEST(StageGameTest, HomogeneousProfileAgreesWithVectorPath) {
  const StageGame game(kParams, kBasic);
  const auto stage = game.stage_utilities(std::vector<int>(5, 76));
  const double fast = game.homogeneous_utility_rate(76, 5);
  for (double u : stage) {
    EXPECT_NEAR(u / game.stage_duration_us(), fast, 1e-10);
  }
}

TEST(StageGameTest, SocialWelfareIsNTimesIndividual) {
  const StageGame game(kParams, kBasic);
  EXPECT_NEAR(game.social_welfare(100, 8),
              8.0 * game.homogeneous_stage_utility(100, 8), 1e-9);
}

TEST(StageGameTest, Lemma1StageOrdering) {
  // Within any profile, a strictly larger window earns strictly less.
  const StageGame game(kParams, kBasic);
  const std::vector<int> profile{20, 40, 80, 160, 320};
  const auto u = game.stage_utilities(profile);
  for (std::size_t i = 1; i < u.size(); ++i) {
    EXPECT_GT(u[i - 1], u[i]);
  }
}

TEST(StageGameTest, RejectsBadHomogeneousArguments) {
  const StageGame game(kParams, kBasic);
  EXPECT_THROW(game.homogeneous_utility_rate(0, 5), std::invalid_argument);
  EXPECT_THROW(game.homogeneous_utility_rate(8, 0), std::invalid_argument);
}

TEST(StageGameTest, NormalizedGlobalPayoffPositiveAtEfficientPoint) {
  const StageGame game(kParams, kBasic);
  EXPECT_GT(game.normalized_global_payoff(76, 5), 0.0);
}

}  // namespace
}  // namespace smac::game
