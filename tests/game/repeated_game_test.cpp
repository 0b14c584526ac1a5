#include "game/repeated_game.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace smac::game {
namespace {

const phy::Parameters kParams = phy::Parameters::paper();
constexpr auto kBasic = phy::AccessMode::kBasic;

TEST(RepeatedGameTest, ValidatesConstruction) {
  const StageGame game(kParams, kBasic);
  EXPECT_THROW(RepeatedGameEngine(game, {}), std::invalid_argument);
  std::vector<std::unique_ptr<Strategy>> with_null;
  with_null.push_back(nullptr);
  EXPECT_THROW(RepeatedGameEngine(game, std::move(with_null)),
               std::invalid_argument);
}

TEST(RepeatedGameTest, RejectsZeroStages) {
  const StageGame game(kParams, kBasic);
  RepeatedGameEngine engine(game, make_tft_population(2, 64));
  EXPECT_THROW(engine.play(0), std::invalid_argument);
}

TEST(RepeatedGameTest, AllTftStaysPut) {
  const StageGame game(kParams, kBasic);
  RepeatedGameEngine engine(game, make_tft_population(4, 76));
  const auto result = engine.play(5);
  ASSERT_TRUE(result.converged_cw.has_value());
  EXPECT_EQ(*result.converged_cw, 76);
  EXPECT_EQ(result.stable_from, 0);
  for (const auto& record : result.history) {
    for (int w : record.cw) EXPECT_EQ(w, 76);
  }
}

TEST(RepeatedGameTest, TftConvergesToMinimumInitialWindow) {
  // Heterogeneous starts: TFT drags everyone to the smallest initial CW
  // within one stage (single hop = full observation).
  const StageGame game(kParams, kBasic);
  std::vector<std::unique_ptr<Strategy>> pop;
  pop.push_back(std::make_unique<TitForTat>(100));
  pop.push_back(std::make_unique<TitForTat>(60));
  pop.push_back(std::make_unique<TitForTat>(150));
  RepeatedGameEngine engine(game, std::move(pop));
  const auto result = engine.play(4);
  ASSERT_TRUE(result.converged_cw.has_value());
  EXPECT_EQ(*result.converged_cw, 60);
  EXPECT_EQ(result.history[0].cw, (std::vector<int>{100, 60, 150}));
  EXPECT_EQ(result.history[1].cw, (std::vector<int>{60, 60, 60}));
}

TEST(RepeatedGameTest, TftFollowsConstantDefector) {
  const StageGame game(kParams, kBasic);
  std::vector<std::unique_ptr<Strategy>> pop;
  pop.push_back(std::make_unique<ConstantStrategy>(30));
  pop.push_back(std::make_unique<TitForTat>(76));
  pop.push_back(std::make_unique<TitForTat>(76));
  RepeatedGameEngine engine(game, std::move(pop));
  const auto result = engine.play(3);
  ASSERT_TRUE(result.converged_cw.has_value());
  EXPECT_EQ(*result.converged_cw, 30);
}

TEST(RepeatedGameTest, DiscountedUtilityMatchesManualSum) {
  const StageGame game(kParams, kBasic);
  RepeatedGameEngine engine(game, make_tft_population(2, 64));
  const int stages = 6;
  const auto result = engine.play(stages);
  const double u_stage = game.homogeneous_stage_utility(64, 2);
  double expected = 0.0;
  double d = 1.0;
  for (int k = 0; k < stages; ++k) {
    expected += d * u_stage;
    d *= kParams.discount;
  }
  EXPECT_NEAR(result.discounted_utility[0], expected,
              std::abs(expected) * 1e-9);
  EXPECT_NEAR(result.total_utility[0], stages * u_stage,
              std::abs(u_stage) * 1e-6);
}

TEST(RepeatedGameTest, StableFromDetectsTransition) {
  const StageGame game(kParams, kBasic);
  std::vector<std::unique_ptr<Strategy>> pop;
  pop.push_back(std::make_unique<MaliciousStrategy>(100, 10, 3));
  pop.push_back(std::make_unique<TitForTat>(100));
  RepeatedGameEngine engine(game, std::move(pop));
  const auto result = engine.play(8);
  // Stage 0..2: (100,100); stage 3: (10,100); stage 4+: (10,10).
  EXPECT_EQ(result.history[2].cw, (std::vector<int>{100, 100}));
  EXPECT_EQ(result.history[3].cw, (std::vector<int>{10, 100}));
  EXPECT_EQ(result.history[4].cw, (std::vector<int>{10, 10}));
  EXPECT_EQ(result.stable_from, 4);
  ASSERT_TRUE(result.converged_cw.has_value());
  EXPECT_EQ(*result.converged_cw, 10);
}

TEST(RepeatedGameTest, NoConvergenceReportedWhenHeterogeneous) {
  const StageGame game(kParams, kBasic);
  std::vector<std::unique_ptr<Strategy>> pop;
  pop.push_back(std::make_unique<ConstantStrategy>(30));
  pop.push_back(std::make_unique<ConstantStrategy>(60));
  RepeatedGameEngine engine(game, std::move(pop));
  const auto result = engine.play(3);
  EXPECT_FALSE(result.converged_cw.has_value());
}

TEST(RepeatedGameTest, MyopicPopulationRatchetsDown) {
  // Everyone short-sighted: myopic best responses drive windows far below
  // the efficient NE — the Cagalj-style degradation the paper discusses.
  const StageGame game(kParams, kBasic);
  auto oracle = [&game](const std::vector<int>& profile, std::size_t self) {
    return game.stage_utilities(profile)[self];
  };
  std::vector<std::unique_ptr<Strategy>> pop;
  for (int i = 0; i < 3; ++i) {
    pop.push_back(std::make_unique<MyopicBestResponse>(76, 512, oracle));
  }
  RepeatedGameEngine engine(game, std::move(pop));
  const auto result = engine.play(6);
  const int final_w = result.history.back().cw.front();
  EXPECT_LT(final_w, 20);  // collapsed well below W_c* = 76
  // And the realized utility is far below the efficient NE's.
  const double u_final = game.homogeneous_utility_rate(
      std::max(final_w, 1), 3);
  const double u_star = game.homogeneous_utility_rate(76, 3);
  EXPECT_LT(u_final, 0.75 * u_star);
}

TEST(RepeatedGameTest, GtftPopulationStable) {
  const StageGame game(kParams, kBasic);
  RepeatedGameEngine engine(game, make_gtft_population(3, 76, 0.9, 2));
  const auto result = engine.play(5);
  ASSERT_TRUE(result.converged_cw.has_value());
  EXPECT_EQ(*result.converged_cw, 76);
}

}  // namespace
}  // namespace smac::game
