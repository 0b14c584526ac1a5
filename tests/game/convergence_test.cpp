#include "game/convergence.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "game/strategies.hpp"
#include "multihop/adaptive.hpp"

namespace smac::game {
namespace {

History horizon(const std::vector<std::vector<int>>& profiles) {
  History history;
  for (const auto& cw : profiles) history.push_back({cw, {}, {}});
  return history;
}

TEST(ConvergenceFactsTest, OneStageRun) {
  const ConvergenceFacts uniform = convergence_facts(horizon({{9, 9, 9}}));
  EXPECT_EQ(uniform.converged_cw, 9);
  EXPECT_EQ(uniform.stable_from, 0);

  const ConvergenceFacts mixed = convergence_facts(horizon({{9, 4}}));
  EXPECT_FALSE(mixed.converged_cw.has_value());
  EXPECT_EQ(mixed.stable_from, 0);
}

TEST(ConvergenceFactsTest, RunThatNeverSettles) {
  // Every stage differs from the one before: only the last stage is part
  // of the final stable suffix.
  const ConvergenceFacts facts =
      convergence_facts(horizon({{64, 64}, {32, 32}, {16, 16}, {8, 8}}));
  EXPECT_EQ(facts.converged_cw, 8);
  EXPECT_EQ(facts.stable_from, 3);
}

TEST(ConvergenceFactsTest, NonUniformFinalProfile) {
  const ConvergenceFacts facts = convergence_facts(
      horizon({{64, 64, 64}, {64, 20, 64}, {20, 20, 64}, {20, 20, 64}}));
  EXPECT_FALSE(facts.converged_cw.has_value());
  EXPECT_EQ(facts.stable_from, 2);
}

TEST(ConvergenceFactsTest, StableFromStageZero) {
  const ConvergenceFacts facts =
      convergence_facts(horizon({{40, 40}, {40, 40}, {40, 40}}));
  EXPECT_EQ(facts.converged_cw, 40);
  EXPECT_EQ(facts.stable_from, 0);
}

TEST(ConvergenceFactsTest, ReturnToAnEarlierProfileCountsOnlyTheSuffix) {
  // The final profile was also played at stage 0, but the profile moved
  // in between: stability starts where the final run of it starts.
  const ConvergenceFacts facts =
      convergence_facts(horizon({{16, 16}, {8, 16}, {16, 16}, {16, 16}}));
  EXPECT_EQ(facts.converged_cw, 16);
  EXPECT_EQ(facts.stable_from, 2);
}

TEST(ConvergenceFactsTest, EmptyHorizonHasNoFacts) {
  const ConvergenceFacts facts = convergence_facts(History{});
  EXPECT_FALSE(facts.converged_cw.has_value());
  EXPECT_EQ(facts.stable_from, 0);
}

TEST(ConvergenceFactsTest, MultihopStagesUseTheSameDefinition) {
  std::vector<multihop::MultihopStage> stages(3);
  stages[0].cw = {32, 16, 32};
  stages[1].cw = {16, 16, 16};
  stages[2].cw = {16, 16, 16};
  const ConvergenceFacts facts = convergence_facts(stages);
  EXPECT_EQ(facts.converged_cw, 16);
  EXPECT_EQ(facts.stable_from, 1);
}

}  // namespace
}  // namespace smac::game
