// Batched stage-payoff evaluation through the solver service.
//
// StageGame::try_stage_utilities_batch promises payoffs bitwise equal to
// per-profile try_stage_utilities calls, and a batch used only to warm
// the cache makes later sequential evaluations of its profiles cache
// hits (src/game/stage_game.hpp).
#include "game/stage_game.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

namespace smac::game {
namespace {

phy::Parameters test_params() {
  phy::Parameters params;  // defaults are the paper's 802.11 DCF setup
  return params;
}

void expect_bits_equal(const std::vector<double>& a,
                       const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i]),
              std::bit_cast<std::uint64_t>(b[i]))
        << "index " << i;
  }
}

TEST(StageGameBatchTest, BatchMatchesSequentialBitwise) {
  const StageGame game(test_params(), phy::AccessMode::kBasic);
  const std::vector<std::vector<int>> profiles{
      {32, 32, 32, 32},          // homogeneous
      {8, 32, 32, 32},           // one deviant
      {32, 32, 32, 8},           // its permutation
      {1, 1024, 64, 64, 64},     // wide spread
      {},                        // invalid: empty
      {16, 16},
  };
  const std::vector<StageGame::StagePayoffs> batched =
      game.try_stage_utilities_batch(profiles);
  ASSERT_EQ(batched.size(), profiles.size());
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    const StageGame::StagePayoffs one = game.try_stage_utilities(profiles[i]);
    EXPECT_EQ(batched[i].diagnostics.status, one.diagnostics.status)
        << "profile " << i;
    EXPECT_STREQ(batched[i].diagnostics.method, one.diagnostics.method)
        << "profile " << i;
    expect_bits_equal(batched[i].utilities, one.utilities);
  }
  EXPECT_EQ(batched[4].diagnostics.status, analytical::SolveStatus::kFailed);
  EXPECT_TRUE(batched[4].utilities.empty());
}

TEST(StageGameBatchTest, BatchHonorsPerOverride) {
  const StageGame game(test_params(), phy::AccessMode::kBasic);
  const std::vector<std::vector<int>> profiles{{16, 64, 64}};
  const auto batched = game.try_stage_utilities_batch(profiles, 0.3);
  const auto one = game.try_stage_utilities(profiles[0], 0.3);
  expect_bits_equal(batched[0].utilities, one.utilities);
  // And it is genuinely a different point than the base PER.
  const auto base = game.try_stage_utilities(profiles[0]);
  EXPECT_NE(base.utilities[0], batched[0].utilities[0]);
}

TEST(StageGameBatchTest, PrefetchTurnsSequentialSolvesIntoHits) {
  const StageGame game(test_params(), phy::AccessMode::kBasic);
  const std::vector<std::vector<int>> profiles{
      {8, 32, 32}, {32, 32, 8}, {16, 16, 16}};
  (void)game.try_stage_utilities_batch(profiles);
  const analytical::SolveCacheStats warmed = game.solve_cache_stats();
  EXPECT_EQ(warmed.size, 2u);    // two canonical keys (one permutation pair)
  EXPECT_EQ(warmed.misses, 2u);
  EXPECT_EQ(warmed.hits, 1u);    // the permutation

  // Sequential evaluations of warmed profiles are pure hits.
  for (const auto& w : profiles) game.stage_utilities(w);
  const analytical::SolveCacheStats after = game.solve_cache_stats();
  EXPECT_EQ(after.misses, warmed.misses);
  EXPECT_EQ(after.hits, warmed.hits + profiles.size());
}

}  // namespace
}  // namespace smac::game
