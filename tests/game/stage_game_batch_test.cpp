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
#include <utility>
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

TEST(StageGameBatchTest, ExactRepeatsShareOneTicketWithSequentialTally) {
  // Exact repeats are merged into one ticket and one price() call; two
  // permutations of one canonical key are distinct profiles (they may
  // price a last ulp apart) but share one solve. Every entry must equal a
  // one-request batch bitwise, and the cache counters must equal the
  // same requests' sequential tally.
  std::vector<analytical::ClassProfile> profiles;
  for (const std::vector<int>& w : std::vector<std::vector<int>>{
           {8, 32, 32, 64},
           {16, 16},
           {8, 32, 32, 64},  // exact repeat
           {64, 32, 8, 32},  // permutation of the first
           {16, 16},
           {64, 32, 8, 32},
           {8, 32, 32, 64},
       }) {
    profiles.push_back(analytical::classify_profile(w));
  }
  analytical::ClassProfile unsorted = analytical::classify_profile({16, 32});
  std::swap(unsorted.window[0], unsorted.window[1]);
  profiles.push_back(unsorted);  // invalid, twice
  profiles.push_back(unsorted);
  profiles.emplace_back();       // no classes: never reaches the solver

  const StageGame game(test_params(), phy::AccessMode::kBasic);
  const StageGame sequential(test_params(), phy::AccessMode::kBasic);
  const auto batched = game.try_class_utilities_batch(profiles);
  ASSERT_EQ(batched.size(), profiles.size());
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    const auto one = sequential.try_class_utilities_batch({profiles[i]});
    EXPECT_EQ(batched[i].diagnostics.status, one[0].diagnostics.status)
        << "profile " << i;
    EXPECT_STREQ(batched[i].diagnostics.method, one[0].diagnostics.method)
        << "profile " << i;
    expect_bits_equal(batched[i].utilities, one[0].utilities);
  }
  EXPECT_STREQ(batched[7].diagnostics.method, "invalid");
  EXPECT_TRUE(batched[9].utilities.empty());

  const analytical::SolveCacheStats got = game.solve_cache_stats();
  const analytical::SolveCacheStats want = sequential.solve_cache_stats();
  EXPECT_EQ(got.size, want.size);
  EXPECT_EQ(got.hits, want.hits);
  EXPECT_EQ(got.misses, want.misses);
  EXPECT_EQ(got.size, 2u);
  EXPECT_EQ(got.misses, 4u);  // two fresh keys + two invalid requests
  EXPECT_EQ(got.hits, 5u);    // the other five valid requests

  // The node-space batch shares the path: same bits, same tally.
  const StageGame nodes(test_params(), phy::AccessMode::kBasic);
  const std::vector<std::vector<int>> w{{8, 32, 32}, {32, 32, 8},
                                        {8, 32, 32}, {8, 32, 32}};
  const auto node_batched = nodes.try_stage_utilities_batch(w);
  for (std::size_t i = 0; i < w.size(); ++i) {
    expect_bits_equal(node_batched[i].utilities,
                      sequential.try_stage_utilities(w[i]).utilities);
  }
  EXPECT_EQ(nodes.solve_cache_stats().misses, 1u);
  EXPECT_EQ(nodes.solve_cache_stats().hits, 3u);
}

}  // namespace
}  // namespace smac::game
