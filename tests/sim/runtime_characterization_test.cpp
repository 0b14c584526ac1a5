// Characterization of the measured-stage loop (sim::AdaptiveRuntime).
//
// Fixed-seed runs of a plain runtime (strategies read configured windows)
// and of feed-built runtimes (estimating TFT, estimating GTFT and
// DetectorGtft on the estimate and flag feeds), pinned bitwise to values
// recorded from commit 982c90c, where the feed-built runtime was a
// separate class (EstimatingRuntime) with its own copy of the loop. That
// class reported no discounted/total utility and no stable_from; those
// were computed from its recorded history with the runtime's own
// definitions (Σ_k δ^k·U_i in stage order, the stable suffix of the
// final profile). Any change to the loop's order of decisions, set_cw
// calls, simulator windows or feed refreshes shows up here as a bit flip.
#include "sim/adaptive_runtime.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "sim/cw_estimator.hpp"

namespace smac::sim {
namespace {

struct Recorded {
  std::vector<std::vector<int>> cw;          ///< [stage][node]
  std::vector<std::vector<double>> utility;  ///< [stage][node]
  std::vector<double> discounted;
  std::vector<double> total;
  std::vector<std::vector<double>> estimates;  ///< [stage][node]
  std::vector<std::vector<bool>> flags;        ///< [stage][node]
  std::optional<int> converged_cw;
  int stable_from = 0;
};

// plain: TFT, TFT, GTFT(0.8, 2), constant 24
const Recorded kPlain = {
  {{64, 64, 64, 24},
   {24, 24, 24, 24},
   {24, 24, 24, 24},
   {24, 24, 24, 24},
   {24, 24, 24, 24}},
  {{0x1.7ae147ae147aep+2, 0x1.fa3d70a3d70a4p+2, 0x1.7c28f5c28f5c3p+2,
    0x1.5c28f5c28f5c3p+3},
   {0x1.1bd70a3d70a3dp+3, 0x1.ba3d70a3d70a4p+2, 0x1.3ae147ae147afp+2,
    0x1.7a3d70a3d70a4p+2},
   {0x1.1d1eb851eb852p+3, 0x1.1cccccccccccdp+3, 0x1.3c28f5c28f5c3p+2,
    0x1.1d1eb851eb852p+3},
   {0x1.ba3d70a3d70a4p+2, 0x1.7a3d70a3d70a4p+2, 0x1.ba3d70a3d70a4p+2,
    0x1.1cccccccccccdp+3},
   {0x1.799999999999ap+1, 0x1.3c7ae147ae148p+3, 0x1.f99999999999ap+2,
    0x1.1cccccccccccdp+3}},
  {0x1.0c6ec0b1d4b8dp+5, 0x1.3c182b0c923f5p+5, 0x1.e9a71109144e9p+4,
   0x1.5bee620458e4fp+5},
  {0x1.0c7ae147ae148p+5, 0x1.3c28f5c28f5c2p+5, 0x1.e9c28f5c28f5cp+4, 0x1.5cp+5},
  {},
  {},
  24, 1};

// feeds: EstimatingTitForTat x4
const Recorded kFeedTft = {
  {{64, 64, 64, 64},
   {53, 59, 53, 53},
   {39, 39, 39, 43},
   {31, 39, 31, 31},
   {25, 25, 25, 25}},
  {{0x1.bb851eb851eb8p+2, 0x1.3cccccccccccdp+3, 0x1.1d1eb851eb852p+3,
    0x1.7c28f5c28f5c3p+2},
   {0x1.fae147ae147aep+2, 0x1.7c28f5c28f5c3p+2, 0x1.1d1eb851eb852p+3,
    0x1.3cccccccccccdp+3},
   {0x1.f99999999999bp+2, 0x1.7bd70a3d70a3cp+3, 0x1.7ae147ae147aep+2,
    0x1.7851eb851eb84p+1},
   {0x1.f70a3d70a3d71p+1, 0x1.7b851eb851eb8p+2, 0x1.3c7ae147ae148p+3,
    0x1.3c7ae147ae148p+3},
   {0x1.7b33333333333p+3, 0x1.e666666666665p-1, 0x1.f8f5c28f5c28fp+2,
    0x1.7ae147ae147aep+2}},
  {0x1.342c763e81ac8p+5, 0x1.14add214afc6dp+5, 0x1.4c182c14ed538p+5,
   0x1.14aa29dfcdeb2p+5},
  {0x1.343d70a3d70a4p+5, 0x1.14b851eb851ecp+5, 0x1.4c28f5c28f5c3p+5,
   0x1.14b851eb851ecp+5},
  {{0x1.2bc6789c22e24p+6, 0x1.a6c68402ffa54p+5, 0x1.d49ce051662fap+5,
    0x1.5cde8d24b9ea7p+6},
   {0x1.84f8e5ff6ad2bp+5, 0x1.016f4e647f338p+6, 0x1.5afe3c397328p+5,
    0x1.3966d652f116dp+5},
   {0x1.3d52fdfbcdbd4p+5, 0x1.ed68d07bf1ed1p+4, 0x1.89c78a6151bf3p+5,
    0x1.04939b15c42dfp+6},
   {0x1.382178f189d13p+5, 0x1.382178f189d13p+5, 0x1.96769fd478b9bp+4,
    0x1.96769fd478b9bp+4},
   {0x1.96628c18bee97p+4, 0x1.24f50ab76dbp+6, 0x1.10ddf8a74d067p+5,
    0x1.72bd408c78eecp+5}},
  {{false, false, false, false},
   {false, false, false, false},
   {false, false, false, false},
   {false, false, false, false},
   {false, false, false, false}},
  25, 4};

// feeds: constant 20, EstimatingGtft(0.75, 2) x3
const Recorded kFeedGtft = {
  {{20, 64, 64, 64},
   {20, 19, 19, 19},
   {20, 19, 19, 19},
   {20, 19, 19, 19},
   {20, 19, 19, 19}},
  {{0x1.da8f5c28f5c29p+3, 0x1.1d1eb851eb852p+3, 0x1.f5c28f5c28f5bp+0,
    0x1.3ccccccccccccp+2},
   {0x1.799999999999ap+2, 0x1.7b851eb851eb8p+3, 0x1.eb851eb851eb8p-1,
    0x1.b851eb851eb85p+2},
   {0x1.3c7ae147ae148p+3, 0x1.3c7ae147ae148p+3, -0x1.47ae147ae147bp-7,
    0x1.5c28f5c28f5c3p+3},
   {0x1.bb33333333333p+3, 0x1.1cccccccccccdp+3, 0x0p+0, 0x1.f99999999999ap+2},
   {0x1.eb851eb851eb8p-1, 0x1.9bd70a3d70a3dp+3, 0x1.3c7ae147ae147p+3,
    0x1.799999999999ap+2}},
  {0x1.6b6216066ad24p+5, 0x1.a35a26b4b23ap+5, 0x1.99786d60e921fp+3,
   0x1.2404edcdc6604p+5},
  {0x1.6b70a3d70a3d7p+5, 0x1.a370a3d70a3d7p+5, 0x1.9999999999999p+3,
   0x1.24147ae147ae1p+5},
  {{0x1.330be222a96c4p+4, 0x1.179922bbbe612p+5, 0x1.32da9c3dcc9ffp+6,
    0x1.ed7700fbf962fp+5},
   {0x1.b9ac41bfefbcdp+4, 0x1.42da71924225dp+4, 0x1.0a03ed5930536p+6,
    0x1.74651f5c605dfp+4},
   {0x1.0e5a7b3814aa3p+4, 0x1.0e5a7b3814aa3p+4, 0x1.4f5396dac29d7p+7,
    0x1.f4519863774d2p+3},
   {0x1.abaa6ba87f4e3p+3, 0x1.3308e9ad0ffffp+4, 0x1.dcd65p+29,
    0x1.3308e9ad0ffffp+4},
   {0x1.686b14347224ap+5, 0x1.e3dbed229df03p+3, 0x1.18c05c099c84ap+4,
    0x1.31f3bce6a6268p+4}},
  {{true, false, false, false},
   {false, false, false, false},
   {false, false, false, false},
   {false, false, false, false},
   {false, false, false, false}},
  std::nullopt, 1};

// feeds: constant 16, DetectorGtft x3
const Recorded kFeedDetectorGtft = {
  {{16, 64, 64, 64},
   {16, 17, 17, 17},
   {16, 17, 17, 17},
   {16, 17, 17, 17}},
  {{0x1.24d70a3d70a3dp+7, 0x1.3c66666666666p+5, 0x1.ee147ae147ae1p+0,
    0x1.b947ae147ae14p+3},
   {0x1.9ab851eb851ecp+5, 0x1.5b47ae147ae14p+5, 0x1.6accccccccccdp+5,
    0x1.8af5c28f5c28fp+5},
   {0x1.a2147ae147ae1p+5, 0x1.6333333333333p+5, 0x1.5af5c28f5c28fp+5,
    0x1.631eb851eb852p+5},
   {0x1.aa7ae147ae148p+5, 0x1.f1ae147ae147bp+5, 0x1.5347ae147ae14p+5,
    0x1.e8f5c28f5c28fp+4}},
  {0x1.2f4c65752cb3ap+8, 0x1.7b13843e3fb34p+7, 0x1.0a117195a1be9p+7,
   0x1.142c8dabaa742p+7},
  {0x1.2f547ae147ae1p+8, 0x1.7b23d70a3d70ap+7, 0x1.0a1eb851eb852p+7,
   0x1.143851eb851ebp+7},
  {{0x1.0acc402180b9ap+4, 0x1.b8d2eea7c5da7p+5, 0x1.5a2710d99a4bep+8,
    0x1.d18dbfcbea2bbp+6},
   {0x1.c6e25df62f774p+3, 0x1.f5686a26bab4dp+3, 0x1.cceb13ec4ce0fp+3,
    0x1.d98f3f71363efp+3},
   {0x1.d4f34a52aea66p+3, 0x1.1a14d20b30e9dp+4, 0x1.0e1acebfb3f63p+4,
    0x1.15f56449bfc65p+4},
   {0x1.24403e8064498p+4, 0x1.02e11c7b7e323p+4, 0x1.50e178c82de13p+4,
    0x1.b9be7600f85a8p+4}},
  {{true, false, false, false},
   {false, false, false, false},
   {false, false, false, false},
   {false, false, false, false}},
  std::nullopt, 1};

// feeds: constant 16 x2, DetectorGtft x2 (modal-window tie)
const Recorded kFeedDetectorGtftTie = {
  {{16, 16, 64, 64},
   {16, 16, 14, 14},
   {16, 16, 14, 14},
   {16, 16, 14, 14}},
  {{0x1.3066666666666p+6, 0x1.67eb851eb851fp+6, 0x1.f8a3d70a3d709p+3,
    0x1.3c7ae147ae148p+4},
   {0x1.5b0a3d70a3d71p+5, 0x1.ca66666666666p+5, 0x1.5347ae147ae14p+5,
    0x1.5af5c28f5c28fp+5},
   {0x1.8accccccccccdp+5, 0x1.4b5c28f5c28f6p+5, 0x1.6b33333333333p+5,
    0x1.aa3d70a3d70a4p+5},
   {0x1.43eb851eb851fp+5, 0x1.143d70a3d70a4p+5, 0x1.0cd70a3d70a3dp+6,
    0x1.b27ae147ae148p+5}},
  {0x1.a29658dc803f1p+7, 0x1.be694821d8512p+7, 0x1.5583566390f08p+7,
   0x1.556adcd844441p+7},
  {0x1.a2a3d70a3d70ap+7, 0x1.be75c28f5c28fp+7, 0x1.55947ae147aep+7,
   0x1.557ae147ae148p+7},
  {{0x1.f76a63edc8f36p+3, 0x1.c26b461a4436dp+3, 0x1.c3dee00f1eef4p+5,
    0x1.d7c12ca0d3507p+5},
   {0x1.175c34664d052p+4, 0x1.f5c3b5bc52cffp+3, 0x1.240611151a596p+4,
    0x1.1368026058d56p+4},
   {0x1.d66f19b8af432p+3, 0x1.03d3c27a8dd09p+4, 0x1.f86bf0aba2241p+3,
    0x1.aec33a654dddp+3},
   {0x1.1c05c6c58ae11p+4, 0x1.3186546366d4ep+4, 0x1.84cb6570acf04p+3,
    0x1.b429cf91ebb03p+3}},
  {{false, true, false, false},
   {false, false, false, false},
   {false, false, false, false},
   {false, false, false, false}},
  std::nullopt, 1};

SimConfig make_config(std::uint64_t seed) {
  SimConfig config;
  config.seed = seed;
  return config;
}

std::string where(const char* what, std::size_t k, std::size_t i) {
  std::ostringstream os;
  os << what << "[" << k << "][" << i << "]";
  return os.str();
}

void expect_bits(double actual, double expected, const std::string& at) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(actual),
            std::bit_cast<std::uint64_t>(expected))
      << at << ": " << std::hexfloat << actual << " != " << expected;
}

void expect_matches(const AdaptiveResult& result, const Recorded& expected) {
  ASSERT_EQ(result.history.size(), expected.cw.size());
  for (std::size_t k = 0; k < expected.cw.size(); ++k) {
    const game::StageRecord& record = result.history[k];
    EXPECT_EQ(record.cw, expected.cw[k]) << "stage " << k;
    EXPECT_TRUE(record.online.empty()) << "stage " << k;
    ASSERT_EQ(record.utility.size(), expected.utility[k].size());
    for (std::size_t i = 0; i < record.utility.size(); ++i) {
      expect_bits(record.utility[i], expected.utility[k][i],
                  where("utility", k, i));
    }
  }
  ASSERT_EQ(result.discounted_utility.size(), expected.discounted.size());
  ASSERT_EQ(result.total_utility.size(), expected.total.size());
  for (std::size_t i = 0; i < expected.discounted.size(); ++i) {
    expect_bits(result.discounted_utility[i], expected.discounted[i],
                where("discounted", 0, i));
    expect_bits(result.total_utility[i], expected.total[i],
                where("total", 0, i));
  }
  ASSERT_EQ(result.estimates_per_stage.size(), expected.estimates.size());
  for (std::size_t k = 0; k < expected.estimates.size(); ++k) {
    ASSERT_EQ(result.estimates_per_stage[k].size(),
              expected.estimates[k].size());
    for (std::size_t i = 0; i < expected.estimates[k].size(); ++i) {
      expect_bits(result.estimates_per_stage[k][i], expected.estimates[k][i],
                  where("estimates", k, i));
    }
  }
  EXPECT_EQ(result.flags_per_stage, expected.flags);
  EXPECT_EQ(result.converged_cw, expected.converged_cw);
  EXPECT_EQ(result.stable_from, expected.stable_from);
}

TEST(RuntimeCharacterizationTest, PlainRuntimeMatchesRecording) {
  std::vector<std::unique_ptr<game::Strategy>> pop;
  pop.push_back(std::make_unique<game::TitForTat>(64));
  pop.push_back(std::make_unique<game::TitForTat>(64));
  pop.push_back(std::make_unique<game::GenerousTitForTat>(64, 0.8, 2));
  pop.push_back(std::make_unique<game::ConstantStrategy>(24));
  AdaptiveRuntime runtime(make_config(11), std::move(pop), 3e5);
  expect_matches(runtime.play(5), kPlain);
}

TEST(RuntimeCharacterizationTest, FeedBuiltTftMatchesRecording) {
  AdaptiveRuntime runtime(
      make_config(12), 4,
      [](std::size_t, auto estimates, auto) {
        return std::make_unique<EstimatingTitForTat>(64, estimates);
      },
      3e5);
  expect_matches(runtime.play(5), kFeedTft);
}

TEST(RuntimeCharacterizationTest, FeedBuiltGtftMatchesRecording) {
  AdaptiveRuntime runtime(
      make_config(13), 4,
      [](std::size_t i, auto estimates,
         auto) -> std::unique_ptr<game::Strategy> {
        if (i == 0) return std::make_unique<game::ConstantStrategy>(20);
        return std::make_unique<EstimatingGtft>(64, 0.75, 2, estimates);
      },
      3e5);
  expect_matches(runtime.play(5), kFeedGtft);
}

TEST(RuntimeCharacterizationTest, FeedBuiltDetectorGtftMatchesRecording) {
  AdaptiveRuntime runtime(
      make_config(14), 4,
      [](std::size_t i, auto estimates,
         auto flags) -> std::unique_ptr<game::Strategy> {
        if (i == 0) return std::make_unique<game::ConstantStrategy>(16);
        return std::make_unique<DetectorGtft>(64, estimates, flags);
      },
      2e6);
  expect_matches(runtime.play(4), kFeedDetectorGtft);
}

TEST(RuntimeCharacterizationTest, FeedBuiltModalTieMatchesRecording) {
  // Two-two splits: the detector's agreement window is the modal one, and
  // a tie goes to the smaller window.
  AdaptiveRuntime runtime(
      make_config(15), 4,
      [](std::size_t i, auto estimates,
         auto flags) -> std::unique_ptr<game::Strategy> {
        if (i < 2) return std::make_unique<game::ConstantStrategy>(16);
        return std::make_unique<DetectorGtft>(64, estimates, flags);
      },
      2e6);
  expect_matches(runtime.play(4), kFeedDetectorGtftTie);
}

}  // namespace
}  // namespace smac::sim
