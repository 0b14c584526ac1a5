#include "sim/cw_estimator.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "analytical/backoff_chain.hpp"
#include "sim/adaptive_runtime.hpp"

namespace smac::sim {
namespace {

SimConfig make_config(std::uint64_t seed = 1) {
  SimConfig config;
  config.seed = seed;
  return config;
}

TEST(InvertWindowTest, RoundTripsTheBackoffRelation) {
  // τ(W, p) → invert → W, across windows and collision regimes.
  for (int w : {4, 16, 64, 256, 1024}) {
    for (double p : {0.0, 0.1, 0.3, 0.6}) {
      const double tau = analytical::transmission_probability(w, p, 6);
      const double w_hat = invert_window(tau, p, 6, 1e9);
      EXPECT_NEAR(w_hat, w, 1e-6) << "w=" << w << " p=" << p;
    }
  }
}

TEST(InvertWindowTest, HandlesDegenerateInputs) {
  EXPECT_DOUBLE_EQ(invert_window(0.0, 0.2, 6, 4096.0), 4096.0);  // no info
  EXPECT_DOUBLE_EQ(invert_window(1.0, 0.0, 6, 4096.0), 1.0);     // max rate
  EXPECT_GE(invert_window(0.9999, 0.9, 6, 4096.0), 1.0);
}

TEST(EstimateWindowsTest, RejectsEmptyObservation) {
  SimResult empty;
  EXPECT_THROW(estimate_windows(empty, 6), std::invalid_argument);
}

TEST(EstimateWindowsTest, RecoversHomogeneousWindows) {
  const int n = 5;
  const int w = 64;
  Simulator sim(make_config(3), std::vector<int>(n, w));
  const SimResult r = sim.run_slots(400000);
  const auto est = estimate_windows(r, 6);
  for (const auto& e : est) {
    EXPECT_NEAR(e.w_hat, w, 0.10 * w);
    EXPECT_GT(e.attempts, 100u);
  }
}

TEST(EstimateWindowsTest, RecoversHeterogeneousWindows) {
  const std::vector<int> profile{16, 64, 256};
  Simulator sim(make_config(4), profile);
  const SimResult r = sim.run_slots(600000);
  const auto est = estimate_windows(r, 6);
  for (std::size_t i = 0; i < profile.size(); ++i) {
    EXPECT_NEAR(est[i].w_hat, profile[i], 0.15 * profile[i]) << "node " << i;
  }
  // Ordering is preserved even before the estimates tighten.
  EXPECT_LT(est[0].w_hat, est[1].w_hat);
  EXPECT_LT(est[1].w_hat, est[2].w_hat);
}

TEST(EstimateWindowsTest, ErrorShrinksWithObservationLength) {
  const int w = 128;
  auto estimate_error = [&](std::uint64_t slots, std::uint64_t seed) {
    Simulator sim(make_config(seed), std::vector<int>(4, w));
    const auto est = estimate_windows(sim.run_slots(slots), 6);
    double err = 0.0;
    for (const auto& e : est) err += std::abs(e.w_hat - w) / w;
    return err / 4.0;
  };
  // Average over a few seeds to damp luck.
  double short_err = 0.0;
  double long_err = 0.0;
  for (std::uint64_t s = 0; s < 4; ++s) {
    short_err += estimate_error(8000, 10 + s);
    long_err += estimate_error(512000, 20 + s);
  }
  EXPECT_LT(long_err, short_err);
}

TEST(EstimatingStrategiesTest, ValidateConstruction) {
  auto feed = std::make_shared<std::vector<double>>();
  EXPECT_THROW(EstimatingTitForTat(0, feed), std::invalid_argument);
  EXPECT_THROW(EstimatingTitForTat(16, nullptr), std::invalid_argument);
  EXPECT_THROW(EstimatingGtft(16, 0.0, 2, feed), std::invalid_argument);
  EXPECT_THROW(EstimatingGtft(16, 0.9, 0, feed), std::invalid_argument);
  EXPECT_THROW(EstimatingGtft(16, 0.9, 2, nullptr), std::invalid_argument);
}

TEST(EstimatingRuntimeTest, ValidatesConstruction) {
  EXPECT_THROW(AdaptiveRuntime(make_config(), 0,
                               [](std::size_t, auto feed, auto) {
                                 return std::make_unique<
                                     EstimatingTitForTat>(16, feed);
                               },
                               1e5),
               std::invalid_argument);
  EXPECT_THROW(AdaptiveRuntime(
                   make_config(), 3,
                   [](std::size_t, auto, auto) {
                     return std::unique_ptr<game::Strategy>{};
                   },
                   1e5),
               std::invalid_argument);
}

TEST(EstimatingRuntimeTest, CooperativePopulationStaysNearConfiguredWindow) {
  // With long stages the estimates are tight, so estimating-TFT holds the
  // line near the common window instead of spiraling down.
  const int w = 64;
  AdaptiveRuntime runtime(
      make_config(5), 5,
      [&](std::size_t, auto feed, auto) {
        return std::make_unique<EstimatingTitForTat>(w, feed);
      },
      8e6);
  const auto result = runtime.play(6);
  const auto& final_cw = result.history.back().cw;
  for (int cw : final_cw) {
    EXPECT_NEAR(cw, w, 0.25 * w);
  }
}

TEST(EstimatingRuntimeTest, PlainTftDriftsMoreThanGtftUnderNoise) {
  // Short stages = noisy estimates. Estimating-TFT chases every downward
  // fluctuation (its window ratchets down: min over noisy estimates);
  // estimating-GTFT's tolerance band absorbs the noise. Compare the final
  // window deficits.
  const int w = 64;
  auto final_min_cw = [&](bool gtft) {
    AdaptiveRuntime runtime(
        make_config(6), 5,
        [&](std::size_t, auto feed, auto) -> std::unique_ptr<game::Strategy> {
          if (gtft) {
            return std::make_unique<EstimatingGtft>(w, 0.75, 3, feed);
          }
          return std::make_unique<EstimatingTitForTat>(w, feed);
        },
        4e5);  // short stage → noisy estimates
    const auto result = runtime.play(12);
    int min_cw = w;
    for (int cw : result.history.back().cw) min_cw = std::min(min_cw, cw);
    return min_cw;
  };
  const int tft_floor = final_min_cw(false);
  const int gtft_floor = final_min_cw(true);
  EXPECT_LE(tft_floor, gtft_floor);
  EXPECT_GE(gtft_floor, static_cast<int>(0.6 * w));
}

TEST(EstimatingRuntimeTest, EstimatesAreRecordedPerStage) {
  AdaptiveRuntime runtime(
      make_config(7), 3,
      [&](std::size_t, auto feed, auto) {
        return std::make_unique<EstimatingTitForTat>(32, feed);
      },
      1e6);
  const auto result = runtime.play(3);
  ASSERT_EQ(result.estimates_per_stage.size(), 3u);
  for (const auto& snapshot : result.estimates_per_stage) {
    ASSERT_EQ(snapshot.size(), 3u);
    for (double w_hat : snapshot) EXPECT_GE(w_hat, 1.0);
  }
}

}  // namespace
}  // namespace smac::sim
