// End-to-end cross-validation of the analytical model against the
// slot-level simulator — the same comparison the paper runs between its
// Markov model and NS-2 (Tables II/III), at test-sized scale.
#include <gtest/gtest.h>

#include "game/equilibrium.hpp"
#include "game/stage_game.hpp"
#include "sim/simulator.hpp"
#include "util/optimize.hpp"

namespace smac {
namespace {

const phy::Parameters kParams = phy::Parameters::paper();

struct ModeCase {
  phy::AccessMode mode;
  int n;
};

class ModelVsSimSweep : public ::testing::TestWithParam<ModeCase> {};

TEST_P(ModelVsSimSweep, SimulatedPayoffPeaksNearModelNe) {
  // The simulated per-node payoff, swept over common windows, must peak
  // near the model's W_c* — this is exactly what the paper's Tables II/III
  // report (model W_c* vs simulated argmax).
  const auto [mode, n] = GetParam();
  const game::StageGame game(kParams, mode);
  const int w_star = game::EquilibriumFinder(game, n).efficient_cw();

  // Probe a geometric grid of windows around W_c*; the payoff measured at
  // W_c* must be within a few percent of the best payoff on the grid.
  // (The landscape near W_c* is a wide plateau — the paper's "robust and
  // tolerant" observation — so the *payoff* is the right metric, not the
  // exact argmax window, which wanders under measurement noise.)
  auto simulated_payoff = [&](int w) {
    sim::SimConfig config;
    config.mode = mode;
    config.seed = 1234 + static_cast<std::uint64_t>(w);
    sim::Simulator simulator(config, std::vector<int>(n, w));
    return simulator.run_slots(250000).payoff_rate[0];
  };
  double best_payoff = -1e30;
  for (double f : {0.25, 0.5, 0.75, 1.0, 1.5, 2.5, 4.0}) {
    const int w = std::max(1, static_cast<int>(w_star * f));
    best_payoff = std::max(best_payoff, simulated_payoff(w));
  }
  EXPECT_GE(simulated_payoff(w_star), 0.93 * best_payoff);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ModelVsSimSweep,
    ::testing::Values(ModeCase{phy::AccessMode::kBasic, 5},
                      ModeCase{phy::AccessMode::kRtsCts, 5},
                      ModeCase{phy::AccessMode::kRtsCts, 10}));

TEST(ModelVsSimTest, StageUtilityMatchesAcrossEngines) {
  // Measured stage payoff (sim) vs analytical stage utility at the same
  // profile, heterogeneous case.
  const std::vector<int> profile{30, 60, 120, 240};
  const game::StageGame game(kParams, phy::AccessMode::kBasic);
  std::vector<double> model_u = game.stage_utilities(profile);
  for (double& u : model_u) u /= game.stage_duration_us();

  sim::SimConfig config;
  config.seed = 77;
  sim::Simulator simulator(config, profile);
  const auto r = simulator.run_slots(400000);
  for (std::size_t i = 0; i < profile.size(); ++i) {
    EXPECT_NEAR(r.payoff_rate[i], model_u[i],
                0.10 * std::abs(model_u[i]) + 1e-9)
        << "node " << i;
  }
}

TEST(ModelVsSimTest, GlobalPayoffCurveShapesAgree) {
  // Figure 2's qualitative shape, checked in simulation: payoff rises
  // from a tiny window toward W_c*, then falls well beyond it.
  const int n = 5;
  const game::StageGame game(kParams, phy::AccessMode::kBasic);
  const int w_star = game::EquilibriumFinder(game, n).efficient_cw();

  auto simulated_global = [&](int w) {
    sim::SimConfig config;
    config.seed = 31337;
    sim::Simulator simulator(config, std::vector<int>(n, w));
    const auto r = simulator.run_slots(150000);
    double total = 0.0;
    for (double u : r.payoff_rate) total += u;
    return total;
  };
  const double at_tiny = simulated_global(std::max(1, w_star / 16));
  const double at_star = simulated_global(w_star);
  const double at_huge = simulated_global(w_star * 12);
  EXPECT_GT(at_star, at_tiny);
  EXPECT_GT(at_star, at_huge);
}

}  // namespace
}  // namespace smac
