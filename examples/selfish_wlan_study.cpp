// Scenario study: a saturated single-hop WLAN of selfish stations.
//
// The motivating situation from the paper's introduction: programmable
// wireless adapters let every station set its own contention window. What
// actually happens depends on how far-sighted the stations are:
//
//   Act 1 — long-sighted TFT population: heterogeneous initial windows
//           converge to a common NE; no collapse.
//   Act 2 — one short-sighted deviator joins: it profits for m stages,
//           then TFT retaliation drags the whole WLAN down with it.
//   Act 3 — everyone myopic (the Cagalj et al. regime the paper contrasts
//           in §VIII): best responses ratchet the windows down and the
//           network degrades.
//
// Payoffs are *measured* on the slot-level simulator (Acts 1-2) and on
// the analytical engine (Act 3, where myopic best response needs a model
// oracle).
#include <cstdio>
#include <memory>
#include <vector>

#include "game/deviation.hpp"
#include "game/equilibrium.hpp"
#include "game/repeated_game.hpp"
#include "sim/adaptive_runtime.hpp"

namespace {

using namespace smac;

void print_history(const game::History& history, std::size_t highlight) {
  for (std::size_t k = 0; k < history.size(); ++k) {
    std::printf("  stage %zu: W = [", k);
    for (std::size_t i = 0; i < history[k].cw.size(); ++i) {
      std::printf(i ? " %d" : "%d", history[k].cw[i]);
    }
    std::printf("]  payoff(node %zu) = %.1f, payoff(others) = %.1f\n",
                highlight, history[k].utility[highlight],
                history[k].utility[highlight == 0 ? 1 : 0]);
  }
}

}  // namespace

int main() {
  const phy::Parameters params = phy::Parameters::paper();
  const auto mode = phy::AccessMode::kBasic;
  const game::StageGame game(params, mode);
  const int n = 5;
  const game::EquilibriumFinder finder(game, n);
  const int w_star = finder.efficient_cw();
  std::printf("WLAN: %d saturated selfish stations, basic access, "
              "W_c* = %d\n\n", n, w_star);

  // ---- Act 1: long-sighted TFT stations with heterogeneous starts ----
  std::printf("Act 1 — all TFT, heterogeneous initial windows:\n");
  {
    std::vector<std::unique_ptr<game::Strategy>> pop;
    const int starts[] = {120, 90, 200, 76, 300};
    for (int w : starts) pop.push_back(std::make_unique<game::TitForTat>(w));
    sim::SimConfig config;
    config.mode = mode;
    config.seed = 1;
    sim::AdaptiveRuntime runtime(config, std::move(pop), 5e6);
    const auto result = runtime.play(4);
    print_history(result.history, 0);
    std::printf("  -> converged to W = %d: selfishness without collapse "
                "(within the NE band [%d, %d])\n\n",
                result.converged_cw.value_or(-1),
                finder.nash_set().w_min_viable, w_star);
  }

  // ---- Act 2: one short-sighted deviator ----
  std::printf("Act 2 — a short-sighted station (delta_s -> 0) undercuts:\n");
  {
    const int w_s =
        game::best_shortsighted_deviation(game, n, w_star, 0.05, 1).w_s;
    std::vector<std::unique_ptr<game::Strategy>> pop;
    pop.push_back(std::make_unique<game::ShortSightedStrategy>(w_s));
    for (int i = 1; i < n; ++i) {
      pop.push_back(std::make_unique<game::TitForTat>(w_star));
    }
    sim::SimConfig config;
    config.mode = mode;
    config.seed = 2;
    sim::AdaptiveRuntime runtime(config, std::move(pop), 5e6);
    const auto result = runtime.play(4);
    print_history(result.history, 0);
    const double welfare =
        game::malicious_welfare_ratio(game, n, w_star, w_s);
    std::printf("  -> deviator chose W_s = %d; after retaliation the WLAN "
                "runs at %.0f%% of the efficient welfare (Sec. V.D)\n\n",
                w_s, welfare * 100.0);
  }

  // ---- Act 3: everyone myopic ----
  std::printf("Act 3 — every station plays myopic best response:\n");
  {
    auto oracle = [&game](const std::vector<int>& profile, std::size_t self) {
      return game.stage_utilities(profile)[self];
    };
    std::vector<std::unique_ptr<game::Strategy>> pop;
    for (int i = 0; i < n; ++i) {
      pop.push_back(std::make_unique<game::MyopicBestResponse>(
          w_star, params.w_max, oracle));
    }
    game::RepeatedGameEngine engine(game, std::move(pop));
    const auto result = engine.play(6);
    print_history(result.history, 0);
    const int w_end = result.history.back().cw.front();
    std::printf("  -> windows crash to W = %d in one round of best\n"
                "     responses; welfare %.0f%% of the efficient NE — the\n"
                "     short-sighted degradation of Cagalj et al. (and with\n"
                "     m = 0 backoff it would go fully negative)\n",
                w_end,
                game::malicious_welfare_ratio(game, n, w_star,
                                              std::max(1, w_end)) *
                    100.0);
  }
  return 0;
}
