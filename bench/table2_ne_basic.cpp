// Table II — Nash Equilibrium point, basic access.
//
// Paper reports, for n = 5/20/50:
//   W_c* (model) = 76 / 336 / 879
//   W̄_c* (NS-2 simulation, per-node payoff-maximizing CW) = 75.6/337.4/880.5
//   Var(W_c*) = 3.35 / 2.78 / 2.65
//
// We reproduce all three columns: the model value from the exact discrete
// argmax of the stage utility (plus the continuous Q-root for reference),
// and the simulated per-node optimum by sweeping the common window in the
// slot-level simulator and recording, for every node, the window that
// maximized its measured payoff.
#include <cstdint>
#include <vector>

#include "bench_common.hpp"
#include "game/equilibrium.hpp"
#include "sim/simulator.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace smac;

struct SimNe {
  double mean_w = 0.0;
  double var_w = 0.0;
};

// Sweeps common windows around w_star; each node votes for the window
// that maximized its own measured payoff rate. Grid points are
// independent fixed-seed simulations fanned across `jobs`; the vote
// reduces per-point payoffs in grid order, so the result is identical at
// any job count.
SimNe simulated_ne(phy::AccessMode mode, int n, int w_star,
                   std::uint64_t slots_per_point, std::size_t jobs) {
  std::vector<int> grid;
  const int span = std::max(4, w_star / 8);
  const int step = std::max(1, span / 6);
  for (int w = w_star - span; w <= w_star + span; w += step) {
    grid.push_back(std::max(1, w));
  }

  std::vector<std::vector<double>> payoff(grid.size());
  parallel::for_each_index(jobs, grid.size(), [&](std::size_t gi) {
    const int w = grid[gi];
    sim::SimConfig config;
    config.mode = mode;
    config.seed = 0x51ab00 + static_cast<std::uint64_t>(w);
    sim::Simulator simulator(config, std::vector<int>(n, w));
    payoff[gi] = simulator.run_slots(slots_per_point).payoff_rate;
  });

  std::vector<double> best_payoff(static_cast<std::size_t>(n), -1e30);
  std::vector<int> best_w(static_cast<std::size_t>(n), grid.front());
  for (std::size_t gi = 0; gi < grid.size(); ++gi) {
    for (int i = 0; i < n; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      if (payoff[gi][idx] > best_payoff[idx]) {
        best_payoff[idx] = payoff[gi][idx];
        best_w[idx] = grid[gi];
      }
    }
  }
  std::vector<double> ws;
  ws.reserve(best_w.size());
  for (int w : best_w) ws.push_back(static_cast<double>(w));
  return {util::mean_of(ws), util::variance_of(ws)};
}

}  // namespace

int main(int argc, char** argv) {
  bench::print_header(
      "Table II: Nash Equilibrium point — basic access",
      "paper Table II (paper: model 76/336/879, sim 75.6/337.4/880.5)",
      "Model W_c* = exact discrete argmax; W_cont = Lemma 3 Q-root;\n"
      "sim = per-node payoff-maximizing common CW in the slot simulator.");
  const std::size_t jobs = bench::jobs_option(argc, argv);
  bench::print_jobs(jobs);

  const phy::Parameters params = phy::Parameters::paper();
  const game::StageGame game(params, phy::AccessMode::kBasic);

  util::TextTable table({"n", "Wc* (paper)", "Wc* (model)", "Wc (Q-root)",
                         "Wc* (sim mean)", "Var(Wc*) (sim)"});
  const struct { int n; int paper; } rows[] = {{5, 76}, {20, 336}, {50, 879}};
  for (const auto& row : rows) {
    const game::EquilibriumFinder finder(game, row.n);
    const int w_star = finder.efficient_cw();
    const auto w_cont = finder.w_star_continuous();
    // Longer measurement for larger n: per-node success counts shrink as
    // 1/n while the plateau flattens, so the per-node vote needs more
    // samples to stay tight (the paper's 1000 s NS-2 runs did the same).
    const std::uint64_t slots = 200000 + 16000ULL * static_cast<std::uint64_t>(row.n);
    const SimNe sim_ne =
        simulated_ne(phy::AccessMode::kBasic, row.n, w_star, slots, jobs);
    table.add_row({std::to_string(row.n), std::to_string(row.paper),
                   std::to_string(w_star),
                   util::fmt_double(w_cont.value_or(-1.0), 1),
                   util::fmt_double(sim_ne.mean_w, 1),
                   util::fmt_double(sim_ne.var_w, 2)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "Expectation: model within ~5%% of the paper's column; simulated mean\n"
      "tracks the model value (paper saw the same agreement with NS-2).\n");
  return 0;
}
