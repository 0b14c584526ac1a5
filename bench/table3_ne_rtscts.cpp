// Table III — Nash Equilibrium point, RTS/CTS access.
//
// Paper reports, for n = 5/20/50:
//   W_c* (model) = 22 / 48 / 116
//   W̄_c* (NS-2) = 22.9 / 46.4 / 114.2, Var = 1.63 / 1.78 / 1.65
//
// The paper derives its model column from the Lemma 3 Q-root, which
// assumes T_s ≈ T_c — a poor approximation under RTS/CTS (T_c' ≪ T_s').
// We therefore report both the Q-root window (matching the paper's n = 20
// and n = 50 entries closely) and the exact discrete argmax of the full
// utility, plus the simulated per-node optimum. Because the RTS/CTS payoff
// surface is nearly flat around the optimum (paper §VII.B notes the same),
// we also report the payoff ratio between the two model answers.
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

// Grid points fan across `jobs` (fixed seed per point, index-ordered
// vote reduction ⇒ identical output at any job count).
SimNe simulated_ne(int n, int w_center, std::uint64_t slots_per_point,
                   std::size_t jobs) {
  std::vector<int> grid;
  const int span = std::max(4, w_center / 3);
  const int step = std::max(1, span / 6);
  for (int w = std::max(1, w_center - span); w <= w_center + span; w += step) {
    grid.push_back(w);
  }
  std::vector<std::vector<double>> payoff(grid.size());
  parallel::for_each_index(jobs, grid.size(), [&](std::size_t gi) {
    const int w = grid[gi];
    sim::SimConfig config;
    config.mode = phy::AccessMode::kRtsCts;
    config.seed = 0x7ab1e3 + static_cast<std::uint64_t>(w);
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
  std::vector<double> ws(best_w.begin(), best_w.end());
  return {util::mean_of(ws), util::variance_of(ws)};
}

}  // namespace

int main(int argc, char** argv) {
  bench::print_header(
      "Table III: Nash Equilibrium point — RTS/CTS access",
      "paper Table III (paper: model 22/48/116, sim 22.9/46.4/114.2)",
      "Q-root = paper's method (T_s ≈ T_c approx); exact = full-utility\n"
      "argmax; sim = per-node payoff-maximizing common CW.");
  const std::size_t jobs = bench::jobs_option(argc, argv);
  bench::print_jobs(jobs);

  const phy::Parameters params = phy::Parameters::paper();
  const game::StageGame game(params, phy::AccessMode::kRtsCts);

  util::TextTable table({"n", "Wc* (paper)", "Wc (Q-root)", "Wc* (exact)",
                         "u(Qroot)/u(exact)", "Wc* (sim mean)",
                         "Var(Wc*) (sim)"});
  const struct { int n; int paper; } rows[] = {{5, 22}, {20, 48}, {50, 116}};
  for (const auto& row : rows) {
    const game::EquilibriumFinder finder(game, row.n);
    const int w_exact = finder.efficient_cw();
    const auto w_qroot = finder.w_star_continuous();
    const double u_exact = game.homogeneous_utility_rate(w_exact, row.n);
    const double u_qroot = game.homogeneous_utility_rate(
        std::max(1, static_cast<int>(w_qroot.value_or(1.0) + 0.5)), row.n);
    const SimNe sim_ne = simulated_ne(row.n, w_exact, 250000, jobs);
    table.add_row({std::to_string(row.n), std::to_string(row.paper),
                   util::fmt_double(w_qroot.value_or(-1.0), 1),
                   std::to_string(w_exact),
                   util::fmt_double(u_qroot / u_exact, 4),
                   util::fmt_double(sim_ne.mean_w, 1),
                   util::fmt_double(sim_ne.var_w, 2)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "Expectation: Q-root column ≈ paper's model column for n = 20/50; the\n"
      "exact argmax differs because T_c' << T_s' breaks the paper's\n"
      "approximation, but the payoff ratio shows the surface is so flat that\n"
      "both windows are payoff-equivalent to within a fraction of a percent.\n");
  return 0;
}
