// Figure 2 — normalized global payoff U/C versus common CW, basic access.
//
// The paper plots, for the basic mode, the global payoff (normalized by
// C = g·T/(σ(1−δ))) as a function of the common contention window and
// shows that (a) the curve is unimodal with its peak at W_c*, and (b) the
// peak is a broad plateau, so near-W_c* operation is near-optimal.
//
// Output: one series per n ∈ {5, 20, 50} printed as a table and an ASCII
// profile, plus a CSV (fig2_payoff_basic.csv) for external plotting.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "game/equilibrium.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

namespace {

using namespace smac;

std::vector<int> log_grid(int lo, int hi, int points) {
  std::vector<int> grid;
  const double ratio = std::pow(static_cast<double>(hi) / lo,
                                1.0 / (points - 1));
  double w = lo;
  for (int i = 0; i < points; ++i) {
    const int wi = std::max(lo, std::min(hi, static_cast<int>(w + 0.5)));
    if (grid.empty() || grid.back() != wi) grid.push_back(wi);
    w *= ratio;
  }
  return grid;
}

std::string ascii_bar(double value, double peak, int width = 48) {
  const int len = value <= 0.0
                      ? 0
                      : static_cast<int>(value / peak * width + 0.5);
  return std::string(static_cast<std::size_t>(std::max(0, len)), '#');
}

}  // namespace

int main(int argc, char** argv) {
  bench::print_header(
      "Figure 2: normalized global payoff U/C vs common CW — basic access",
      "paper Figure 2",
      "Series for n = 5/20/50; peak must sit at W_c* (Table II) and form a\n"
      "broad plateau (the paper's robustness observation).");
  const std::size_t jobs = bench::jobs_option(argc, argv);
  bench::print_jobs(jobs);

  const phy::Parameters params = phy::Parameters::paper();
  const game::StageGame game(params, phy::AccessMode::kBasic);
  const std::vector<int> ns{5, 20, 50};

  // Each n-series is an independent analytical computation (the StageGame
  // memo cache is thread-safe); fan them across --jobs and emit the CSV
  // and tables in series order afterwards, so output is byte-identical
  // for any jobs value.
  struct Series {
    int w_star = 0;
    double peak_payoff = 0.0;
    std::vector<int> grid;
    std::vector<double> payoff;
    double peak = 0.0;
  };
  std::vector<Series> series(ns.size());
  parallel::for_each_index(jobs, ns.size(), [&](std::size_t idx) {
    const int n = ns[idx];
    Series& s = series[idx];
    const game::EquilibriumFinder finder(game, n);
    s.w_star = finder.efficient_cw();
    s.peak_payoff = game.normalized_global_payoff(s.w_star, n);
    s.grid = log_grid(2, 8 * s.w_star, 28);
    s.payoff.reserve(s.grid.size());
    for (int w : s.grid) {
      const double v = game.normalized_global_payoff(w, n);
      s.payoff.push_back(v);
      s.peak = std::max(s.peak, v);
    }
  });

  util::CsvWriter csv("fig2_payoff_basic.csv", {"n", "w", "u_over_c"});
  for (std::size_t idx = 0; idx < ns.size(); ++idx) {
    const int n = ns[idx];
    const Series& s = series[idx];
    for (std::size_t i = 0; i < s.grid.size(); ++i) {
      csv.add_row({static_cast<double>(n), static_cast<double>(s.grid[i]),
                   s.payoff[i]});
    }
    std::printf("--- n = %d (W_c* = %d, U/C at peak = %.4f) ---\n", n,
                s.w_star, s.peak_payoff);
    util::TextTable table({"W", "U/C", "profile"});
    for (std::size_t i = 0; i < s.grid.size(); ++i) {
      table.add_row({std::to_string(s.grid[i]),
                     util::fmt_double(s.payoff[i], 4),
                     ascii_bar(s.payoff[i], s.peak)});
    }
    std::printf("%s\n", table.to_string().c_str());
  }
  std::printf("Series written to fig2_payoff_basic.csv\n");
  std::printf(
      "Expectation: each curve rises to its W_c*, then falls slowly; larger\n"
      "n peaks at larger W with lower peak payoff per the paper's figure.\n");
  return 0;
}
