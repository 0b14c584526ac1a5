// Table II workload: the model's efficient NE window W* and the simulated
// per-node NE vote for n = 5/20/50 in basic access (bench/table2_ne_basic
// at its sizes), with the grid points of each row fanned over one pool.
//
// The single-hop slot simulator and the pool fan-out carry the run; the
// rows' grids (19, 13 and 13 points on 4 workers) leave workers idle at
// each row's tail, which the traced run reports as pool idle time and
// efficiency.
#include <algorithm>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "game/equilibrium.hpp"
#include "game/stage_game.hpp"
#include "parallel/replication.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/simulator.hpp"
#include "util/stats.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace smac;

struct Row {
  int n;
  int model_w;  ///< the model's exact W* (seed-independent)
};

constexpr Row kRows[] = {{5, 79}, {20, 339}, {50, 859}};

std::vector<int> vote_grid(int w_star) {
  std::vector<int> grid;
  const int span = std::max(4, w_star / 8);
  const int step = std::max(1, span / 6);
  for (int w = w_star - span; w <= w_star + span; w += step) {
    grid.push_back(std::max(1, w));
  }
  return grid;
}

std::uint64_t row_slots(int n, bool toy) {
  const std::uint64_t slots = 200000 + 16000ULL * static_cast<std::uint64_t>(n);
  return toy ? slots / 20 : slots;
}

/// Payoff rates of every node when all n nodes play w.
std::vector<double> grid_point(int n, int w, std::uint64_t slots,
                               std::uint64_t seed) {
  sim::SimConfig config;
  config.mode = phy::AccessMode::kBasic;
  config.seed = parallel::stream_seed(
      seed, static_cast<std::uint64_t>(n) * 100000u + static_cast<unsigned>(w));
  sim::Simulator simulator(config, std::vector<int>(static_cast<std::size_t>(n), w));
  return simulator.run_slots(slots).payoff_rate;
}

/// Each node votes for the grid window that maximized its own payoff rate;
/// returns the mean and variance of the votes.
std::pair<double, double> vote(int n, const std::vector<int>& grid,
                               const std::vector<std::vector<double>>& payoff) {
  std::vector<double> best_payoff(static_cast<std::size_t>(n), -1e30);
  std::vector<int> best_w(static_cast<std::size_t>(n), grid.front());
  for (std::size_t gi = 0; gi < grid.size(); ++gi) {
    for (std::size_t i = 0; i < best_w.size(); ++i) {
      if (payoff[gi][i] > best_payoff[i]) {
        best_payoff[i] = payoff[gi][i];
        best_w[i] = grid[gi];
      }
    }
  }
  std::vector<double> ws(best_w.begin(), best_w.end());
  return {util::mean_of(ws), util::variance_of(ws)};
}

std::size_t row_count(bool toy) { return toy ? 1 : std::size(kRows); }

void add_row(Outputs& out, const Row& row, int w_star,
             std::pair<double, double> sim) {
  if (w_star != row.model_w) {
    throw std::runtime_error("table2: model W* for n = " +
                             std::to_string(row.n) + " is " +
                             std::to_string(w_star) + ", expected " +
                             std::to_string(row.model_w));
  }
  const std::string p = "players" + std::to_string(row.n) + ".";
  out.add(p + "model_w", w_star);
  out.add(p + "sim_mean_w", sim.first);
  out.add(p + "sim_var_w", sim.second);
}

Outputs run_untraced(bool toy, std::uint64_t seed) {
  const game::StageGame game(phy::Parameters::paper(), phy::AccessMode::kBasic);
  parallel::ThreadPool pool(kWorkers);
  Outputs out;
  for (std::size_t r = 0; r < row_count(toy); ++r) {
    const Row& row = kRows[r];
    const int w_star = game::EquilibriumFinder(game, row.n).efficient_cw();
    const std::vector<int> grid = vote_grid(w_star);
    std::vector<std::vector<double>> payoff(grid.size());
    pool.for_each_index(grid.size(), [&](std::size_t gi) {
      payoff[gi] = grid_point(row.n, grid[gi], row_slots(row.n, toy), seed);
    });
    add_row(out, row, w_star, vote(row.n, grid, payoff));
  }
  return out;
}

Outputs run_traced(bool toy, std::uint64_t seed, Trace& trace,
                   LayerMetrics& m, Failures&) {
  std::optional<game::StageGame> game_slot;
  std::optional<parallel::ThreadPool> pool;
  {
    const Trace::Scope span(trace, "game.stage_game.setup");
    game_slot.emplace(phy::Parameters::paper(), phy::AccessMode::kBasic);
  }
  {
    const Trace::Scope span(trace, "parallel.thread_pool.spawn");
    pool.emplace(kWorkers);
  }
  const game::StageGame& game = *game_slot;
  double fanout_ms = 0.0;
  double busy_ms = 0.0;
  double node_slots = 0.0;
  std::size_t tasks = 0;
  Outputs out;
  for (std::size_t r = 0; r < row_count(toy); ++r) {
    const Row& row = kRows[r];
    int w_star = 0;
    {
      const Trace::Scope span(trace, "game.equilibrium");
      w_star = game::EquilibriumFinder(game, row.n).efficient_cw();
      m["game.equilibrium.ms"] += span.ms();
    }
    const std::vector<int> grid = vote_grid(w_star);
    const std::uint64_t slots = row_slots(row.n, toy);
    std::vector<std::vector<double>> payoff(grid.size());
    std::vector<double> task_ms(grid.size(), 0.0);
    {
      const Trace::Scope span(trace, "parallel.thread_pool.fan_out");
      const int parent = span.id();
      pool->for_each_index(grid.size(), [&](std::size_t gi) {
        const Trace::Scope task(trace, "sim.simulator.run_slots", parent);
        payoff[gi] = grid_point(row.n, grid[gi], slots, seed);
        task_ms[gi] = task.ms();
      });
      fanout_ms += span.ms();
    }
    for (const double ms : task_ms) busy_ms += ms;
    tasks += grid.size();
    node_slots += static_cast<double>(grid.size()) * row.n *
                  static_cast<double>(slots);
    std::pair<double, double> sim;
    {
      const Trace::Scope span(trace, "game.ne_vote");
      sim = vote(row.n, grid, payoff);
    }
    add_row(out, row, w_star, sim);
  }
  const double capacity_ms = static_cast<double>(pool->size()) * fanout_ms;
  m["sim.simulator.busy_ms"] = busy_ms;
  m["sim.simulator.node_slots"] = node_slots;
  m["sim.simulator.ns_per_node_slot"] = busy_ms * 1e6 / node_slots;
  m["parallel.thread_pool.tasks"] = static_cast<double>(tasks);
  m["parallel.thread_pool.idle_ms"] = capacity_ms - busy_ms;
  m["parallel.thread_pool.efficiency"] = busy_ms / capacity_ms;
  {
    const Trace::Scope span(trace, "teardown");
    pool.reset();
    game_slot.reset();
  }
  return out;
}

}  // namespace

Workload table2_sim(bool toy) {
  return {"table2_sim",
          [toy](std::uint64_t seed) { return run_untraced(toy, seed); },
          [toy](std::uint64_t seed, Trace& trace, LayerMetrics& m,
                Failures& failures) {
            return run_traced(toy, seed, trace, m, failures);
          }};
}

}  // namespace perfbench
