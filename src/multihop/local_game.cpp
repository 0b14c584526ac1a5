#include "multihop/local_game.hpp"

#include <algorithm>
#include <map>
#include <numeric>
#include <stdexcept>

#include "game/equilibrium.hpp"

namespace smac::multihop {

std::vector<int> local_efficient_cw(const Topology& topology,
                                    const game::StageGame& game,
                                    int min_players) {
  if (min_players < 1) {
    throw std::invalid_argument("local_efficient_cw: min_players < 1");
  }
  // Collect the distinct local player counts first, then solve them in
  // ascending order: W_c*(n) is nondecreasing in n, so each result warm-
  // brackets the next search (EquilibriumFinder::efficient_cw_from).
  std::map<int, int> by_players;
  std::vector<int> players_of(topology.node_count());
  for (std::size_t i = 0; i < topology.node_count(); ++i) {
    const int players =
        std::max(min_players, static_cast<int>(topology.degree(i)) + 1);
    players_of[i] = players;
    by_players.emplace(players, 0);
  }
  int warm_lo = 1;
  for (auto& [players, w_star] : by_players) {
    const game::EquilibriumFinder finder(game, players);
    w_star = finder.efficient_cw_from(warm_lo);
    warm_lo = w_star;
  }
  std::vector<int> cw(topology.node_count());
  for (std::size_t i = 0; i < topology.node_count(); ++i) {
    cw[i] = by_players.at(players_of[i]);
  }
  return cw;
}

TftConvergence tft_min_convergence(const Topology& topology,
                                   std::vector<int> seed_profile,
                                   int max_stages) {
  if (seed_profile.size() != topology.node_count()) {
    throw std::invalid_argument("tft_min_convergence: profile size mismatch");
  }
  for (int w : seed_profile) {
    if (w < 1) throw std::invalid_argument("tft_min_convergence: w < 1");
  }

  TftConvergence out;
  out.trajectory.push_back(seed_profile);
  std::vector<int> current = std::move(seed_profile);
  std::vector<int> next = current;

  // Frontier sweeps. After any sweep every node already holds the minimum
  // of its closed neighbourhood's previous windows, so an unchanged
  // neighbour j has current[j] >= current[i]: only nodes whose window
  // dropped in the last sweep can lower anyone in the next. Each pushes
  // its window to its neighbours (the adjacency is symmetric). min is
  // order-independent, so the visiting order — ascending node index, for
  // memory locality — cannot change a result. The first frontier is every
  // node, which makes the first sweep the full one.
  std::vector<std::size_t> frontier(current.size());
  std::iota(frontier.begin(), frontier.end(), std::size_t{0});
  std::size_t frontier_size = frontier.size();
  for (int stage = 0; stage < max_stages; ++stage) {
    for (std::size_t f = 0; f < frontier_size; ++f) {
      const std::size_t j = frontier[f];
      const int w = current[j];
      for (const std::size_t i : topology.neighbors(j)) {
        next[i] = std::min(next[i], w);
      }
    }
    // Collect the nodes that dropped, branch-free (a data-dependent branch
    // here mispredicts on every ragged frontier), and commit the sweep.
    frontier_size = 0;
    for (std::size_t i = 0; i < current.size(); ++i) {
      frontier[frontier_size] = i;
      frontier_size += next[i] < current[i] ? 1 : 0;
      current[i] = next[i];
    }
    if (frontier_size == 0) break;
    out.trajectory.push_back(current);
    ++out.stages;
  }

  out.converged_w = *std::min_element(current.begin(), current.end());
  out.uniform = std::all_of(current.begin(), current.end(),
                            [&](int w) { return w == current.front(); });
  return out;
}

}  // namespace smac::multihop
