// Local-game seeding and TFT convergence in multi-hop networks (paper §VI).
//
// Without global coordination each node i plays the efficient NE of the
// *local* single-hop game among itself and its neighbors (n_i = deg(i)+1
// players); TFT then drags every window down to W_m = min_i W_i, which
// Theorem 3 shows is a NE of the multi-hop game G′.
#pragma once

#include <vector>

#include "game/stage_game.hpp"
#include "multihop/topology.hpp"

namespace smac::multihop {

/// W_i for every node: the efficient NE window of its local (deg+1)-player
/// single-hop game. Results are memoized per degree (many nodes share one).
///
/// `min_players` floors the local game size (default 2): an isolated node
/// has no receiver, so its 1-player "game" is degenerate (W = 1 maximizes
/// a solo utility) — and once mobility connects it, TFT would spread that
/// W = 1 network-wide with no recovery (§V.E contagion, triggered by an
/// artifact). Seeding at the 2-player NE is the conservative convention.
std::vector<int> local_efficient_cw(const Topology& topology,
                                    const game::StageGame& game,
                                    int min_players = 2);

/// Trajectory of the graph-TFT dynamics W_i^{k+1} = min_{j ∈ N(i) ∪ {i}}
/// W_j^k from the seed profile until no window changes.
///
/// Cost: one full sweep (O(n + m), m = edges); every later sweep visits
/// only the neighbours of the nodes whose window dropped in the sweep
/// before, since a window can only fall when a neighbour's just fell —
/// O(Σ drops × degree) edge visits in all, plus an O(n) scan per stage
/// (the same order as the trajectory row each stage stores).
struct TftConvergence {
  std::vector<std::vector<int>> trajectory;  ///< [stage][node]
  int stages = 0;          ///< stages until stable (0 = already stable)
  int converged_w = 0;     ///< min over the final profile
  bool uniform = false;    ///< all nodes equal at the end (connected graph)
};

TftConvergence tft_min_convergence(const Topology& topology,
                                   std::vector<int> seed_profile,
                                   int max_stages = 10000);

}  // namespace smac::multihop
