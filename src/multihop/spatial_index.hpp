// The city-scale owner of the unit-disk graph under mobility and churn
// (docs/CITY_SCALE.md).
//
// SpatialIndex keeps node positions and the active mask, and rebuilds its
// Topology from scratch — once, lazily, on the first read after
// update_positions / insert_node / remove_node changed anything. The
// build is Topology's cell-grid construction (neighbor_graph.hpp): the
// 3×3 stencil of cell edge r around each node, then one CSR transpose.
// Complexity contract:
//
//   * update_positions     O(n): adopts positions and counts UpdateStats;
//                          no graph work
//   * remove / insert      O(1): flips the active bit
//   * first read after a change   one full build, O(n log n + m) at
//                          bounded density (m = edge count), against the
//                          pair scan's Θ(n²)
//
// In a mobility step every node moves, so an incremental patch would
// re-scan almost every node anyway; one rebuild per stage is the same
// order of work with one code path.
//
// Determinism: neighbour lists are ascending by node id — the same order
// the Θ(n²) oracle (build_topology_full) produces — so the graph is a
// pure function of (positions, range, active set); relabelling the nodes
// relabels the graph and nothing else (`ctest -L topology`).
//
// The lazy rebuild mutates the index inside const reads, so concurrent
// reads need a prior topology() call from one thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "multihop/geometry.hpp"
#include "multihop/topology.hpp"

namespace smac::multihop {

class SpatialIndex {
 public:
  /// What the last update_positions call changed. A cell here is the
  /// absolute grid (⌊x/r⌋, ⌊y/r⌋) the unit-disk build sorts into.
  struct UpdateStats {
    std::size_t moved = 0;       ///< nodes whose position changed
    std::size_t rebucketed = 0;  ///< active movers that changed cell
    std::size_t rescanned = 0;   ///< active movers
  };

  /// All nodes active. Throws std::invalid_argument on range <= 0 or a
  /// non-finite coordinate; an empty position set is allowed.
  SpatialIndex(std::vector<Vec2> positions, double range_m);

  /// With an explicit active mask (mask.size() == n; inactive nodes hold
  /// a position but join no neighbour list) — the churn oracle.
  SpatialIndex(std::vector<Vec2> positions, double range_m,
               const std::vector<std::uint8_t>& active);

  std::size_t node_count() const noexcept { return positions_.size(); }
  double range_m() const noexcept { return range_m_; }
  const std::vector<Vec2>& positions() const noexcept { return positions_; }
  Vec2 position(std::size_t i) const { return positions_.at(i); }

  bool active(std::size_t i) const { return active_.at(i) != 0; }
  std::size_t active_count() const noexcept { return active_count_; }

  /// Unit-disk neighbours of i among *active* nodes, ascending. Empty for
  /// an inactive node; dangles after the next change, like topology().
  /// Throws std::out_of_range for i >= node_count().
  std::span<const std::uint32_t> neighbors(std::size_t i) const;
  std::size_t degree(std::size_t i) const { return neighbors(i).size(); }
  /// Undirected edge count over the active subgraph.
  std::size_t edge_count() const;

  /// Mobility step: adopts `positions` (same node count) and records
  /// UpdateStats against the previous positions.
  void update_positions(const std::vector<Vec2>& positions);

  /// Churn-out (FaultKind::kCrash): node i leaves every neighbour list
  /// and its own empties. Keeps its position; no-op when inactive.
  void remove_node(std::size_t i);

  /// Churn-in (FaultKind::kJoin) at the node's current position; no-op
  /// when already active.
  void insert_node(std::size_t i);

  /// The current graph, rebuilt here if anything changed since the last
  /// read; the reference dangles after the next change. Throws like
  /// Topology on node_count() == 0.
  const Topology& topology() const;

  const UpdateStats& last_update() const noexcept { return last_update_; }

 private:
  void validate() const;
  void flip(std::size_t i, bool up);

  double range_m_ = 0.0;
  std::vector<Vec2> positions_;
  std::vector<std::uint8_t> active_;
  std::size_t active_count_ = 0;
  UpdateStats last_update_;
  mutable std::optional<Topology> topology_;  ///< empty = stale
};

}  // namespace smac::multihop
