// Connectivity graph induced by node positions and a common transmission
// range (unit-disk model, as in the paper's NS-2 setup with 250 m range).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "multihop/geometry.hpp"
#include "multihop/neighbor_graph.hpp"

namespace smac::multihop {

class Topology {
 public:
  /// Builds the unit-disk graph through the shared cell grid
  /// (unit_disk_graph, neighbor_graph.hpp) — O(n log n + m) for
  /// bounded-density layouts (m = edge count), against the Θ(n²) pair
  /// scan, which survives as build_topology_full (the test oracle).
  /// Nodes with active[i] == 0 keep their position but join no
  /// neighbour list (an empty mask means all active). Throws
  /// std::invalid_argument on range <= 0, no nodes, a non-finite
  /// coordinate or a mask of the wrong size.
  Topology(std::vector<Vec2> positions, double range_m,
           std::span<const std::uint8_t> active = {});

  /// Adopts a prebuilt graph (each list ascending, symmetric; trusted,
  /// not re-verified). Used by build_topology_full.
  Topology(std::vector<Vec2> positions, double range_m, NeighborGraph graph);

  std::size_t node_count() const noexcept { return positions_.size(); }
  double range_m() const noexcept { return range_m_; }
  const std::vector<Vec2>& positions() const noexcept { return positions_; }
  const NeighborGraph& graph() const noexcept { return graph_; }
  std::size_t edge_count() const noexcept { return graph_.edge_count(); }

  /// Neighbour ids of i, ascending (a class invariant both build paths
  /// uphold; are_neighbors binary-searches it). Throws std::out_of_range
  /// for i >= node_count(); graph().neighbors(i) is the unchecked form.
  std::span<const std::uint32_t> neighbors(std::size_t i) const;
  std::size_t degree(std::size_t i) const;

  bool are_neighbors(std::size_t a, std::size_t b) const;

  /// True when the graph is a single connected component (BFS).
  bool connected() const;

  /// Hop distance between a and b; SIZE_MAX when disconnected.
  std::size_t hop_distance(std::size_t a, std::size_t b) const;

  /// Longest finite hop distance over all pairs (0 for n = 1); SIZE_MAX
  /// when the graph is disconnected.
  std::size_t diameter() const;

 private:
  double range_m_;
  std::vector<Vec2> positions_;
  NeighborGraph graph_;
};

/// The original Θ(n²) all-pairs scan, kept as the ground-truth oracle the
/// `ctest -L topology` property tests compare the grid path against.
Topology build_topology_full(const std::vector<Vec2>& positions,
                             double range_m);

}  // namespace smac::multihop
