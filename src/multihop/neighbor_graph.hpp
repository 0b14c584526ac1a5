// The one neighbour-graph type and the one cell grid every multihop layer
// shares (docs/CITY_SCALE.md).
//
// NeighborGraph is flat CSR adjacency. The unit-disk build
// (unit_disk_graph) buckets nodes with sort_into_cells at cell edge r, so
// every neighbour of a node lies in the 3×3 cell stencil around it, and
// produces each list in ascending node-id order — the order the Θ(n²)
// oracle (build_topology_full) produces and the receiver pick indexes.
// The same grid routine labels PDES tiles and finds PDES region
// dependencies (pdes.hpp), at other cell edges and origins.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "multihop/geometry.hpp"

namespace smac::multihop {

/// Compressed-sparse-row adjacency: node i's neighbours are
/// adjacency[offsets[i], offsets[i + 1]). Offsets are std::size_t, so no
/// edge count can overflow them; neighbour ids are std::uint32_t, which
/// bounds the node count below 2³² (validate_positions enforces it).
class NeighborGraph {
 public:
  /// The empty graph (zero nodes).
  NeighborGraph() = default;

  /// Adopts prebuilt arrays (offsets.size() == n + 1, offsets.front() ==
  /// 0, offsets.back() == adjacency.size(); trusted beyond those sizes).
  NeighborGraph(std::vector<std::size_t> offsets,
                std::vector<std::uint32_t> adjacency);

  std::size_t node_count() const noexcept { return offsets_.size() - 1; }
  /// Undirected edges; the graph must be symmetric.
  std::size_t edge_count() const noexcept { return adjacency_.size() / 2; }

  /// Unchecked: i must be < node_count().
  std::span<const std::uint32_t> neighbors(std::size_t i) const noexcept {
    return {adjacency_.data() + offsets_[i],
            adjacency_.data() + offsets_[i + 1]};
  }
  std::size_t degree(std::size_t i) const noexcept {
    return offsets_[i + 1] - offsets_[i];
  }

  /// The same graph under new labels: node `node_at[p]` becomes p and
  /// every id j in its list becomes position_of[j]. List order is kept,
  /// so relabelled lists stay in the original ascending-id order.
  NeighborGraph relabeled(std::span<const std::uint32_t> node_at,
                          std::span<const std::uint32_t> position_of) const;

 private:
  std::vector<std::size_t> offsets_{0};
  std::vector<std::uint32_t> adjacency_;
};

/// Nodes sorted into square cells of edge `edge_m` anchored at `origin`.
/// Node i's cell is (⌊(x − origin.x)/e⌋, ⌊(y − origin.y)/e⌋), each
/// coordinate clamped to int32 so the float→int cast is never UB: a node
/// more than 2³¹ cells out shares the boundary cell, which only widens a
/// stencil — callers re-check real distances. Clamping is monotone and
/// never stretches a gap, so nodes in adjacent cells before the clamp are
/// in the same or adjacent cells after it. Memory is O(n) whatever the
/// coordinate extent: only occupied cells are stored.
struct CellGrid {
  /// Occupied cells, ascending; the key orders row-major (y, then x).
  std::vector<std::uint64_t> key;
  /// key.size() + 1 offsets: cell c holds order[first[c], first[c + 1]).
  std::vector<std::uint32_t> first;
  /// Included node ids, cell by cell, ascending inside each cell.
  std::vector<std::uint32_t> order;
  /// Node id -> index into key (unspecified for excluded nodes).
  std::vector<std::uint32_t> cell_of;

  /// Calls f(begin, end) once per non-empty stencil row around cell c:
  /// order[begin, end) holds the occupied cells among (x − 1 .. x + 1)
  /// of that row, since cells of one row are contiguous in key order.
  template <class F>
  void for_each_stencil_run(std::size_t c, F&& f) const {
    constexpr std::uint32_t kMax = 0xffffffffu;
    const auto cy = static_cast<std::uint32_t>(key[c] >> 32);
    const auto cx = static_cast<std::uint32_t>(key[c]);
    const std::uint64_t x_lo = cx == 0 ? 0 : cx - 1;
    const std::uint64_t x_hi = cx == kMax ? kMax : std::uint64_t{cx} + 1;
    const std::uint64_t y_lo = cy == 0 ? 0 : cy - 1;
    const std::uint64_t y_hi = cy == kMax ? kMax : std::uint64_t{cy} + 1;
    for (std::uint64_t y = y_lo; y <= y_hi; ++y) {
      const auto a = std::lower_bound(key.begin(), key.end(), (y << 32) | x_lo);
      const auto b = std::upper_bound(a, key.end(), (y << 32) | x_hi);
      if (a != b) f(first[a - key.begin()], first[b - key.begin()]);
    }
  }
};

/// Cell key of p under sort_into_cells(·, edge_m, origin): the clamped
/// cell coordinates, biased to unsigned and packed row-major.
std::uint64_t cell_key(Vec2 p, double edge_m, Vec2 origin = {}) noexcept;

/// The cell-sorting routine: buckets every node with include[i] != 0 (all
/// nodes when `include` is empty) into CellGrid cells. O(n log n).
CellGrid sort_into_cells(std::span<const Vec2> positions, double edge_m,
                         Vec2 origin = {},
                         std::span<const std::uint8_t> include = {});

/// Unit-disk graph over the nodes with active[i] != 0 (all nodes when
/// `active` is empty; inactive nodes get empty lists and appear in none),
/// each list ascending. O(n log n + Σᵢ |stencilᵢ|) — O(n + m) work beyond
/// the cell sort at bounded density, m the edge count.
NeighborGraph unit_disk_graph(std::span<const Vec2> positions, double range_m,
                              std::span<const std::uint8_t> active = {});

/// Throws std::invalid_argument on a non-finite coordinate or 2³² − 1 or
/// more nodes (ids are std::uint32_t).
void validate_positions(std::span<const Vec2> positions);

}  // namespace smac::multihop
