#include "multihop/neighbor_graph.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

namespace smac::multihop {
namespace {

// Cell coordinate of one scalar, clamped to int32 before the cast (so the
// cast is never UB; a NaN quotient lands on the low boundary) and biased
// to uint32 so key order is coordinate order.
std::uint64_t cell_coord(double v, double origin, double edge_m) noexcept {
  constexpr double kLo = -2147483648.0;
  constexpr double kHi = 2147483647.0;
  const double f = std::floor((v - origin) / edge_m);
  const double c = f >= kLo ? std::min(f, kHi) : kLo;
  return static_cast<std::uint64_t>(static_cast<std::int64_t>(c) -
                                    static_cast<std::int64_t>(kLo));
}

}  // namespace

NeighborGraph::NeighborGraph(std::vector<std::size_t> offsets,
                             std::vector<std::uint32_t> adjacency)
    : offsets_(std::move(offsets)), adjacency_(std::move(adjacency)) {
  if (offsets_.empty() || offsets_.front() != 0 ||
      offsets_.back() != adjacency_.size()) {
    throw std::invalid_argument("NeighborGraph: malformed CSR offsets");
  }
}

NeighborGraph NeighborGraph::relabeled(
    std::span<const std::uint32_t> node_at,
    std::span<const std::uint32_t> position_of) const {
  const std::size_t n = node_count();
  std::vector<std::size_t> offsets(n + 1, 0);
  for (std::size_t p = 0; p < n; ++p) {
    offsets[p + 1] = offsets[p] + degree(node_at[p]);
  }
  std::vector<std::uint32_t> adjacency(adjacency_.size());
  for (std::size_t p = 0; p < n; ++p) {
    std::uint32_t* out = adjacency.data() + offsets[p];
    for (const std::uint32_t j : neighbors(node_at[p])) {
      *out++ = position_of[j];
    }
  }
  return {std::move(offsets), std::move(adjacency)};
}

std::uint64_t cell_key(Vec2 p, double edge_m, Vec2 origin) noexcept {
  return (cell_coord(p.y, origin.y, edge_m) << 32) |
         cell_coord(p.x, origin.x, edge_m);
}

CellGrid sort_into_cells(std::span<const Vec2> positions, double edge_m,
                         Vec2 origin, std::span<const std::uint8_t> include) {
  const std::size_t n = positions.size();
  std::vector<std::pair<std::uint64_t, std::uint32_t>> keyed;
  keyed.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!include.empty() && include[i] == 0) continue;
    keyed.emplace_back(cell_key(positions[i], edge_m, origin),
                       static_cast<std::uint32_t>(i));
  }
  std::sort(keyed.begin(), keyed.end());

  CellGrid grid;
  grid.order.resize(keyed.size());
  grid.cell_of.assign(n, 0);
  for (std::size_t k = 0; k < keyed.size(); ++k) {
    const auto [key, i] = keyed[k];
    if (grid.key.empty() || grid.key.back() != key) {
      grid.key.push_back(key);
      grid.first.push_back(static_cast<std::uint32_t>(k));
    }
    grid.order[k] = i;
    grid.cell_of[i] = static_cast<std::uint32_t>(grid.key.size() - 1);
  }
  grid.first.push_back(static_cast<std::uint32_t>(keyed.size()));
  return grid;
}

NeighborGraph unit_disk_graph(std::span<const Vec2> positions, double range_m,
                              std::span<const std::uint8_t> active) {
  const std::size_t n = positions.size();
  const CellGrid grid = sort_into_cells(positions, range_m, {}, active);

  // Pass 1, cell by cell: each included node's in-range stencil mates,
  // unordered, into one scratch run per node.
  std::vector<std::uint32_t> mates;
  std::vector<std::size_t> mates_first(n, 0);
  std::vector<std::size_t> offsets(n + 1, 0);
  for (std::size_t c = 0; c < grid.key.size(); ++c) {
    std::array<std::pair<std::uint32_t, std::uint32_t>, 3> runs;
    std::size_t run_count = 0;
    grid.for_each_stencil_run(c, [&](std::uint32_t a, std::uint32_t b) {
      runs[run_count++] = {a, b};
    });
    for (std::uint32_t k = grid.first[c]; k < grid.first[c + 1]; ++k) {
      const std::uint32_t i = grid.order[k];
      const Vec2 p = positions[i];
      mates_first[i] = mates.size();
      for (std::size_t r = 0; r < run_count; ++r) {
        for (std::uint32_t q = runs[r].first; q < runs[r].second; ++q) {
          const std::uint32_t j = grid.order[q];
          if (j != i && in_range(p, positions[j], range_m)) mates.push_back(j);
        }
      }
      offsets[i + 1] = mates.size() - mates_first[i];
    }
  }
  for (std::size_t i = 0; i < n; ++i) offsets[i + 1] += offsets[i];

  // Pass 2, a CSR transpose: walking i ascending and appending i to each
  // mate's list leaves every list ascending, and since the relation is
  // symmetric, j's list is exactly j's mates — no per-list sort.
  std::vector<std::uint32_t> adjacency(mates.size());
  std::vector<std::size_t> fill(offsets.begin(), offsets.end() - 1);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t begin = mates_first[i];
    const std::size_t end = begin + (offsets[i + 1] - offsets[i]);
    for (std::size_t q = begin; q < end; ++q) {
      adjacency[fill[mates[q]]++] = static_cast<std::uint32_t>(i);
    }
  }
  return {std::move(offsets), std::move(adjacency)};
}

void validate_positions(std::span<const Vec2> positions) {
  if (positions.size() >=
      static_cast<std::size_t>(std::numeric_limits<std::uint32_t>::max())) {
    throw std::invalid_argument("too many nodes (ids are 32-bit)");
  }
  for (const Vec2& p : positions) {
    if (!(std::isfinite(p.x) && std::isfinite(p.y))) {
      throw std::invalid_argument("non-finite position");
    }
  }
}

}  // namespace smac::multihop
