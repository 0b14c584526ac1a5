#include "multihop/topology.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <stdexcept>
#include <utility>

namespace smac::multihop {

namespace {

void validate(const std::vector<Vec2>& positions, double range_m) {
  if (!(range_m > 0.0)) throw std::invalid_argument("Topology: range <= 0");
  if (positions.empty()) throw std::invalid_argument("Topology: no nodes");
  validate_positions(positions);
}

}  // namespace

Topology::Topology(std::vector<Vec2> positions, double range_m,
                   std::span<const std::uint8_t> active)
    : range_m_(range_m), positions_(std::move(positions)) {
  validate(positions_, range_m_);
  if (!active.empty() && active.size() != positions_.size()) {
    throw std::invalid_argument("Topology: active mask size mismatch");
  }
  graph_ = unit_disk_graph(positions_, range_m_, active);
}

Topology::Topology(std::vector<Vec2> positions, double range_m,
                   NeighborGraph graph)
    : range_m_(range_m), positions_(std::move(positions)),
      graph_(std::move(graph)) {
  validate(positions_, range_m_);
  if (graph_.node_count() != positions_.size()) {
    throw std::invalid_argument("Topology: adjacency size mismatch");
  }
}

Topology build_topology_full(const std::vector<Vec2>& positions,
                             double range_m) {
  validate(positions, range_m);
  std::vector<std::vector<std::uint32_t>> lists(positions.size());
  for (std::size_t i = 0; i < positions.size(); ++i) {
    for (std::size_t j = i + 1; j < positions.size(); ++j) {
      if (in_range(positions[i], positions[j], range_m)) {
        lists[i].push_back(static_cast<std::uint32_t>(j));
        lists[j].push_back(static_cast<std::uint32_t>(i));
      }
    }
  }
  std::vector<std::size_t> offsets{0};
  std::vector<std::uint32_t> adjacency;
  for (const auto& list : lists) {
    adjacency.insert(adjacency.end(), list.begin(), list.end());
    offsets.push_back(adjacency.size());
  }
  return Topology(positions, range_m,
                  NeighborGraph(std::move(offsets), std::move(adjacency)));
}

std::span<const std::uint32_t> Topology::neighbors(std::size_t i) const {
  if (i >= node_count()) {
    throw std::out_of_range("Topology::neighbors: node out of range");
  }
  return graph_.neighbors(i);
}

std::size_t Topology::degree(std::size_t i) const {
  return neighbors(i).size();
}

bool Topology::are_neighbors(std::size_t a, std::size_t b) const {
  const auto na = neighbors(a);
  return std::binary_search(na.begin(), na.end(), b);
}

bool Topology::connected() const {
  std::vector<char> seen(node_count(), 0);
  std::queue<std::size_t> queue;
  seen[0] = 1;
  queue.push(0);
  std::size_t reached = 1;
  while (!queue.empty()) {
    const std::size_t u = queue.front();
    queue.pop();
    for (const std::size_t v : graph_.neighbors(u)) {
      if (!seen[v]) {
        seen[v] = 1;
        ++reached;
        queue.push(v);
      }
    }
  }
  return reached == node_count();
}

std::size_t Topology::hop_distance(std::size_t a, std::size_t b) const {
  if (a >= node_count() || b >= node_count()) {
    throw std::invalid_argument("hop_distance: node out of range");
  }
  if (a == b) return 0;
  constexpr auto kInf = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> dist(node_count(), kInf);
  std::queue<std::size_t> queue;
  dist[a] = 0;
  queue.push(a);
  while (!queue.empty()) {
    const std::size_t u = queue.front();
    queue.pop();
    for (const std::size_t v : graph_.neighbors(u)) {
      if (dist[v] == kInf) {
        dist[v] = dist[u] + 1;
        if (v == b) return dist[v];
        queue.push(v);
      }
    }
  }
  return kInf;
}

std::size_t Topology::diameter() const {
  constexpr auto kInf = std::numeric_limits<std::size_t>::max();
  std::size_t diameter = 0;
  // BFS from every node — O(n·(n+m)). Fine for the paper-scale scenarios
  // that ask for a diameter; city-scale runs (n ≥ 10^4, docs/CITY_SCALE.md)
  // never call this.
  for (std::size_t s = 0; s < node_count(); ++s) {
    std::vector<std::size_t> dist(node_count(), kInf);
    std::queue<std::size_t> queue;
    dist[s] = 0;
    queue.push(s);
    while (!queue.empty()) {
      const std::size_t u = queue.front();
      queue.pop();
      for (const std::size_t v : graph_.neighbors(u)) {
        if (dist[v] == kInf) {
          dist[v] = dist[u] + 1;
          queue.push(v);
        }
      }
    }
    for (std::size_t d : dist) {
      if (d == kInf) return kInf;  // disconnected
      diameter = std::max(diameter, d);
    }
  }
  return diameter;
}

}  // namespace smac::multihop
