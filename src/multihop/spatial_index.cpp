#include "multihop/spatial_index.hpp"

#include <stdexcept>
#include <utility>

namespace smac::multihop {

SpatialIndex::SpatialIndex(std::vector<Vec2> positions, double range_m)
    : range_m_(range_m), positions_(std::move(positions)),
      active_(positions_.size(), 1), active_count_(positions_.size()) {
  validate();
}

SpatialIndex::SpatialIndex(std::vector<Vec2> positions, double range_m,
                           const std::vector<std::uint8_t>& active)
    : range_m_(range_m), positions_(std::move(positions)) {
  validate();
  if (active.size() != positions_.size()) {
    throw std::invalid_argument("SpatialIndex: active mask size mismatch");
  }
  for (const std::uint8_t a : active) {
    active_.push_back(a ? 1 : 0);
    active_count_ += active_.back();
  }
}

void SpatialIndex::validate() const {
  if (!(range_m_ > 0.0)) {
    throw std::invalid_argument("SpatialIndex: range <= 0");
  }
  validate_positions(positions_);
}

std::span<const std::uint32_t> SpatialIndex::neighbors(std::size_t i) const {
  if (i >= node_count()) {
    throw std::out_of_range("SpatialIndex::neighbors: node out of range");
  }
  return topology().graph().neighbors(i);
}

std::size_t SpatialIndex::edge_count() const {
  return node_count() == 0 ? 0 : topology().edge_count();
}

void SpatialIndex::update_positions(const std::vector<Vec2>& positions) {
  if (positions.size() != positions_.size()) {
    throw std::invalid_argument("SpatialIndex: node count changed");
  }
  validate_positions(positions);
  UpdateStats stats;
  for (std::size_t i = 0; i < positions.size(); ++i) {
    if (positions[i] == positions_[i]) continue;
    ++stats.moved;
    if (active_[i]) {
      ++stats.rescanned;
      const bool crossed = cell_key(positions[i], range_m_) !=
                           cell_key(positions_[i], range_m_);
      stats.rebucketed += crossed ? 1 : 0;
    }
    positions_[i] = positions[i];
  }
  if (stats.moved > 0) topology_.reset();
  last_update_ = stats;
}

void SpatialIndex::remove_node(std::size_t i) { flip(i, false); }

void SpatialIndex::insert_node(std::size_t i) { flip(i, true); }

void SpatialIndex::flip(std::size_t i, bool up) {
  if (i >= positions_.size()) {
    throw std::out_of_range("SpatialIndex: node out of range");
  }
  if ((active_[i] != 0) == up) return;
  active_[i] = up ? 1 : 0;
  if (up) {
    ++active_count_;
  } else {
    --active_count_;
  }
  topology_.reset();
}

const Topology& SpatialIndex::topology() const {
  if (!topology_) topology_.emplace(positions_, range_m_, active_);
  return *topology_;
}

}  // namespace smac::multihop
