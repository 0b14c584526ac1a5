// Property tests pinning SpatialIndex and the grid-built Topology against
// the Θ(n²) pair-scan oracle (`ctest -L topology`): exact neighbour-list
// equality on random layouts, interleaved mobility and churn read back
// against the oracle, churn equivalence against the active-mask
// constructor, independence from the order nodes are inserted, what
// UpdateStats counts, bounds checks, and the degenerate layouts the grid
// must degrade on gracefully.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <span>
#include <stdexcept>
#include <vector>

#include "multihop/mobility.hpp"
#include "multihop/spatial_index.hpp"
#include "multihop/topology.hpp"
#include "util/rng.hpp"

namespace smac::multihop {
namespace {

// Independent O(n²) oracle (not build_topology_full, so the test does not
// assume the production oracle it also checks): active-masked pair scan.
std::vector<std::vector<std::size_t>> oracle_neighbors(
    const std::vector<Vec2>& pos, double range_m,
    const std::vector<std::uint8_t>& active) {
  std::vector<std::vector<std::size_t>> nb(pos.size());
  for (std::size_t i = 0; i < pos.size(); ++i) {
    if (active[i] == 0) continue;
    for (std::size_t j = i + 1; j < pos.size(); ++j) {
      if (active[j] == 0) continue;
      if (in_range(pos[i], pos[j], range_m)) {
        nb[i].push_back(j);
        nb[j].push_back(i);
      }
    }
  }
  return nb;  // ascending by construction
}

std::vector<Vec2> random_layout(std::size_t n, double side_m,
                                std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Vec2> pos(n);
  for (Vec2& p : pos) {
    p = {rng.uniform_real(0.0, side_m), rng.uniform_real(0.0, side_m)};
  }
  return pos;
}

std::vector<std::size_t> ids(std::span<const std::uint32_t> list) {
  return {list.begin(), list.end()};
}

void expect_matches_oracle(const SpatialIndex& index,
                           const std::vector<std::uint8_t>& active) {
  const auto want =
      oracle_neighbors(index.positions(), index.range_m(), active);
  for (std::size_t i = 0; i < index.node_count(); ++i) {
    EXPECT_EQ(ids(index.neighbors(i)), want[i]) << "node " << i;
  }
}

TEST(SpatialIndexTest, MatchesOracleOnRandomLayouts) {
  // Several densities, including a range much smaller than a cell's worth
  // of arena (sparse) and one where most nodes share few cells (dense).
  const struct {
    std::size_t n;
    double side;
    double range;
  } cases[] = {{50, 1000.0, 250.0},
               {200, 2000.0, 250.0},
               {300, 800.0, 150.0},
               {120, 500.0, 400.0}};
  for (const auto& c : cases) {
    const auto pos = random_layout(c.n, c.side, 0xA11CE + c.n);
    const SpatialIndex index(pos, c.range);
    expect_matches_oracle(index, std::vector<std::uint8_t>(c.n, 1));
    // And the production oracle agrees with the grid-routed Topology.
    const Topology grid(pos, c.range);
    const Topology full = build_topology_full(pos, c.range);
    for (std::size_t i = 0; i < c.n; ++i) {
      EXPECT_EQ(ids(grid.neighbors(i)), ids(full.neighbors(i))) << "node " << i;
    }
  }
}

TEST(SpatialIndexTest, ExactRangeBoundaryOnCellEdge) {
  // in_range is boundary-inclusive; nodes exactly range apart, straddling
  // a cell boundary, must be neighbors through the stencil too.
  const double r = 100.0;
  const std::vector<Vec2> pos{{99.5, 0.0}, {199.5, 0.0}, {300.0, 0.0}};
  const SpatialIndex index(pos, r);
  EXPECT_EQ(ids(index.neighbors(0)), (std::vector<std::size_t>{1}));
  EXPECT_EQ(ids(index.neighbors(1)), (std::vector<std::size_t>{0}));  // 2 is 100.5 away
  EXPECT_TRUE(index.neighbors(2).empty());
}

TEST(SpatialIndexTest, MovesAndChurnInterleavedMatchOracle) {
  // Mobility steps and crash/join waves in every interleaving the city
  // pipeline and the churn hooks can produce; after each, every read must
  // equal the oracle on the current positions and active set.
  const std::size_t n = 150;
  MobilityConfig config;
  config.width_m = 1500.0;
  config.height_m = 1500.0;
  config.v_min_mps = 0.5;
  config.v_max_mps = 8.0;
  config.seed = 77;
  RandomWaypointModel mobility(config, n);

  SpatialIndex index(mobility.positions(), 250.0);
  std::vector<std::uint8_t> active(n, 1);
  util::Rng rng(31);
  for (int step = 0; step < 12; ++step) {
    const auto churn = [&] {
      for (std::size_t i = 0; i < n; ++i) {
        if (rng.uniform01() >= 0.1) continue;
        active[i] = active[i] != 0 ? 0 : 1;
        if (active[i] != 0) {
          index.insert_node(i);
        } else {
          index.remove_node(i);
        }
      }
    };
    if (step % 3 == 0) churn();  // churn before the move, too
    mobility.advance(30.0);
    index.update_positions(mobility.positions());
    if (step % 2 == 0) churn();
    ASSERT_EQ(index.positions(), mobility.positions());
    expect_matches_oracle(index, active);
    // Crossers are a subset of the active movers, which are movers.
    const auto& st = index.last_update();
    EXPECT_LE(st.rebucketed, st.rescanned);
    EXPECT_LE(st.rescanned, st.moved);
  }
}

TEST(SpatialIndexTest, UpdateStatsCountMoversCrossersAndRescans) {
  // Cells are the absolute (⌊x/r⌋, ⌊y/r⌋) grid at r = 100. Scripted:
  // node 0 moves inside its cell, node 1 crosses into the next cell,
  // node 2 moves while inactive, node 3 is removed, moved across a cell
  // edge and re-inserted, node 4 stays.
  const double r = 100.0;
  const std::vector<Vec2> start{
      {50, 50}, {150, 50}, {50, 150}, {350, 350}, {-50, -50}};
  SpatialIndex index(start, r);
  index.remove_node(2);
  index.remove_node(3);

  auto pos = start;
  pos[0] = {60, 70};    // same cell (0, 0)
  pos[1] = {210, 50};   // cell (1, 0) -> (2, 0)
  pos[2] = {250, 250};  // inactive: counted in `moved` only
  pos[3] = {450, 350};  // inactive while it crosses
  index.update_positions(pos);
  EXPECT_EQ(index.last_update().moved, 4u);
  EXPECT_EQ(index.last_update().rescanned, 2u);
  EXPECT_EQ(index.last_update().rebucketed, 1u);
  std::vector<std::uint8_t> active{1, 1, 0, 0, 1};
  expect_matches_oracle(index, active);

  // Churn does not touch the stats of the last update.
  index.insert_node(3);
  active[3] = 1;
  EXPECT_EQ(index.last_update().moved, 4u);
  expect_matches_oracle(index, active);

  // The re-inserted node's cell is the one of its adopted position: a
  // move inside it is no crossing, a move out of it is.
  pos[3] = {460, 360};
  index.update_positions(pos);
  EXPECT_EQ(index.last_update().moved, 1u);
  EXPECT_EQ(index.last_update().rescanned, 1u);
  EXPECT_EQ(index.last_update().rebucketed, 0u);
  pos[3] = {399.5, 360};
  pos[4] = {-50, 0};  // crosses into cell (-1, 0) on the y axis
  index.update_positions(pos);
  EXPECT_EQ(index.last_update().moved, 2u);
  EXPECT_EQ(index.last_update().rescanned, 2u);
  EXPECT_EQ(index.last_update().rebucketed, 2u);
  expect_matches_oracle(index, active);

  // No movement, no counts.
  index.update_positions(pos);
  EXPECT_EQ(index.last_update().moved, 0u);
  EXPECT_EQ(index.last_update().rebucketed, 0u);
  EXPECT_EQ(index.last_update().rescanned, 0u);
}

TEST(SpatialIndexTest, ChurnMatchesActiveMaskConstruction) {
  const std::size_t n = 180;
  const auto pos = random_layout(n, 1200.0, 0xC0FFEE);
  SpatialIndex index(pos, 250.0);

  std::vector<std::uint8_t> active(n, 1);
  util::Rng rng(9);
  for (int round = 0; round < 6; ++round) {
    // Random crash/join wave, applied through the churn hooks.
    for (std::size_t i = 0; i < n; ++i) {
      const bool flip = rng.uniform01() < 0.15;
      if (!flip) continue;
      if (active[i] != 0) {
        active[i] = 0;
        index.remove_node(i);
      } else {
        active[i] = 1;
        index.insert_node(i);
      }
    }
    // A fresh active-mask build of the same state.
    const SpatialIndex fresh(pos, 250.0, active);
    ASSERT_EQ(index.active_count(), fresh.active_count());
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(index.active(i), fresh.active(i)) << "node " << i;
      ASSERT_EQ(ids(index.neighbors(i)), ids(fresh.neighbors(i)))
          << "node " << i;
    }
    expect_matches_oracle(index, active);
  }
}

TEST(SpatialIndexTest, BuildOrderDoesNotAffectNeighborSets) {
  // Start from an empty active set and bring the nodes in one by one
  // through insert_node, in shuffled orders, reading the graph part-way so
  // intermediate builds happen: the finished graph is the all-active one.
  const std::size_t n = 120;
  const auto pos = random_layout(n, 900.0, 0xBEEF);
  const SpatialIndex natural(pos, 250.0);

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  util::Rng rng(1234);
  for (int shuffle = 0; shuffle < 4; ++shuffle) {
    // Fisher–Yates with the repo Rng (std::shuffle's draws are
    // implementation-defined).
    for (std::size_t i = n - 1; i > 0; --i) {
      const auto j = static_cast<std::size_t>(rng.uniform_below(i + 1));
      std::swap(order[i], order[j]);
    }
    SpatialIndex built(pos, 250.0, std::vector<std::uint8_t>(n, 0));
    for (std::size_t k = 0; k < n; ++k) {
      built.insert_node(order[k]);
      if (k % 37 == 0) (void)built.edge_count();
    }
    ASSERT_EQ(built.active_count(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(ids(built.neighbors(i)), ids(natural.neighbors(i)))
          << "shuffle " << shuffle << " node " << i;
    }
  }
}

TEST(SpatialIndexTest, RemoveThenReinsertRestoresOriginal) {
  const auto pos = random_layout(60, 600.0, 3);
  SpatialIndex index(pos, 200.0);
  const SpatialIndex original(pos, 200.0);
  index.remove_node(11);
  EXPECT_TRUE(index.neighbors(11).empty());
  EXPECT_FALSE(index.active(11));
  index.remove_node(11);  // no-op
  index.insert_node(11);
  index.insert_node(11);  // no-op
  for (std::size_t i = 0; i < 60; ++i) {
    EXPECT_EQ(ids(index.neighbors(i)), ids(original.neighbors(i)))
        << "node " << i;
  }
}

TEST(SpatialIndexTest, InsertAtNewPositionAndMoveNode) {
  // A crashed node that rejoins elsewhere: removed, moved while inactive,
  // re-inserted; another node moves while everything is active.
  const auto pos = random_layout(40, 500.0, 17);
  SpatialIndex index(pos, 150.0);
  index.remove_node(5);
  auto want_pos = pos;
  want_pos[5] = {250.0, 250.0};
  want_pos[20] = {260.0, 250.0};
  index.update_positions(want_pos);
  index.insert_node(5);
  EXPECT_EQ(index.position(5), (Vec2{250.0, 250.0}));
  const auto want =
      oracle_neighbors(want_pos, 150.0, std::vector<std::uint8_t>(40, 1));
  for (std::size_t i = 0; i < 40; ++i) {
    EXPECT_EQ(ids(index.neighbors(i)), want[i]) << "node " << i;
  }
}

TEST(SpatialIndexTest, ReadsShareOneBuildUntilTheNextChange) {
  const auto pos = random_layout(70, 700.0, 8);
  SpatialIndex index(pos, 200.0);
  const Topology& first = index.topology();
  const std::uint32_t* lists = first.graph().neighbors(0).data();
  // Reads through any accessor see the same graph, not a new build.
  (void)index.edge_count();
  (void)index.degree(3);
  EXPECT_EQ(index.neighbors(0).data(), lists);
  EXPECT_EQ(index.topology().graph().neighbors(0).data(), lists);
  // A change is seen on the next read.
  index.remove_node(0);
  EXPECT_TRUE(index.neighbors(0).empty());
  auto moved = pos;
  moved[1] = {1.0, 1.0};
  index.update_positions(moved);
  EXPECT_EQ(index.topology().positions()[1], (Vec2{1.0, 1.0}));
}

TEST(SpatialIndexTest, NeighborsAndDegreeAreBoundsChecked) {
  const auto pos = random_layout(10, 300.0, 4);
  const SpatialIndex index(pos, 100.0);
  const Topology topo(pos, 100.0);
  EXPECT_THROW(index.neighbors(10), std::out_of_range);
  EXPECT_THROW(index.degree(10), std::out_of_range);
  EXPECT_THROW(topo.neighbors(10), std::out_of_range);
  EXPECT_THROW(topo.degree(10), std::out_of_range);
  EXPECT_THROW(topo.are_neighbors(10, 0), std::out_of_range);
  EXPECT_NO_THROW(index.neighbors(9));
  EXPECT_NO_THROW(topo.degree(9));
  const SpatialIndex empty({}, 100.0);
  EXPECT_THROW(empty.neighbors(0), std::out_of_range);
}

TEST(SpatialIndexTest, DegenerateAllNodesInOneCell) {
  // Range larger than the spread: everything lands in one or two cells and
  // the stencil scan degrades to the pair scan — still exact.
  const auto pos = random_layout(80, 50.0, 5);
  const SpatialIndex index(pos, 1000.0);
  for (std::size_t i = 0; i < 80; ++i) {
    EXPECT_EQ(index.degree(i), 79u);  // complete graph
  }
  expect_matches_oracle(index, std::vector<std::uint8_t>(80, 1));
}

TEST(SpatialIndexTest, DegenerateRangeWiderThanArena) {
  const std::vector<Vec2> pos{{0, 0}, {10, 0}, {0, 10}};
  const SpatialIndex index(pos, 1e6);
  EXPECT_EQ(index.edge_count(), 3u);
}

TEST(SpatialIndexTest, EmptyIndexIsValidButTopologyThrows) {
  const SpatialIndex empty({}, 100.0);
  EXPECT_EQ(empty.node_count(), 0u);
  EXPECT_EQ(empty.active_count(), 0u);
  EXPECT_EQ(empty.edge_count(), 0u);
  EXPECT_THROW(empty.topology(), std::invalid_argument);
}

TEST(SpatialIndexTest, ValidatesInputs) {
  EXPECT_THROW(SpatialIndex({{0, 0}}, 0.0), std::invalid_argument);
  EXPECT_THROW(SpatialIndex({{0, 0}}, -1.0), std::invalid_argument);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(SpatialIndex({{inf, 0}}, 10.0), std::invalid_argument);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(SpatialIndex({{0, nan}}, 10.0), std::invalid_argument);
  // Far-flung but finite coordinates are clamped, not UB; the two distant
  // nodes simply share a clamped boundary cell and stay non-neighbors.
  const SpatialIndex far({{0, 0}, {1e18, 1e18}}, 10.0);
  EXPECT_EQ(far.edge_count(), 0u);
}

TEST(SpatialIndexTest, EdgeCountAndTopologyAgree) {
  const auto pos = random_layout(90, 800.0, 21);
  const SpatialIndex index(pos, 250.0);
  const Topology& topo = index.topology();
  std::size_t sum = 0;
  for (std::size_t i = 0; i < 90; ++i) {
    EXPECT_EQ(ids(topo.neighbors(i)), ids(index.neighbors(i)));
    sum += index.degree(i);
  }
  EXPECT_EQ(index.edge_count() * 2, sum);
  EXPECT_EQ(topo.edge_count(), index.edge_count());
}

}  // namespace
}  // namespace smac::multihop
