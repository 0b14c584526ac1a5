// RegionPartition structure and dependency-coverage properties
// (docs/PDES.md): the partition must be a pure function of positions,
// its dependency graph must cover every cross-region pair within the
// 3·range interference lookahead (checked against the Θ(n²) oracle
// covers_dependencies), the degenerate partitions must keep the same
// guarantee, and the region-major layout (permutation, contiguous
// per-region position ranges, CSR adjacency in position space) must
// mirror the topology exactly and follow update_topology.
#include "multihop/pdes.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "multihop/multihop_simulator.hpp"
#include "multihop/topology.hpp"
#include "util/rng.hpp"

namespace smac::multihop {
namespace {

Topology random_topology(util::Rng& rng, std::size_t n, double arena,
                         double range = 250.0) {
  std::vector<Vec2> pos;
  pos.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pos.push_back({rng.uniform_real(0.0, arena), rng.uniform_real(0.0, arena)});
  }
  return Topology(pos, range);
}

void expect_well_formed(const RegionPartition& part, const Topology& topo) {
  const std::size_t n = topo.node_count();
  ASSERT_EQ(part.node_count(), n);
  EXPECT_DOUBLE_EQ(part.lookahead_m(), 3.0 * topo.range_m());

  // Region-major layout: the permutation covers every node exactly once,
  // and region r owns the contiguous positions [first(r), last(r)), with
  // node ids ascending inside the range.
  std::vector<int> seen(n, 0);
  for (std::uint32_t p = 0; p < n; ++p) {
    ASSERT_LT(part.node_at(p), n);
    ++seen[part.node_at(p)];
    EXPECT_EQ(part.position_of(part.node_at(p)), p);
  }
  EXPECT_EQ(std::count(seen.begin(), seen.end(), 1),
            static_cast<std::ptrdiff_t>(n));
  if (n > 0) {
    EXPECT_EQ(part.first(0), 0u);
    EXPECT_EQ(part.last(part.region_count() - 1), n);
  }
  for (std::size_t r = 0; r < part.region_count(); ++r) {
    EXPECT_LT(part.first(r), part.last(r)) << "empty region " << r;
    if (r + 1 < part.region_count()) {
      EXPECT_EQ(part.last(r), part.first(r + 1));
    }
    for (std::uint32_t p = part.first(r); p < part.last(r); ++p) {
      EXPECT_EQ(part.region_of(part.node_at(p)), r);
      if (p > part.first(r)) {
        EXPECT_LT(part.node_at(p - 1), part.node_at(p));
      }
    }
  }

  // CSR adjacency maps back to the topology's lists, in the same order
  // (the receiver pick indexes that order).
  for (std::uint32_t p = 0; p < n; ++p) {
    std::vector<std::size_t> back;
    for (std::uint32_t q : part.neighbors(p)) back.push_back(part.node_at(q));
    EXPECT_EQ(back, topo.neighbors(part.node_at(p))) << "position " << p;
  }

  // deps: sorted, self-free, symmetric; edge count matches.
  std::size_t edges = 0;
  for (std::size_t r = 0; r < part.region_count(); ++r) {
    const std::vector<std::size_t>& d = part.deps(r);
    EXPECT_TRUE(std::is_sorted(d.begin(), d.end()));
    EXPECT_TRUE(std::adjacent_find(d.begin(), d.end()) == d.end());
    for (std::size_t q : d) {
      EXPECT_NE(q, r);
      ASSERT_LT(q, part.region_count());
      const std::vector<std::size_t>& back = part.deps(q);
      EXPECT_TRUE(std::binary_search(back.begin(), back.end(), r))
          << "asymmetric dep " << r << " -> " << q;
    }
    edges += d.size();
  }
  EXPECT_EQ(part.dep_edge_count(), edges);

  EXPECT_TRUE(part.covers_dependencies(topo));
}

TEST(PdesOptions, ValidateRejectsBadInputs) {
  PdesOptions bad;
  bad.region_edge_factor = 0.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad.region_edge_factor = -2.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);

  PdesOptions both;
  both.single_region = true;
  both.region_per_node = true;
  EXPECT_THROW(both.validate(), std::invalid_argument);

  PdesOptions ok;
  EXPECT_NO_THROW(ok.validate());
}

TEST(RegionPartition, SingleRegionOwnsEverything) {
  util::Rng rng(11);
  const Topology topo = random_topology(rng, 40, 1200.0);
  PdesOptions opt;
  opt.single_region = true;
  const RegionPartition part(topo, opt);
  EXPECT_EQ(part.region_count(), 1u);
  EXPECT_TRUE(part.deps(0).empty());
  EXPECT_EQ(part.dep_edge_count(), 0u);
  expect_well_formed(part, topo);
}

TEST(RegionPartition, RegionPerNodeIsMaximal) {
  util::Rng rng(12);
  const Topology topo = random_topology(rng, 30, 900.0);
  PdesOptions opt;
  opt.region_per_node = true;
  const RegionPartition part(topo, opt);
  EXPECT_EQ(part.region_count(), topo.node_count());
  expect_well_formed(part, topo);
}

TEST(RegionPartition, TilePartitionCoversDependencies) {
  // Sweep densities so tiles range from mostly-empty to crowded.
  for (const double arena : {600.0, 1500.0, 3000.0}) {
    for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
      util::Rng rng(seed);
      const Topology topo = random_topology(rng, 70, arena);
      const RegionPartition part(topo, PdesOptions{});
      expect_well_formed(part, topo);
    }
  }
}

TEST(RegionPartition, SmallTilesStillCoverDependencies) {
  // Tiles smaller than the lookahead force dependencies beyond the
  // immediate 8 tile neighbors — the distance-based dependency scan must
  // not assume tile adjacency.
  util::Rng rng(5);
  const Topology topo = random_topology(rng, 60, 2000.0);
  PdesOptions opt;
  opt.region_edge_factor = 1.0;
  const RegionPartition part(topo, opt);
  EXPECT_GT(part.region_count(), 1u);
  expect_well_formed(part, topo);
}

TEST(RegionPartition, PureFunctionOfPositions) {
  util::Rng rng(9);
  const Topology topo = random_topology(rng, 50, 1400.0);
  const RegionPartition a(topo, PdesOptions{});
  const RegionPartition b(topo, PdesOptions{});
  ASSERT_EQ(a.region_count(), b.region_count());
  for (std::size_t i = 0; i < topo.node_count(); ++i) {
    EXPECT_EQ(a.region_of(i), b.region_of(i));
  }
  for (std::size_t r = 0; r < a.region_count(); ++r) {
    EXPECT_EQ(a.first(r), b.first(r));
    EXPECT_EQ(a.deps(r), b.deps(r));
  }
  for (std::uint32_t p = 0; p < topo.node_count(); ++p) {
    EXPECT_EQ(a.node_at(p), b.node_at(p));
  }
}

TEST(RegionPartition, EmptyAndSingleNodeBoundaries) {
  // Topology itself refuses zero nodes, so the partition never sees an
  // empty node set; the smallest real input is a lone node.
  EXPECT_THROW(Topology(std::vector<Vec2>{}, 250.0), std::invalid_argument);

  const Topology topo(std::vector<Vec2>{{10.0, 20.0}}, 250.0);
  const RegionPartition part(topo, PdesOptions{});
  EXPECT_EQ(part.node_count(), 1u);
  EXPECT_EQ(part.region_count(), 1u);
  EXPECT_EQ(part.region_of(0), 0u);
  EXPECT_EQ(part.node_at(0), 0u);
  EXPECT_TRUE(part.neighbors(0).empty());
  EXPECT_TRUE(part.deps(0).empty());
  EXPECT_EQ(part.dep_edge_count(), 0u);
  EXPECT_TRUE(part.covers_dependencies(topo));
}

TEST(RegionPartition, LayoutRebuiltAfterUpdateTopology) {
  // update_topology must drop the cached partition: the moved layout's
  // regions, dependency edges and CSR lists all differ, and a stale CSR
  // would break oracle equality on the second window.
  util::Rng rng(21);
  const std::size_t n = 60;
  const Topology before = random_topology(rng, n, 1500.0);
  const Topology after = random_topology(rng, n, 2400.0);
  const RegionPartition fresh(after, PdesOptions{});
  ASSERT_NE(RegionPartition(before, PdesOptions{}).region_count(),
            fresh.region_count());

  const std::vector<int> profile(n, 16);
  MultihopConfig config;
  config.seed = 5;
  MultihopConfig pdes_config = config;
  pdes_config.kernel = MultihopKernel::kPdes;
  pdes_config.pdes.jobs = 2;
  MultihopSimulator oracle(config, before, profile);
  MultihopSimulator pdes(pdes_config, before, profile);
  oracle.run_slots(200);
  pdes.run_slots(200);
  oracle.update_topology(after);
  pdes.update_topology(after);
  const MultihopResult a = oracle.run_slots(300);
  const MultihopResult b = pdes.run_slots(300);

  EXPECT_EQ(pdes.last_pdes_stats().regions, fresh.region_count());
  EXPECT_EQ(pdes.last_pdes_stats().dep_edges, fresh.dep_edge_count());
  EXPECT_EQ(pdes.last_pdes_stats().lookahead_violations, 0u);
  ASSERT_EQ(a.node.size(), b.node.size());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(a.node[i].attempts, b.node[i].attempts) << "node " << i;
    EXPECT_EQ(a.node[i].successes, b.node[i].successes) << "node " << i;
    EXPECT_EQ(a.node[i].local_time_us, b.node[i].local_time_us)
        << "node " << i;
  }
  EXPECT_EQ(a.global_payoff_rate, b.global_payoff_rate);
}

TEST(MultihopKernelNames, RoundTrip) {
  EXPECT_STREQ(to_string(MultihopKernel::kSlotLoop), "slot-loop");
  EXPECT_STREQ(to_string(MultihopKernel::kPdes), "pdes");
}

}  // namespace
}  // namespace smac::multihop
