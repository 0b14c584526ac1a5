// Differential tier (`ctest -L pdes`): the conservative PDES kernel must
// be BITWISE equal to the serial slot-loop oracle (run_multihop_slot_loop)
// on every cell of a seeded (n, density, mobility, churn, PER) grid, at
// worker counts 1 / 4 / 8 and under both degenerate partitions — results
// are a pure function of (seed, topology, profile, fault plan), never of
// scheduling. Every PDES window must also report zero lookahead
// violations and a horizon lead of at most one slot (docs/PDES.md).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "fault/fault_plan.hpp"
#include "multihop/adaptive.hpp"
#include "multihop/mobility.hpp"
#include "multihop/multihop_simulator.hpp"
#include "multihop/pdes.hpp"
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

std::vector<int> random_profile(util::Rng& rng, std::size_t n) {
  static const int kWindows[] = {4, 8, 16, 32, 64, 128};
  std::vector<int> profile(n);
  for (std::size_t i = 0; i < n; ++i) {
    profile[i] = kWindows[rng.uniform_below(6)];
  }
  return profile;
}

/// Bitwise comparison of two windows: integer counters with EXPECT_EQ,
/// doubles with EXPECT_EQ as well — operator== on double demands the
/// exact same bits here (both kernels must run the identical
/// floating-point reduction), not closeness.
void expect_identical(const MultihopResult& pdes, const MultihopResult& oracle,
                      const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(pdes.node.size(), oracle.node.size());
  EXPECT_EQ(pdes.slots, oracle.slots);
  EXPECT_EQ(pdes.bad_state_slots, oracle.bad_state_slots);
  EXPECT_EQ(pdes.global_payoff_rate, oracle.global_payoff_rate);
  EXPECT_EQ(pdes.aggregate_p_hn, oracle.aggregate_p_hn);
  for (std::size_t i = 0; i < pdes.node.size(); ++i) {
    SCOPED_TRACE("node " + std::to_string(i));
    EXPECT_EQ(pdes.node[i].attempts, oracle.node[i].attempts);
    EXPECT_EQ(pdes.node[i].successes, oracle.node[i].successes);
    EXPECT_EQ(pdes.node[i].sender_collisions,
              oracle.node[i].sender_collisions);
    EXPECT_EQ(pdes.node[i].hidden_losses, oracle.node[i].hidden_losses);
    EXPECT_EQ(pdes.node[i].channel_losses, oracle.node[i].channel_losses);
    EXPECT_EQ(pdes.node[i].local_time_us, oracle.node[i].local_time_us);
    EXPECT_EQ(pdes.node[i].payoff_rate, oracle.node[i].payoff_rate);
    EXPECT_EQ(pdes.node[i].measured_tau, oracle.node[i].measured_tau);
    EXPECT_EQ(pdes.node[i].measured_p, oracle.node[i].measured_p);
    EXPECT_EQ(pdes.node[i].measured_p_hn, oracle.node[i].measured_p_hn);
  }
}

void expect_conservative(const PdesRunStats& stats) {
  EXPECT_EQ(stats.lookahead_violations, 0u);
  EXPECT_LE(stats.max_horizon_lead, 1u);
  EXPECT_GT(stats.regions, 0u);
}

/// One grid cell: the same (config, topology, profile, slots) through
/// the oracle and through the PDES kernel with `options`.
void run_cell(const MultihopConfig& base, const Topology& topo,
              const std::vector<int>& profile, std::uint64_t slots,
              const PdesOptions& options, const std::string& label) {
  const MultihopResult oracle =
      run_multihop_slot_loop(base, topo, profile, slots);

  MultihopConfig pdes = base;
  pdes.pdes = options;
  PdesRunStats stats;
  const MultihopResult parallel =
      run_multihop_pdes(pdes, topo, profile, slots, &stats);

  expect_identical(parallel, oracle, label);
  expect_conservative(stats);
  EXPECT_EQ(stats.slots, slots);
}

fault::SlotFaultPlan churn_and_bursts(std::size_t n) {
  fault::SlotFaultPlan plan;
  // Crash/join churn hitting several nodes at staggered slots, including
  // a same-slot crash+join pair (declaration order must be preserved).
  plan.events.push_back({120, 0 % n, fault::FaultKind::kCrash});
  plan.events.push_back({260, 1 % n, fault::FaultKind::kCrash});
  plan.events.push_back({300, 0 % n, fault::FaultKind::kJoin});
  plan.events.push_back({300, 2 % n, fault::FaultKind::kCrash});
  plan.events.push_back({450, 1 % n, fault::FaultKind::kJoin});
  plan.events.push_back({450, 2 % n, fault::FaultKind::kJoin});
  // Bursty channel: short Bad episodes with heavy extra loss.
  plan.channel.p_good_to_bad = 0.02;
  plan.channel.p_bad_to_good = 0.2;
  plan.channel.per_bad = 0.6;
  return plan;
}

TEST(PdesDifferential, GridDensityChurnPerAtAllJobs) {
  const std::size_t kJobs[] = {1, 4, 8};
  for (const std::size_t n : {24u, 80u}) {
    for (const double arena : {700.0, 1800.0}) {
      for (const bool faulty : {false, true}) {
        util::Rng rng(1000 + n + static_cast<std::uint64_t>(arena) +
                      (faulty ? 7 : 0));
        const Topology topo = random_topology(rng, n, arena);
        const std::vector<int> profile = random_profile(rng, n);
        MultihopConfig config;
        config.seed = 5000 + n;
        if (faulty) {
          config.faults = churn_and_bursts(n);
          config.params.packet_error_rate = 0.05;
        }
        for (const std::size_t jobs : kJobs) {
          PdesOptions opt;
          opt.jobs = jobs;
          run_cell(config, topo, profile, 600, opt,
                   "n=" + std::to_string(n) + " arena=" +
                       std::to_string(arena) + " faulty=" +
                       std::to_string(faulty) + " jobs=" +
                       std::to_string(jobs));
        }
      }
    }
  }
}

TEST(PdesDifferential, DegeneratePartitions) {
  util::Rng rng(77);
  const Topology topo = random_topology(rng, 40, 1100.0);
  const std::vector<int> profile = random_profile(rng, 40);
  MultihopConfig config;
  config.seed = 321;
  config.faults = churn_and_bursts(40);

  PdesOptions single;
  single.single_region = true;
  single.jobs = 4;
  run_cell(config, topo, profile, 700, single, "single-region");

  PdesOptions per_node;
  per_node.region_per_node = true;
  per_node.jobs = 4;
  run_cell(config, topo, profile, 700, per_node, "region-per-node");

  PdesOptions tiny_tiles;
  tiny_tiles.region_edge_factor = 1.0;
  tiny_tiles.jobs = 8;
  run_cell(config, topo, profile, 700, tiny_tiles, "edge-factor-1");
}

TEST(PdesDifferential, WindowSplitAndStateChaining) {
  // Post-window simulator state must also match: a 3x400-slot PDES run
  // must equal one 1200-slot oracle run window-for-window, with scripted
  // events crossing the window boundaries.
  util::Rng rng(13);
  const Topology topo = random_topology(rng, 30, 900.0);
  const std::vector<int> profile = random_profile(rng, 30);
  MultihopConfig config;
  config.seed = 99;
  config.faults = churn_and_bursts(30);

  MultihopConfig pdes_config = config;
  pdes_config.kernel = MultihopKernel::kPdes;
  pdes_config.pdes.jobs = 4;
  MultihopSimulator oracle(config, topo, profile);
  MultihopSimulator pdes(pdes_config, topo, profile);
  for (int w = 0; w < 3; ++w) {
    const MultihopResult a = oracle.run_slots(400);
    const MultihopResult b = pdes.run_slots(400);
    expect_identical(b, a, "window " + std::to_string(w));
    expect_conservative(pdes.last_pdes_stats());
    EXPECT_EQ(pdes.total_slots(), oracle.total_slots());
  }
}

TEST(PdesDifferential, MobilityRefreshRebuildsPartition) {
  // Random-waypoint motion between windows: update_topology must rebuild
  // the region partition and stay oracle-equal on the moved layout.
  MobilityConfig mob;
  mob.width_m = 1200.0;
  mob.height_m = 1200.0;
  mob.v_max_mps = 40.0;
  mob.seed = 4242;
  RandomWaypointModel mobility(mob, 35);

  util::Rng rng(55);
  const std::vector<int> profile = random_profile(rng, 35);
  MultihopConfig config;
  config.seed = 77;

  MultihopConfig pdes_config = config;
  pdes_config.kernel = MultihopKernel::kPdes;
  pdes_config.pdes.jobs = 4;

  Topology topo(mobility.positions(), 250.0);
  MultihopSimulator oracle(config, topo, profile);
  MultihopSimulator pdes(pdes_config, topo, profile);
  for (int w = 0; w < 3; ++w) {
    const MultihopResult a = oracle.run_slots(350);
    const MultihopResult b = pdes.run_slots(350);
    expect_identical(b, a, "window " + std::to_string(w));
    expect_conservative(pdes.last_pdes_stats());
    mobility.advance(30.0);
    Topology moved(mobility.positions(), 250.0);
    oracle.update_topology(moved);
    pdes.update_topology(moved);
  }
}

TEST(PdesDifferential, ManualCrashEqualsScriptedUnderPdes) {
  // set_node_active between windows == scripted crash at the boundary,
  // under the PDES kernel (the pinned oracle equivalence carries over).
  util::Rng rng(31);
  const Topology topo = random_topology(rng, 20, 700.0);
  const std::vector<int> profile = random_profile(rng, 20);

  MultihopConfig scripted;
  scripted.seed = 17;
  scripted.kernel = MultihopKernel::kPdes;
  scripted.pdes.jobs = 4;
  scripted.faults.events.push_back({250, 3, fault::FaultKind::kCrash});
  MultihopSimulator a(scripted, topo, profile);
  const MultihopResult full = a.run_slots(500);

  MultihopConfig manual = scripted;
  manual.faults.events.clear();
  MultihopSimulator b(manual, topo, profile);
  const MultihopResult first = b.run_slots(250);
  b.set_node_active(3, false);
  const MultihopResult second = b.run_slots(250);

  // Summable counters across the split must match the one-shot run.
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_EQ(full.node[i].attempts,
              first.node[i].attempts + second.node[i].attempts);
    EXPECT_EQ(full.node[i].successes,
              first.node[i].successes + second.node[i].successes);
    EXPECT_EQ(full.node[i].local_time_us,
              first.node[i].local_time_us + second.node[i].local_time_us);
  }
}

TEST(PdesDifferential, AdaptiveTftTrajectoryKernelInvariant) {
  // The adaptive (graph-TFT) runtime on top of the simulator: the whole
  // stage trajectory — profiles, payoffs, convergence — must be
  // identical under either kernel (the adaptive-refresh path of
  // docs/PDES.md).
  util::Rng rng(61);
  const Topology topo = random_topology(rng, 24, 800.0);
  std::vector<int> profile = random_profile(rng, 24);

  MultihopTftConfig tft;
  tft.slots_per_stage = 300;
  tft.stages = 4;

  MultihopConfig config;
  config.seed = 2024;
  MultihopSimulator oracle(config, topo, profile);
  const MultihopTftResult a = play_multihop_tft(oracle, nullptr, tft);

  MultihopConfig pdes_config = config;
  pdes_config.kernel = MultihopKernel::kPdes;
  pdes_config.pdes.jobs = 4;
  MultihopSimulator pdes(pdes_config, topo, profile);
  const MultihopTftResult b = play_multihop_tft(pdes, nullptr, tft);

  ASSERT_EQ(a.stages.size(), b.stages.size());
  for (std::size_t s = 0; s < a.stages.size(); ++s) {
    EXPECT_EQ(a.stages[s].cw, b.stages[s].cw);
    EXPECT_EQ(a.stages[s].payoff, b.stages[s].payoff);
    EXPECT_EQ(a.stages[s].global_payoff, b.stages[s].global_payoff);
  }
  EXPECT_EQ(a.converged_cw, b.converged_cw);
  EXPECT_EQ(a.stable_from, b.stable_from);
}

TEST(PdesDifferential, CrossRegionEventsOnWindowEdges) {
  // A node whose every neighbor belongs to another region crashes and
  // rejoins on the first and last slot of a window, and so does one of
  // those neighbors. Dependents learn its state only from the published
  // ring's active bit, and only its owner applies its events, so this
  // pins both against the oracle window for window.
  const double kRange = 250.0;
  const Vec2 x_pos{740.0, 100.0};  // tile column 0, next to column 1
  std::vector<Vec2> pos{{0.0, 0.0}, x_pos, {800.0, 100.0}, {900.0, 150.0},
                        {850.0, 0.0}};
  util::Rng rng(404);
  while (pos.size() < 45) {
    const Vec2 p{rng.uniform_real(0.0, 1500.0), rng.uniform_real(0.0, 1500.0)};
    // Keep x's column-0 surroundings empty so its neighbors all sit in
    // column 1.
    if (p.x < 750.0 && distance_sq(p, x_pos) <= 1.1 * kRange * kRange) {
      continue;
    }
    pos.push_back(p);
  }
  const Topology topo(pos, kRange);
  const std::size_t x = 1;
  const std::size_t y = topo.neighbors(x).front();
  const RegionPartition tiles(topo, PdesOptions{});
  ASSERT_GE(topo.degree(x), 3u);
  for (std::size_t j : topo.neighbors(x)) {
    ASSERT_NE(tiles.region_of(j), tiles.region_of(x));
  }

  const std::uint64_t kWindow = 200;
  MultihopConfig config;
  config.seed = 606;
  config.faults.events = {
      {0, y, fault::FaultKind::kCrash},    // first slot of window 0
      {199, y, fault::FaultKind::kJoin},   // last slot of window 0
      {200, x, fault::FaultKind::kCrash},  // first slot of window 1
      {399, x, fault::FaultKind::kJoin},   // last slot of window 1
      {400, x, fault::FaultKind::kCrash},  // first slot of window 2
      {599, x, fault::FaultKind::kJoin},   // last slot of window 2
      {599, y, fault::FaultKind::kCrash},
  };
  const std::vector<int> profile(pos.size(), 8);

  for (const bool per_node : {false, true}) {
    for (const std::size_t jobs : {1u, 2u, 4u}) {
      MultihopConfig pdes_config = config;
      pdes_config.kernel = MultihopKernel::kPdes;
      pdes_config.pdes.jobs = jobs;
      pdes_config.pdes.region_per_node = per_node;
      MultihopSimulator oracle(config, topo, profile);
      MultihopSimulator pdes(pdes_config, topo, profile);
      for (int w = 0; w < 4; ++w) {
        const std::string label = std::string(per_node ? "per-node" : "tiles") +
                                  " jobs=" + std::to_string(jobs) +
                                  " window " + std::to_string(w);
        const MultihopResult a = oracle.run_slots(kWindow);
        const MultihopResult b = pdes.run_slots(kWindow);
        expect_identical(b, a, label);
        expect_conservative(pdes.last_pdes_stats());
        EXPECT_EQ(pdes.node_active(x), oracle.node_active(x)) << label;
        EXPECT_EQ(pdes.node_active(y), oracle.node_active(y)) << label;
      }
    }
  }
}

TEST(PdesDifferential, JobsZeroUsesDefaultAndClamps) {
  // jobs = 0 resolves to the host default, clamped to the region count;
  // either way the result stays pinned to the oracle.
  util::Rng rng(83);
  const Topology topo = random_topology(rng, 16, 600.0);
  const std::vector<int> profile = random_profile(rng, 16);
  MultihopConfig config;
  config.seed = 8;
  PdesOptions opt;
  opt.jobs = 0;
  run_cell(config, topo, profile, 300, opt, "jobs=0");
}

}  // namespace
}  // namespace smac::multihop
