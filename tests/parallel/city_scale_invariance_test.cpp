// City-scale determinism pins (`ctest -L parallel`): every deterministic
// field of CityScaleResult is a pure function of CityScaleConfig —
// independent of the SolverService pool width (--jobs) — and node ids
// carry no meaning: relabelling the nodes only relabels the graph and the
// per-node outputs. This is the test behind the bench's
// byte-identical-JSON claim (bench/city_scale.cpp): the JSON writer only
// prints the fields compared here.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <vector>

#include "multihop/city_scale.hpp"
#include "multihop/local_game.hpp"
#include "multihop/spatial_index.hpp"
#include "phy/parameters.hpp"
#include "util/rng.hpp"

namespace smac::multihop {
namespace {

void expect_identical(const CityScaleResult& a, const CityScaleResult& b) {
  EXPECT_EQ(a.nodes, b.nodes);
  EXPECT_EQ(a.arena_m, b.arena_m);  // bitwise
  ASSERT_EQ(a.stage.size(), b.stage.size());
  for (std::size_t k = 0; k < a.stage.size(); ++k) {
    const CityScaleStage& x = a.stage[k];
    const CityScaleStage& y = b.stage[k];
    EXPECT_EQ(x.stage, y.stage);
    EXPECT_EQ(x.online, y.online);
    EXPECT_EQ(x.edges, y.edges);
    EXPECT_EQ(x.crashes, y.crashes);
    EXPECT_EQ(x.joins, y.joins);
    EXPECT_EQ(x.update.moved, y.update.moved);
    EXPECT_EQ(x.update.rebucketed, y.update.rebucketed);
    EXPECT_EQ(x.update.rescanned, y.update.rescanned);
    EXPECT_EQ(x.converged_w, y.converged_w);
    EXPECT_EQ(x.tft_stages, y.tft_stages);
    EXPECT_EQ(x.priced_nodes, y.priced_nodes);
    EXPECT_EQ(x.seed_classes, y.seed_classes);
    EXPECT_EQ(x.converged_classes, y.converged_classes);
    // Bitwise — these are the %.17g doubles in BENCH_city_scale.json.
    EXPECT_EQ(x.quasi_optimal_fraction, y.quasi_optimal_fraction);
    EXPECT_EQ(x.mean_payoff_fraction, y.mean_payoff_fraction);
    EXPECT_EQ(x.min_payoff_fraction, y.min_payoff_fraction);
  }
  EXPECT_EQ(a.cache.size, b.cache.size);
  EXPECT_EQ(a.cache.hits, b.cache.hits);
  EXPECT_EQ(a.cache.misses, b.cache.misses);
}

TEST(CityScaleInvarianceTest, JobsOneVersusFourBitwiseEqual) {
  CityScaleConfig config;
  config.nodes = 1000;
  config.stages = 2;
  config.seed = 2026;

  config.solver_jobs = 1;
  const CityScaleResult sequential = run_city_scale(config);
  config.solver_jobs = 4;
  const CityScaleResult pooled = run_city_scale(config);

  expect_identical(sequential, pooled);

  // And the run did something: mobility moved nodes, churn fired, pricing
  // covered the active set.
  EXPECT_GT(sequential.stage.at(1).update.moved, 0u);
  EXPECT_GT(sequential.stage.at(0).priced_nodes, 900u);
  EXPECT_GT(sequential.cache.hits, 0u);
}

TEST(CityScaleInvarianceTest, RepeatedRunsAreBitwiseStable) {
  CityScaleConfig config;
  config.nodes = 400;
  config.stages = 2;
  config.seed = 99;
  expect_identical(run_city_scale(config), run_city_scale(config));
}

TEST(CityScaleInvarianceTest, BucketInsertionOrderCannotLeakIntoResults) {
  // sort_into_cells fills each grid bucket in node-id order, so permuting
  // the node ids of a 1000-node layout permutes the order nodes enter
  // their buckets. Rebuild and map back: every node keeps its neighbours,
  // its local agreement and its whole TFT trajectory (the sweeps are
  // synchronous, so visit order cannot matter either).
  constexpr std::size_t kNodes = 1000;
  const double arena = city_arena_side_m(kNodes, 250.0, 12.0);
  util::Rng rng(5150);
  std::vector<Vec2> pos(kNodes);
  for (Vec2& p : pos) {
    p = {rng.uniform_real(0.0, arena), rng.uniform_real(0.0, arena)};
  }
  std::vector<std::size_t> label(kNodes);  // node i is label[i] in b
  std::iota(label.begin(), label.end(), std::size_t{0});
  for (std::size_t i = kNodes - 1; i > 0; --i) {
    const auto j = static_cast<std::size_t>(rng.uniform_below(i + 1));
    std::swap(label[i], label[j]);
  }
  std::vector<Vec2> relabelled(kNodes);
  for (std::size_t i = 0; i < kNodes; ++i) relabelled[label[i]] = pos[i];

  const SpatialIndex index_a(pos, 250.0);
  const SpatialIndex index_b(relabelled, 250.0);
  const Topology& topo_a = index_a.topology();
  const Topology& topo_b = index_b.topology();
  ASSERT_EQ(topo_a.edge_count(), topo_b.edge_count());
  for (std::size_t i = 0; i < kNodes; ++i) {
    std::vector<std::size_t> mapped;
    for (const std::size_t j : topo_a.neighbors(i)) mapped.push_back(label[j]);
    std::sort(mapped.begin(), mapped.end());
    const auto nb = topo_b.neighbors(label[i]);
    ASSERT_EQ(mapped, std::vector<std::size_t>(nb.begin(), nb.end()))
        << "node " << i;
  }

  const game::StageGame game(phy::Parameters::paper(),
                             phy::AccessMode::kRtsCts);
  const std::vector<int> seeds_a = local_efficient_cw(topo_a, game);
  const std::vector<int> seeds_b = local_efficient_cw(topo_b, game);
  for (std::size_t i = 0; i < kNodes; ++i) {
    ASSERT_EQ(seeds_a[i], seeds_b[label[i]]) << "node " << i;
  }

  const auto conv_a = tft_min_convergence(topo_a, seeds_a);
  const auto conv_b = tft_min_convergence(topo_b, seeds_b);
  EXPECT_EQ(conv_a.converged_w, conv_b.converged_w);
  EXPECT_EQ(conv_a.stages, conv_b.stages);
  ASSERT_EQ(conv_a.trajectory.size(), conv_b.trajectory.size());
  for (std::size_t t = 0; t < conv_a.trajectory.size(); ++t) {
    for (std::size_t i = 0; i < kNodes; ++i) {
      ASSERT_EQ(conv_a.trajectory[t][i], conv_b.trajectory[t][label[i]])
          << "stage " << t << " node " << i;
    }
  }
}

}  // namespace
}  // namespace smac::multihop
