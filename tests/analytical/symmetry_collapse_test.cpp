// Symmetry-class reduction invariants (PR 4 tentpole).
//
// The collapsed kernel solves the k-class system and expands per node, so
// three properties must hold exactly or to tight tolerance:
//   1. permutation equivariance, *bitwise*: solve_network(perm(w)) equals
//      the permuted solve_network(w) (canonical class ordering makes the
//      arithmetic identical regardless of node order);
//   2. the canonical cache hits on permutations of solved profiles and
//      returns bitwise-identical expansions;
//   3. the collapsed kernel agrees with the retained full-dimension
//      reference (try_solve_network_full) to <= 1e-12 across a grid of
//      (n, class-mix, PER) profiles — the acceptance bound of ISSUE 4.
#include <algorithm>
#include <cstddef>
#include <numeric>
#include <string>
#include <vector>

#include "analytical/fixed_point_solver.hpp"
#include "analytical/solver_service.hpp"
#include "gtest/gtest.h"
#include "util/rng.hpp"

namespace smac::analytical {
namespace {

std::vector<int> shuffled(std::vector<int> w, std::uint64_t seed) {
  util::Rng rng(seed);
  for (std::size_t i = w.size(); i > 1; --i) {
    std::swap(w[i - 1], w[rng.uniform_below(i)]);
  }
  return w;
}

/// Builds an n-node profile with the requested class windows, spreading
/// multiplicities as evenly as possible and interleaving class members so
/// the node order is *not* sorted.
std::vector<int> mixed_profile(int n, const std::vector<int>& windows) {
  std::vector<int> w(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    w[static_cast<std::size_t>(i)] =
        windows[static_cast<std::size_t>(i) % windows.size()];
  }
  return w;
}

TEST(ClassifyProfile, CanonicalSortedClasses) {
  const ClassProfile classes = classify_profile({64, 16, 64, 256, 16, 64});
  ASSERT_EQ(classes.class_count(), 3u);
  EXPECT_EQ(classes.window, (std::vector<int>{16, 64, 256}));
  EXPECT_EQ(classes.multiplicity, (std::vector<int>{2, 3, 1}));
  ASSERT_EQ(classes.node_count(), 6u);
  EXPECT_EQ(classes.class_of,
            (std::vector<std::int32_t>{1, 0, 1, 2, 0, 1}));
}

TEST(ClassifyProfile, HomogeneousIsOneClass) {
  const ClassProfile classes = classify_profile(std::vector<int>(50, 128));
  ASSERT_EQ(classes.class_count(), 1u);
  EXPECT_EQ(classes.multiplicity[0], 50);
}

TEST(SymmetryCollapse, PermutationEquivariantBitwise) {
  const std::vector<int> w = mixed_profile(23, {16, 128, 1024});
  const NetworkState base = solve_network(w, 5, {}, 0.1);
  for (const std::uint64_t seed : {11u, 29u, 77u}) {
    // Permute the profile and carry the permutation alongside.
    std::vector<std::size_t> order(w.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    util::Rng rng(seed);
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.uniform_below(i)]);
    }
    std::vector<int> pw(w.size());
    for (std::size_t i = 0; i < w.size(); ++i) pw[i] = w[order[i]];

    const NetworkState permuted = solve_network(pw, 5, {}, 0.1);
    ASSERT_TRUE(permuted.converged);
    for (std::size_t i = 0; i < w.size(); ++i) {
      // Bitwise: the collapsed kernel computes the identical canonical
      // class solution either way; only the expansion map differs.
      EXPECT_EQ(permuted.tau[i], base.tau[order[i]]) << "seed " << seed;
      EXPECT_EQ(permuted.p[i], base.p[order[i]]) << "seed " << seed;
    }
  }
}

TEST(SymmetryCollapse, EqualWindowsShareBitwiseOutcomes) {
  const std::vector<int> w{512, 16, 512, 16, 512, 90, 16};
  const NetworkState state = solve_network(w, 6);
  for (std::size_t i = 0; i < w.size(); ++i) {
    for (std::size_t j = i + 1; j < w.size(); ++j) {
      if (w[i] != w[j]) continue;
      EXPECT_EQ(state.tau[i], state.tau[j]);
      EXPECT_EQ(state.p[i], state.p[j]);
    }
  }
}

TEST(SymmetryCollapse, CacheHitsOnPermutedProfiles) {
  SolverService service;
  // SolverService::solve on a per-node profile, expanded back per node.
  const auto solve = [&service](const std::vector<int>& profile) {
    const ClassProfile classes = classify_profile(profile);
    TrySolveResult out = service.solve(classes, 5, 0.0);
    out.state = expand_classes(out.state, classes);
    return out;
  };
  const std::vector<int> w = mixed_profile(12, {32, 256});
  const TrySolveResult first = solve(w);
  ASSERT_EQ(service.cache_stats().misses, 1u);
  for (const std::uint64_t seed : {3u, 5u, 9u}) {
    const std::vector<int> pw = shuffled(w, seed);
    const TrySolveResult again = solve(pw);
    for (std::size_t i = 0; i < pw.size(); ++i) {
      const TrySolveResult direct = solve(pw);
      EXPECT_EQ(again.state.tau[i], direct.state.tau[i]);
    }
  }
  // Every permutation collapses to the same canonical key: no new misses.
  EXPECT_EQ(service.cache_stats().misses, 1u);
  EXPECT_EQ(service.cache_stats().size, 1u);
  EXPECT_GE(service.cache_stats().hits, 3u);
  // And the permuted hit is bitwise the permuted original solution.
  const std::vector<int> pw = shuffled(w, 3u);
  const TrySolveResult hit = solve(pw);
  for (std::size_t i = 0; i < pw.size(); ++i) {
    const TrySolveResult direct = try_solve_network(pw, 5, {}, 0.0);
    EXPECT_EQ(hit.state.tau[i], direct.state.tau[i]);
    EXPECT_EQ(hit.state.p[i], direct.state.p[i]);
  }
}

TEST(SymmetryCollapse, CollapsedAgreesWithFullAcrossGrid) {
  const std::vector<std::vector<int>> mixes{
      {64},                // k = 1 (scalar delegation)
      {16, 512},           // deviant-vs-crowd shape
      {16, 128, 1024},     // three-way split
      {8, 64, 256, 2048},  // k = 4
  };
  for (const int n : {4, 9, 20, 50, 100}) {
    for (const auto& mix : mixes) {
      if (static_cast<std::size_t>(n) < mix.size()) continue;
      for (const double per : {0.0, 0.3}) {
        const std::vector<int> w = mixed_profile(n, mix);
        const std::string label = "n=" + std::to_string(n) +
                                  " k=" + std::to_string(mix.size()) +
                                  " per=" + std::to_string(per);
        const TrySolveResult collapsed = try_solve_network(w, 5, {}, per);
        const TrySolveResult full = try_solve_network_full(w, 5, {}, per);
        ASSERT_EQ(collapsed.diagnostics.status, SolveStatus::kConverged)
            << label;
        ASSERT_EQ(full.diagnostics.status, SolveStatus::kConverged) << label;
        for (std::size_t i = 0; i < w.size(); ++i) {
          EXPECT_NEAR(collapsed.state.tau[i], full.state.tau[i], 1e-12)
              << label << " node " << i;
          EXPECT_NEAR(collapsed.state.p[i], full.state.p[i], 1e-12)
              << label << " node " << i;
        }
      }
    }
  }
}

TEST(SymmetryCollapse, HomogeneousDelegatesToScalarPath) {
  const TrySolveResult r = try_solve_network(std::vector<int>(20, 64), 5);
  EXPECT_EQ(r.diagnostics.status, SolveStatus::kConverged);
  // k = 1 routes through try_homogeneous_tau, not the damped ladder.
  EXPECT_STREQ(r.diagnostics.method, "brent");
  const NetworkState scalar = solve_network_homogeneous(64.0, 20, 5);
  EXPECT_EQ(r.state.tau[0], scalar.tau[0]);
}

TEST(SymmetryCollapse, WarmStartConvergesFasterAndAgrees) {
  const std::vector<int> w = mixed_profile(40, {16, 256, 1024});
  const TrySolveResult cold = try_solve_network(w, 5, {}, 0.05);
  ASSERT_EQ(cold.diagnostics.status, SolveStatus::kConverged);

  SolverOptions warm_opts;
  warm_opts.initial_tau = cold.state.tau;  // per-node warm start
  const TrySolveResult warm = try_solve_network(w, 5, warm_opts, 0.05);
  EXPECT_EQ(warm.diagnostics.status, SolveStatus::kConverged);
  EXPECT_STREQ(warm.diagnostics.method, "warm");
  EXPECT_LT(warm.diagnostics.iterations, cold.diagnostics.iterations);
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_NEAR(warm.state.tau[i], cold.state.tau[i], 1e-12);
  }

  // A class-space (size k) hint is accepted too.
  const ClassProfile classes = classify_profile(w);
  SolverOptions class_opts;
  class_opts.initial_tau.assign(classes.class_count(), 0.0);
  for (std::size_t i = 0; i < w.size(); ++i) {
    class_opts.initial_tau[static_cast<std::size_t>(classes.class_of[i])] =
        cold.state.tau[i];
  }
  const TrySolveResult via_class = try_solve_network(w, 5, class_opts, 0.05);
  EXPECT_EQ(via_class.diagnostics.status, SolveStatus::kConverged);
  EXPECT_STREQ(via_class.diagnostics.method, "warm");

  // Mis-sized hints are ignored, not an error.
  SolverOptions bad_opts;
  bad_opts.initial_tau.assign(w.size() + 3, 0.5);
  const TrySolveResult ignored = try_solve_network(w, 5, bad_opts, 0.05);
  EXPECT_EQ(ignored.diagnostics.status, SolveStatus::kConverged);
  EXPECT_STRNE(ignored.diagnostics.method, "warm");
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_EQ(ignored.state.tau[i], cold.state.tau[i]);
  }
}

TEST(SymmetryCollapse, ExpandClassesPreservesNodeOrder) {
  const std::vector<int> w{128, 8, 128, 8, 2048};
  const ClassProfile classes = classify_profile(w);
  const TrySolveResult collapsed = try_solve_classes(classes, 5);
  ASSERT_EQ(collapsed.state.tau.size(), classes.class_count());
  const NetworkState expanded = expand_classes(collapsed.state, classes);
  ASSERT_EQ(expanded.tau.size(), w.size());
  const NetworkState direct = solve_network(w, 5);
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_EQ(expanded.tau[i], direct.tau[i]);
    EXPECT_EQ(expanded.p[i], direct.p[i]);
  }
}

}  // namespace
}  // namespace smac::analytical
