// Robustness of the non-throwing solver entry points: edge profiles that
// historically aborted sweeps must now come back as a SolveStatus with
// finite state, and the clamped window_for_tau must return its cap rather
// than throwing mid-sweep. Also covers the thread-safe network solve cache
// behind SolverService::solve.
#include <cmath>
#include <stdexcept>
#include <thread>
#include <vector>

#include "analytical/fixed_point_solver.hpp"
#include "analytical/solver_service.hpp"
#include "gtest/gtest.h"

namespace {

using namespace smac::analytical;

void expect_finite_state(const TrySolveResult& r, std::size_t n) {
  ASSERT_EQ(r.state.tau.size(), n);
  ASSERT_EQ(r.state.p.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(std::isfinite(r.state.tau[i])) << "tau[" << i << "]";
    EXPECT_TRUE(std::isfinite(r.state.p[i])) << "p[" << i << "]";
    EXPECT_GE(r.state.tau[i], 0.0);
    EXPECT_LE(r.state.tau[i], 1.0);
    EXPECT_GE(r.state.p[i], 0.0);
    EXPECT_LE(r.state.p[i], 1.0);
  }
  EXPECT_TRUE(std::isfinite(r.diagnostics.residual));
}

/// SolverService::solve on a per-node profile, expanded back per node.
TrySolveResult solve_nodes(const SolverService& service,
                           const std::vector<int>& w, int max_stage,
                           double per) {
  const ClassProfile classes = classify_profile(w);
  TrySolveResult out = service.solve(classes, max_stage, per);
  out.state = expand_classes(out.state, classes);
  return out;
}

TEST(SolverRobustness, AllGreedyWindowOneNeverThrows) {
  // W = 1 everywhere: every node transmits every slot, p -> 1. The most
  // collision-saturated profile the game can produce.
  for (int n : {2, 6, 20}) {
    const std::vector<int> w(static_cast<std::size_t>(n), 1);
    TrySolveResult r;
    ASSERT_NO_THROW(r = try_solve_network(w, 5));
    expect_finite_state(r, w.size());
    EXPECT_TRUE(usable(r.diagnostics.status));
  }
}

TEST(SolverRobustness, LargePopulationConverges) {
  const std::vector<int> w(50, 64);
  TrySolveResult r;
  ASSERT_NO_THROW(r = try_solve_network(w, 5));
  expect_finite_state(r, w.size());
  EXPECT_EQ(r.diagnostics.status, SolveStatus::kConverged);
}

TEST(SolverRobustness, NearUnityPacketErrorRate) {
  const std::vector<int> w{16, 32, 64, 128};
  for (double per : {0.9, 0.99}) {
    TrySolveResult r;
    ASSERT_NO_THROW(r = try_solve_network(w, 5, {}, per));
    expect_finite_state(r, w.size());
    EXPECT_TRUE(usable(r.diagnostics.status)) << "PER = " << per;
  }
}

TEST(SolverRobustness, ExtremeMixedProfileNeverThrows) {
  // One always-transmit node against very patient ones: tau spread of
  // three orders of magnitude stresses the damped iteration.
  const std::vector<int> w{1, 1024, 1, 1024, 1024, 1024};
  TrySolveResult r;
  ASSERT_NO_THROW(r = try_solve_network(w, 5));
  expect_finite_state(r, w.size());
  EXPECT_TRUE(usable(r.diagnostics.status));
  EXPECT_GT(r.state.tau[0], r.state.tau[1]);
}

TEST(SolverRobustness, InvalidInputsFailInsteadOfThrowing) {
  EXPECT_EQ(try_solve_network({}, 5).diagnostics.status, SolveStatus::kFailed);
  EXPECT_EQ(try_solve_network({0, 16}, 5).diagnostics.status,
            SolveStatus::kFailed);
  EXPECT_EQ(try_solve_network({16, 16}, -1).diagnostics.status,
            SolveStatus::kFailed);
  EXPECT_EQ(try_solve_network({16, 16}, 5, {}, 1.5).diagnostics.status,
            SolveStatus::kFailed);
  EXPECT_STREQ(try_solve_network({}, 5).diagnostics.method, "invalid");
  // The throwing entry point still throws — public API contract.
  EXPECT_THROW(solve_network({}, 5), std::invalid_argument);
  EXPECT_THROW(solve_network({0}, 5), std::invalid_argument);
}

TEST(SolverRobustness, TryHomogeneousTauEdgeCases) {
  for (double w : {1.0, 2.0, 1e6}) {
    for (int n : {1, 2, 50}) {
      TryTauResult r;
      ASSERT_NO_THROW(r = try_homogeneous_tau(w, n, 5));
      EXPECT_TRUE(std::isfinite(r.tau)) << "w=" << w << " n=" << n;
      EXPECT_GE(r.tau, 0.0);
      EXPECT_LE(r.tau, 1.0);
      EXPECT_TRUE(usable(r.diagnostics.status));
    }
  }
  EXPECT_EQ(try_homogeneous_tau(0.5, 5, 5).diagnostics.status,
            SolveStatus::kFailed);
  EXPECT_EQ(try_homogeneous_tau(16.0, 0, 5).diagnostics.status,
            SolveStatus::kFailed);
}

TEST(SolverRobustness, ThrowingAndTryAgreeOnCleanProfiles) {
  const std::vector<int> w{16, 32, 64};
  const NetworkState via_throw = solve_network(w, 5);
  const TrySolveResult via_try = try_solve_network(w, 5);
  ASSERT_TRUE(via_throw.converged);
  ASSERT_EQ(via_try.diagnostics.status, SolveStatus::kConverged);
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_NEAR(via_throw.tau[i], via_try.state.tau[i], 1e-12);
    EXPECT_NEAR(via_throw.p[i], via_try.state.p[i], 1e-12);
  }
}

// Regression: a tau_target below what any finite window reaches used to
// abort the whole sweep with std::runtime_error; it must now clamp to the
// documented cap.
TEST(WindowForTau, UnreachableTargetReturnsCapInsteadOfThrowing) {
  double w = 0.0;
  ASSERT_NO_THROW(w = window_for_tau(1e-15, 5, 5));
  EXPECT_EQ(w, kWindowForTauCap);
}

TEST(WindowForTau, RoundTripsReachableTargets) {
  const double tau = try_homogeneous_tau(64.0, 5, 5).tau;
  const double w = window_for_tau(tau, 5, 5);
  EXPECT_NEAR(w, 64.0, 0.5);
  // tau larger than the w = 1 fixed point clamps to the lower bound.
  EXPECT_GE(window_for_tau(0.9999, 5, 5), 1.0);
}

TEST(NetworkSolveCache, HitsAndMissesAreCounted) {
  SolverService service;
  EXPECT_EQ(service.cache_stats().size, 0u);
  const std::vector<int> w{16, 32};
  const TrySolveResult first = solve_nodes(service, w, 5, 0.0);
  EXPECT_EQ(service.cache_stats().misses, 1u);
  EXPECT_EQ(service.cache_stats().hits, 0u);
  const TrySolveResult second = solve_nodes(service, w, 5, 0.0);
  EXPECT_EQ(service.cache_stats().hits, 1u);
  EXPECT_EQ(service.cache_stats().size, 1u);
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_EQ(first.state.tau[i], second.state.tau[i]);
  }
  // Distinct PER / max_stage are distinct keys.
  (void)solve_nodes(service, w, 5, 0.1);
  (void)solve_nodes(service, w, 6, 0.0);
  EXPECT_EQ(service.cache_stats().misses, 3u);
  EXPECT_EQ(service.cache_stats().size, 3u);
}

TEST(NetworkSolveCache, MatchesDirectSolve) {
  SolverService service;
  const std::vector<int> w{8, 64, 256};
  const TrySolveResult cached = solve_nodes(service, w, 5, 0.2);
  const TrySolveResult direct = try_solve_network(w, 5, {}, 0.2);
  ASSERT_EQ(cached.state.tau.size(), direct.state.tau.size());
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_EQ(cached.state.tau[i], direct.state.tau[i]);
    EXPECT_EQ(cached.state.p[i], direct.state.p[i]);
  }
}

TEST(NetworkSolveCache, ConcurrentMixedProfileLookupsAreSafe) {
  SolverService service;
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  std::vector<double> tau0(kThreads, -1.0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&service, &tau0, t] {
      for (int rep = 0; rep < 20; ++rep) {
        const std::vector<int> w{16 + rep % 3, 32, 64};
        tau0[static_cast<std::size_t>(t)] =
            solve_nodes(service, w, 5, 0.0).state.tau[0];
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(tau0[static_cast<std::size_t>(t)], tau0[0]);
  }
  const SolveCacheStats stats = service.cache_stats();
  EXPECT_GE(stats.hits + stats.misses, 80u);
  EXPECT_EQ(stats.size, 3u);
}

}  // namespace
