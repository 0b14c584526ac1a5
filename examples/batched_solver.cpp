// Batched solver quickstart: submit 1000 profiles through SolverService,
// drain once, print the throughput.
//
// Requests are canonical class profiles (classify_profile). The service
// deduplicates them onto symmetry-class keys, answers repeats and
// permutations from its cache, and solves the distinct misses through the
// lockstep batch kernel — every ticket's class-space result expands to
// the bits of a one-at-a-time try_solve_network call (see
// docs/SOLVER_API.md for the full contract).
//
// Build & run:  ./build/examples/batched_solver [requests]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "analytical/solver_service.hpp"

int main(int argc, char** argv) {
  using namespace smac;
  using Clock = std::chrono::steady_clock;
  const int requests = argc > 1 ? std::atoi(argv[1]) : 1000;
  if (requests < 1) {
    std::fprintf(stderr, "usage: %s [requests >= 1]\n", argv[0]);
    return 1;
  }

  analytical::SolverService service;

  // 1. Submit: a deviation-scan-shaped request stream — 20 cooperating
  //    nodes at W = 128 with one deviant sweeping its window. Nothing is
  //    solved yet; the service just queues the requests.
  const auto t0 = Clock::now();
  std::vector<analytical::SolverService::Ticket> tickets;
  tickets.reserve(static_cast<std::size_t>(requests));
  for (int r = 0; r < requests; ++r) {
    std::vector<int> profile(20, 128);
    profile[0] = 1 + r % 127;  // the deviant's window, revisited cyclically
    tickets.push_back(
        service.submit(analytical::classify_profile(profile), 6, 0.0));
  }

  // 2. Drain: one lockstep batch over the distinct class systems; repeats
  //    of the same deviant window are cache hits.
  service.drain();
  const auto t1 = Clock::now();

  // 3. Redeem the tickets (already fulfilled — result() would also have
  //    drained for us on first use).
  double tau_sum = 0.0;
  for (const auto& ticket : tickets) {
    // Class 0 holds the smallest window: the deviant's attempt rate.
    tau_sum += ticket.result().state.tau[0];
  }

  const double us =
      std::chrono::duration<double, std::micro>(t1 - t0).count();
  const analytical::SolveCacheStats stats = service.cache_stats();
  std::printf("solved %d requests in %.1f us (%.0f requests/s)\n", requests,
              us, requests / us * 1e6);
  std::printf("cache: %zu distinct class systems, %llu hits, %llu misses\n",
              stats.size, static_cast<unsigned long long>(stats.hits),
              static_cast<unsigned long long>(stats.misses));
  std::printf("mean deviant tau: %.6f\n", tau_sum / requests);
  return 0;
}
