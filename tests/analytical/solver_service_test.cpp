// SolverService: async submit/drain semantics over the canonical cache.
//
// The service's contract (src/analytical/solver_service.hpp): every
// ticket resolves to class-space bits that expand to a direct
// try_solve_network call, the cache traffic counters advance exactly as
// the same requests would have through sequential solve() calls,
// pool-chunked drains change nothing, and tickets can be redeemed lazily
// (result() drains on demand).
#include "analytical/solver_service.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "parallel/thread_pool.hpp"

namespace smac::analytical {
namespace {

void expect_bits_equal(const std::vector<double>& a,
                       const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i]),
              std::bit_cast<std::uint64_t>(b[i]))
        << "index " << i;
  }
}

/// `got` is the class-space answer for profile `w`.
void expect_matches_direct(const TrySolveResult& got,
                           const std::vector<int>& w, int max_stage,
                           double per) {
  const TrySolveResult direct = try_solve_network(w, max_stage, {}, per);
  const NetworkState expanded =
      expand_classes(got.state, classify_profile(w));
  expect_bits_equal(expanded.tau, direct.state.tau);
  expect_bits_equal(expanded.p, direct.state.p);
  EXPECT_EQ(got.diagnostics.status, direct.diagnostics.status);
  EXPECT_EQ(got.diagnostics.iterations, direct.diagnostics.iterations);
  EXPECT_STREQ(got.diagnostics.method, direct.diagnostics.method);
}

SolverService::Ticket submit(const SolverService& service,
                             const std::vector<int>& w, int max_stage,
                             double per) {
  return service.submit(classify_profile(w), max_stage, per);
}

TEST(SolverServiceTest, TicketsMatchDirectSolves) {
  SolverService service;
  const std::vector<std::vector<int>> profiles{
      {16, 16, 32}, {32, 16, 16}, {1, 1024}, {8, 8, 8, 8}};
  std::vector<SolverService::Ticket> tickets;
  for (const auto& w : profiles) tickets.push_back(submit(service, w, 6, 0.1));
  EXPECT_EQ(service.pending(), profiles.size());
  service.drain();
  EXPECT_EQ(service.pending(), 0u);
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    ASSERT_TRUE(tickets[i].ready());
    expect_matches_direct(tickets[i].result(), profiles[i], 6, 0.1);
  }
}

TEST(SolverServiceTest, StatsMirrorSequentialRequests) {
  // {16,16,32} and {32,16,16} collapse to one canonical key; sequential
  // solve() calls would count 2 misses (two distinct keys) + 2 hits (the
  // permutation and the repeat). A single drain must tally identically.
  SolverService service;
  submit(service, {16, 16, 32}, 6, 0.1);
  submit(service, {32, 16, 16}, 6, 0.1);
  submit(service, {1, 1024}, 6, 0.1);
  submit(service, {16, 16, 32}, 6, 0.1);
  service.drain();
  const SolveCacheStats stats = service.cache_stats();
  EXPECT_EQ(stats.size, 2u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 2u);

  // A second drain of an already-cached profile is pure hits.
  submit(service, {16, 32, 16}, 6, 0.1);
  service.drain();
  EXPECT_EQ(service.cache_stats().hits, 3u);
  EXPECT_EQ(service.cache_stats().misses, 2u);
}

TEST(SolverServiceTest, ResultDrainsOnDemand) {
  SolverService service;
  SolverService::Ticket ticket = submit(service, {64, 64, 8}, 6, 0.0);
  EXPECT_FALSE(ticket.ready());
  expect_matches_direct(ticket.result(), {64, 64, 8}, 6,
                        0.0);  // implicit drain
  EXPECT_TRUE(ticket.ready());
  EXPECT_EQ(service.pending(), 0u);
}

TEST(SolverServiceTest, InvalidRequestsFailLikeDirectCalls) {
  SolverService service;
  SolverService::Ticket empty = submit(service, {}, 6, 0.0);
  SolverService::Ticket bad_window = submit(service, {0, 16}, 6, 0.0);
  SolverService::Ticket bad_per = submit(service, {16}, 6, 1.0);
  // Not canonical: windows out of order, or a class_of that disagrees
  // with the multiplicities.
  ClassProfile unsorted = classify_profile({16, 32});
  std::swap(unsorted.window[0], unsorted.window[1]);
  ClassProfile short_map = classify_profile({16, 16, 32});
  short_map.class_of.pop_back();
  SolverService::Ticket bad_order = service.submit(unsorted, 6, 0.0);
  SolverService::Ticket bad_map = service.submit(short_map, 6, 0.0);
  service.drain();
  for (const auto* ticket :
       {&empty, &bad_window, &bad_per, &bad_order, &bad_map}) {
    EXPECT_EQ(ticket->result().diagnostics.status, SolveStatus::kFailed);
    EXPECT_STREQ(ticket->result().diagnostics.method, "invalid");
    EXPECT_TRUE(ticket->result().state.tau.empty());
  }
  // Invalid requests tally as misses without inserting — on the blocking
  // path too.
  EXPECT_EQ(service.cache_stats().misses, 5u);
  EXPECT_EQ(service.solve(unsorted, 6, 0.0).diagnostics.status,
            SolveStatus::kFailed);
  EXPECT_EQ(service.cache_stats().misses, 6u);
  EXPECT_EQ(service.cache_stats().size, 0u);
}

TEST(SolverServiceTest, CountedTicketTalliesItsRequests) {
  // One ticket standing for r requests tallies what r one-request
  // tickets would: a fresh key is 1 miss + (r - 1) hits, a cached key r
  // hits, an invalid request r misses.
  constexpr std::uint64_t kRequests = 7;
  SolverService service;
  const SolverService::Ticket fresh =
      service.submit(classify_profile({16, 16, 32}), 6, 0.1, kRequests);
  service.drain();
  expect_matches_direct(fresh.result(), {16, 16, 32}, 6, 0.1);
  SolveCacheStats stats = service.cache_stats();
  EXPECT_EQ(stats.size, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, kRequests - 1);

  // A permutation of the cached key, counted r, next to a one-request
  // ticket on the same key: one group of r + 1 hits.
  service.submit(classify_profile({32, 16, 16}), 6, 0.1, kRequests);
  submit(service, {16, 32, 16}, 6, 0.1);
  service.drain();
  stats = service.cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 2 * kRequests);

  ClassProfile unsorted = classify_profile({16, 32});
  std::swap(unsorted.window[0], unsorted.window[1]);
  const SolverService::Ticket invalid =
      service.submit(unsorted, 6, 0.0, kRequests);
  service.drain();
  EXPECT_STREQ(invalid.result().diagnostics.method, "invalid");
  stats = service.cache_stats();
  EXPECT_EQ(stats.size, 1u);
  EXPECT_EQ(stats.misses, 1 + kRequests);
  EXPECT_EQ(stats.hits, 2 * kRequests);

  EXPECT_THROW(service.submit(classify_profile({16}), 6, 0.0, 0),
               std::invalid_argument);
  EXPECT_EQ(service.pending(), 0u);
}

TEST(SolverServiceTest, PoolChunkedDrainIsBitIdentical) {
  parallel::ThreadPool pool(2);
  SolverService::Options pooled;
  pooled.pool = &pool;
  SolverService with_pool{pooled};
  SolverService without_pool;

  // More distinct profiles than fit in two chunks, so the pooled drain
  // runs several chunks (the last one partial) across the workers.
  std::vector<std::vector<int>> profiles;
  const int distinct = static_cast<int>(2 * SolverService::kChunkSize + 9);
  for (int w = 1; w <= distinct; ++w) {
    profiles.push_back({w, 2 * w, 2 * w, 64});
  }
  std::vector<SolverService::Ticket> pooled_tickets;
  std::vector<SolverService::Ticket> serial_tickets;
  for (const auto& w : profiles) {
    pooled_tickets.push_back(submit(with_pool, w, 6, 0.2));
    serial_tickets.push_back(submit(without_pool, w, 6, 0.2));
  }
  with_pool.drain();
  without_pool.drain();
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    expect_bits_equal(pooled_tickets[i].result().state.tau,
                      serial_tickets[i].result().state.tau);
    expect_bits_equal(pooled_tickets[i].result().state.p,
                      serial_tickets[i].result().state.p);
  }
  EXPECT_EQ(with_pool.cache_stats().misses, profiles.size());
  EXPECT_EQ(with_pool.cache_stats().misses,
            without_pool.cache_stats().misses);
  EXPECT_EQ(with_pool.cache_stats().hits, without_pool.cache_stats().hits);
}

TEST(SolverServiceTest, BlockingSolveSharesTheCache) {
  SolverService service;
  const TrySolveResult first =
      service.solve(classify_profile({16, 16, 128}), 6, 0.1);
  EXPECT_EQ(service.cache_stats().misses, 1u);
  SolverService::Ticket ticket = submit(service, {128, 16, 16}, 6, 0.1);
  service.drain();  // permutation of the cached key: a hit
  EXPECT_EQ(service.cache_stats().hits, 1u);
  expect_bits_equal(ticket.result().state.tau, first.state.tau);
  expect_matches_direct(ticket.result(), {128, 16, 16}, 6, 0.1);
}

}  // namespace
}  // namespace smac::analytical
