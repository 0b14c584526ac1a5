// The solve layer's one entry: a cached, batched front end over the
// class-space solver.
//
// Every request is a canonical ClassProfile (windows strictly ascending,
// multiplicities >= 1 — exactly what classify_profile produces) plus
// (max_stage, PER); every answer stays in class space (tau/p sized k) and
// callers expand it with their own class_of map via expand_classes.
// Solutions are memoized on the canonical key, so every permutation of a
// solved profile is a hit, and concurrent tournament workers and
// repeated-game engines share solutions safely.
//
// Two ways in, one cache:
//   * solve() — blocking: one locked lookup, a try_solve_classes on a miss;
//   * submit()/drain() — callers that know several profiles ahead of
//     needing the answers (tournament openings, deviation scans,
//     city-scale neighbourhoods) queue them all and drain once: the
//     service groups the requests by key, answers cached keys, and solves
//     the distinct misses through one try_solve_classes_batch lockstep
//     call (chunked across a parallel::ThreadPool when one is provided).
// Both paths return bitwise-identical results (try_solve_classes is a
// batch of one), and the traffic counters advance exactly as the same
// requests would have advanced them through sequential solve() calls —
// so stats printed by benches are independent of batching and of --jobs.
//
// Threading: submit() and solve() are safe from any thread. drain() is
// serialized internally; it must not be called from a task running on the
// same ThreadPool the service chunks over (the pool's no-nested-blocking
// rule). The default configuration has no pool and drains inline, which
// is always safe.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "analytical/fixed_point_solver.hpp"

namespace smac::parallel {
class ThreadPool;
}

namespace smac::analytical {

/// Monotone counters of the service's cache traffic, read in one lock.
struct SolveCacheStats {
  std::size_t size = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

/// Batched, cached front end to the class-space solver.
///
/// Every solve uses default SolverOptions with no warm start: cached
/// values must be pure functions of the key, or insert order under
/// concurrency would make last-ulp bits scheduling-dependent and break
/// the bit-identical-at-any---jobs contract.
class SolverService {
 public:
  struct Options {
    /// Optional pool to chunk miss batches across. Not owned; must
    /// outlive the service. nullptr solves misses on the draining thread.
    parallel::ThreadPool* pool = nullptr;
  };

  /// Instances per pool task when a pool is set. Purely a scheduling
  /// unit — results do not depend on it.
  static constexpr std::size_t kChunkSize = 64;
  /// Insertion stops at this many entries (lookups still hit), bounding
  /// memory on adversarial profile streams. Past the cap the insertion
  /// set — and so the hit/miss split — becomes schedule-dependent.
  static constexpr std::size_t kMaxCacheEntries = 1 << 16;

  /// Handle to one submitted request. Cheap to copy; result() drains the
  /// owning service as needed, so a ticket can be redeemed at any time
  /// after submit(). Tickets must not outlive the service.
  class Ticket {
   public:
    Ticket() = default;

    /// True once a drain has fulfilled this request.
    bool ready() const noexcept {
      return request_ != nullptr &&
             request_->done.load(std::memory_order_acquire);
    }

    /// The class-space solve result (bitwise equal to solve() on the
    /// same inputs). Drains the service if the request is still pending;
    /// blocks while another thread's drain is processing it. Throws if
    /// the ticket is default-made.
    const TrySolveResult& result() const;

   private:
    friend class SolverService;
    struct Request {
      ClassProfile classes;
      int max_stage = 0;
      double packet_error_rate = 0.0;
      std::uint64_t count = 1;  ///< requests this ticket stands for
      TrySolveResult result;
      std::atomic<bool> done{false};
    };
    Ticket(const SolverService* service, std::shared_ptr<Request> request)
        : service_(service), request_(std::move(request)) {}

    const SolverService* service_ = nullptr;
    std::shared_ptr<Request> request_;
  };

  SolverService() : SolverService(Options{}) {}
  explicit SolverService(Options options);

  /// Enqueues one canonical class request (as classify_profile builds
  /// it; the key is the window/multiplicity multiset, and class_of only
  /// supplies the node count). No solving happens until drain() — submit
  /// everything a phase needs first.
  ///
  /// `count` is how many identical requests the ticket stands for: a
  /// caller that already merged r equal requests submits one ticket with
  /// count r, and the traffic counters advance exactly as for r separate
  /// submissions. Throws std::invalid_argument when count is 0.
  Ticket submit(ClassProfile classes, int max_stage,
                double packet_error_rate, std::uint64_t count = 1) const;

  /// Fulfills every pending request: answers duplicates and cached keys,
  /// batch-solves the distinct misses, caches the results. Requests
  /// submitted concurrently with a drain land in the next drain.
  void drain() const;

  /// Blocking single solve, bypassing the queue, with the same result
  /// bits and the same traffic accounting as a one-request drain: a hit
  /// on a cached key; one miss (and an entry) on a fresh key — or a hit
  /// when a concurrent solver inserted the key first; one miss and no
  /// entry for a non-canonical or out-of-range request, which returns
  /// kFailed/"invalid" with an empty state.
  TrySolveResult solve(const ClassProfile& classes, int max_stage,
                       double packet_error_rate) const;

  /// Number of requests waiting for the next drain().
  std::size_t pending() const;

  SolveCacheStats cache_stats() const;

 private:
  /// Canonical class key: (distinct windows asc, multiplicities,
  /// max_stage, PER). Profiles that are permutations of each other
  /// collapse to the same key.
  struct Key {
    std::vector<int> window;
    std::vector<int> multiplicity;
    int max_stage = 0;
    double packet_error_rate = 0.0;

    auto operator<=>(const Key& other) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& key) const noexcept;
  };

  /// The cached class-space result for `key`, counting `requests` hits;
  /// nullopt (counting nothing) on a miss.
  std::optional<TrySolveResult> lookup(const Key& key,
                                       std::uint64_t requests) const;
  /// Caches a freshly solved result for `key`, tallying what `requests`
  /// sequential solve() calls would have: all hits if a racing writer
  /// inserted the key first, else one miss plus `requests − 1` hits.
  void adopt(Key key, const TrySolveResult& solved,
             std::uint64_t requests) const;
  /// Counts `requests` misses for requests rejected by valid_class_inputs.
  void tally_invalid(std::uint64_t requests) const;

  Options options_;
  mutable std::mutex cache_mutex_;  ///< guards cache_, hits_, misses_
  /// Values are class-space results: compact, and one entry serves every
  /// permutation of the profile.
  mutable std::unordered_map<Key, TrySolveResult, KeyHash> cache_;
  mutable std::uint64_t hits_ = 0;
  mutable std::uint64_t misses_ = 0;
  mutable std::mutex queue_mutex_;  ///< guards pending_
  mutable std::vector<std::shared_ptr<Ticket::Request>> pending_;
  mutable std::mutex drain_mutex_;  ///< serializes drain bodies
};

}  // namespace smac::analytical
