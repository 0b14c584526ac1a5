#include "analytical/solver_service.hpp"

#include <algorithm>
#include <bit>
#include <future>
#include <map>
#include <stdexcept>
#include <utility>

#include "analytical/batch_solver.hpp"
#include "analytical/solver_detail.hpp"
#include "parallel/thread_pool.hpp"
#include "util/hash.hpp"

namespace smac::analytical {

std::size_t SolverService::KeyHash::operator()(const Key& key) const noexcept {
  using util::hash_mix;
  std::uint64_t h = hash_mix(util::kHashSeed, key.window.size());
  for (std::size_t c = 0; c < key.window.size(); ++c) {
    h = hash_mix(h, static_cast<std::uint64_t>(key.window[c]));
    h = hash_mix(h, static_cast<std::uint64_t>(key.multiplicity[c]));
  }
  h = hash_mix(h, static_cast<std::uint64_t>(key.max_stage));
  h = hash_mix(h, std::bit_cast<std::uint64_t>(key.packet_error_rate));
  return static_cast<std::size_t>(h);
}

const TrySolveResult& SolverService::Ticket::result() const {
  if (request_ == nullptr) {
    throw std::logic_error("SolverService::Ticket: empty ticket");
  }
  // Pending in the queue: our drain fulfills it. In another thread's
  // in-flight drain: our drain blocks on the drain mutex until that one
  // finishes, at which point done is set.
  while (!request_->done.load(std::memory_order_acquire)) {
    service_->drain();
  }
  return request_->result;
}

SolverService::SolverService(Options options) : options_(options) {}

std::optional<TrySolveResult> SolverService::lookup(
    const Key& key, std::uint64_t requests) const {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  if (const auto it = cache_.find(key); it != cache_.end()) {
    hits_ += requests;
    return it->second;
  }
  return std::nullopt;
}

void SolverService::adopt(Key key, const TrySolveResult& solved,
                          std::uint64_t requests) const {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  // Hit/miss is classified here, not at lookup: when two solvers race on
  // the same fresh key, the loser observes the winner's entry and counts
  // hits — exactly the serial-order tally, so the stats a bench prints
  // stay byte-identical at any --jobs (below kMaxCacheEntries).
  if (cache_.contains(key)) {
    hits_ += requests;
    return;
  }
  ++misses_;
  hits_ += requests - 1;
  if (cache_.size() < kMaxCacheEntries) {
    cache_.emplace(std::move(key), solved);
  }
}

void SolverService::tally_invalid(std::uint64_t requests) const {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  misses_ += requests;
}

SolverService::Ticket SolverService::submit(ClassProfile classes,
                                            int max_stage,
                                            double packet_error_rate,
                                            std::uint64_t count) const {
  if (count == 0) {
    throw std::invalid_argument("SolverService::submit: count 0");
  }
  auto request = std::make_shared<Ticket::Request>();
  request->classes = std::move(classes);
  request->max_stage = max_stage;
  request->packet_error_rate = packet_error_rate;
  request->count = count;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    pending_.push_back(request);
  }
  return Ticket(this, std::move(request));
}

void SolverService::drain() const {
  std::lock_guard<std::mutex> drain_lock(drain_mutex_);
  std::vector<std::shared_ptr<Ticket::Request>> batch;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    batch.swap(pending_);
  }
  if (batch.empty()) return;

  const auto fulfill = [](Ticket::Request& request, TrySolveResult result) {
    request.result = std::move(result);
    request.done.store(true, std::memory_order_release);
  };

  // Group requests onto canonical keys in deterministic (ordered-map)
  // order, so tally and adoption order are a function of the request set
  // alone — never of submission interleaving. A group's count is the sum
  // of its tickets' counts: the requests they stand for.
  struct Group {
    std::vector<Ticket::Request*> tickets;
    std::uint64_t count = 0;
  };
  std::map<Key, Group> groups;
  for (const auto& request : batch) {
    if (!detail::valid_class_inputs(request->classes, request->max_stage,
                                    request->packet_error_rate)) {
      tally_invalid(request->count);
      fulfill(*request, detail::invalid_result());
      continue;
    }
    Key key{request->classes.window, request->classes.multiplicity,
            request->max_stage, request->packet_error_rate};
    Group& group = groups[std::move(key)];
    group.tickets.push_back(request.get());
    group.count += request->count;
  }

  // Answer cached keys, collect the misses.
  std::vector<ClassProfileInstance> instances;
  std::vector<std::pair<const Key*, const Group*>> misses;
  for (const auto& [key, group] : groups) {
    if (const auto cached = lookup(key, group.count)) {
      for (Ticket::Request* request : group.tickets) {
        fulfill(*request, *cached);
      }
      continue;
    }
    ClassProfileInstance instance;
    instance.classes = group.tickets.front()->classes;
    instance.max_stage = key.max_stage;
    instance.packet_error_rate = key.packet_error_rate;
    instances.push_back(std::move(instance));
    misses.emplace_back(&key, &group);
  }

  // Solve the distinct misses in lockstep, chunked across the pool when
  // one is configured. Instances are independent, so the chunking (and
  // the pool itself) cannot change a single bit of any result.
  std::vector<TrySolveResult> solved(instances.size());
  if (options_.pool != nullptr && instances.size() > 1) {
    std::vector<std::future<void>> chunks;
    for (std::size_t begin = 0; begin < instances.size();
         begin += kChunkSize) {
      const std::size_t length =
          std::min(kChunkSize, instances.size() - begin);
      chunks.push_back(options_.pool->submit([&, begin, length] {
        std::vector<TrySolveResult> part = try_solve_classes_batch(
            {instances.data() + begin, length});
        std::move(part.begin(), part.end(), solved.begin() + begin);
      }));
    }
    for (auto& chunk : chunks) chunk.get();
  } else if (!instances.empty()) {
    solved = try_solve_classes_batch(instances);
  }

  // Adopt and fulfill in the same deterministic group order.
  for (std::size_t m = 0; m < misses.size(); ++m) {
    const auto& [key, group] = misses[m];
    adopt(*key, solved[m], group->count);
    for (Ticket::Request* request : group->tickets) {
      fulfill(*request, solved[m]);
    }
  }
}

TrySolveResult SolverService::solve(const ClassProfile& classes,
                                    int max_stage,
                                    double packet_error_rate) const {
  if (!detail::valid_class_inputs(classes, max_stage, packet_error_rate)) {
    tally_invalid(1);
    return detail::invalid_result();
  }
  Key key{classes.window, classes.multiplicity, max_stage,
          packet_error_rate};
  if (auto cached = lookup(key, 1)) return std::move(*cached);
  // Solve outside the lock: concurrent misses on the same key may both
  // compute, but the class solve is deterministic (canonical start, no
  // warm hints) so they agree bitwise and insert order cannot matter.
  TrySolveResult solved =
      try_solve_classes(classes, max_stage, {}, packet_error_rate);
  adopt(std::move(key), solved, 1);
  return solved;
}

std::size_t SolverService::pending() const {
  std::lock_guard<std::mutex> lock(queue_mutex_);
  return pending_.size();
}

SolveCacheStats SolverService::cache_stats() const {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  return {cache_.size(), hits_, misses_};
}

}  // namespace smac::analytical
