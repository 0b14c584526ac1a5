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

namespace smac::analytical {

namespace {

/// SplitMix64-style avalanche: mixes each key component into the running
/// hash with full 64-bit diffusion (vector hashing via std::hash would
/// need a loop anyway; this keeps the combine explicit and portable).
std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  return h;
}

}  // namespace

std::size_t SolverService::KeyHash::operator()(const Key& key) const noexcept {
  std::uint64_t h = 0x243f6a8885a308d3ULL;
  h = mix(h, static_cast<std::uint64_t>(key.window.size()));
  for (std::size_t c = 0; c < key.window.size(); ++c) {
    h = mix(h, static_cast<std::uint64_t>(key.window[c]));
    h = mix(h, static_cast<std::uint64_t>(key.multiplicity[c]));
  }
  h = mix(h, static_cast<std::uint64_t>(key.max_stage));
  h = mix(h, std::bit_cast<std::uint64_t>(key.packet_error_rate));
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

void SolverService::tally_invalid() const {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  ++misses_;
}

SolverService::Ticket SolverService::submit(ClassProfile classes,
                                            int max_stage,
                                            double packet_error_rate) const {
  auto request = std::make_shared<Ticket::Request>();
  request->classes = std::move(classes);
  request->max_stage = max_stage;
  request->packet_error_rate = packet_error_rate;
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
  // alone — never of submission interleaving.
  std::map<Key, std::vector<Ticket::Request*>> groups;
  for (const auto& request : batch) {
    if (!detail::valid_class_inputs(request->classes, request->max_stage,
                                    request->packet_error_rate)) {
      tally_invalid();
      fulfill(*request, detail::invalid_result());
      continue;
    }
    Key key{request->classes.window, request->classes.multiplicity,
            request->max_stage, request->packet_error_rate};
    groups[std::move(key)].push_back(request.get());
  }

  // Answer cached keys, collect the misses.
  std::vector<ClassProfileInstance> instances;
  std::vector<std::pair<const Key*, std::vector<Ticket::Request*>*>> misses;
  for (auto& [key, requests] : groups) {
    if (const auto cached = lookup(key, requests.size())) {
      for (Ticket::Request* request : requests) fulfill(*request, *cached);
      continue;
    }
    ClassProfileInstance instance;
    instance.classes = requests.front()->classes;
    instance.max_stage = key.max_stage;
    instance.packet_error_rate = key.packet_error_rate;
    instances.push_back(std::move(instance));
    misses.emplace_back(&key, &requests);
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
    const auto& [key, requests] = misses[m];
    adopt(*key, solved[m], requests->size());
    for (Ticket::Request* request : *requests) fulfill(*request, solved[m]);
  }
}

TrySolveResult SolverService::solve(const ClassProfile& classes,
                                    int max_stage,
                                    double packet_error_rate) const {
  if (!detail::valid_class_inputs(classes, max_stage, packet_error_rate)) {
    tally_invalid();
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
