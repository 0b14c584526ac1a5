// Conservative region-parallel PDES kernel (see pdes.hpp and
// docs/PDES.md for the model; slot_kernel.hpp for the draw discipline).
//
// Each region is a logical process advancing through the window's slots
// in a two-phase cycle:
//
//   publish(s): apply the region's own scripted fault events for global
//     slot base+s to its members' active bytes, derive the owned transmit
//     set from purely local backoff state, write one byte per owned node
//     into the slot-parity ring (bit 0 = active, bit 1 = transmits), and
//     release-publish horizon s+1. Runs unconditionally — publication
//     never waits, which is what creates the one-slot lookahead.
//   commit(s): runs only once every dependency has published horizon
//     >= s+1. Classifies owned transmitters (receiver pick + corruption
//     trial from the (node, slot) draw streams), accrues owned local
//     channel time — re-deriving fringe neighbors' on-air outcomes from
//     their published ring bytes and replayable draws — and applies
//     outcomes to owned backoff state and tallies.
//
// The depth-2 parity ring is race-free because dependent regions can
// never drift by more than one published slot: region r publishes slot
// s only after committing slot s-1, which required every dependency d to
// have published s-1, which d did only after committing s-2 — the last
// slot whose bytes share parity s&1. So a writer of ring[s & 1] can only
// overwrite bytes every dependent reader has provably finished with, and
// the release/acquire chain through the horizon counters carries the
// happens-before TSan needs. The active bit rides in the same byte, in
// the same store, so the same argument covers it: a dependent reads a
// foreign node's slot-s active state only after acquiring the owner's
// horizon s+1, which the owner released after applying that node's
// slot-s events. The owner-only `active` array is never read across
// regions.
//
// Each region applies only its members' events (filtered once per window
// at setup); the Gilbert–Elliott chain, a pure function of the slot
// index, is stepped once for the whole window into a per-slot PER table.
// All per-node state lives in RegionPartition's position space, so a
// region's walks are over contiguous slices. Worker w owns a contiguous
// block of region ids — a horizontal band of tiles, since tiles are
// numbered row-major — and spins over it, yielding when no owned region
// can progress; the region with the globally minimal horizon is always
// runnable, so the schedule is deadlock-free at any worker count.
#include "multihop/pdes.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "multihop/multihop_simulator.hpp"
#include "multihop/slot_kernel.hpp"
#include "parallel/thread_pool.hpp"

namespace smac::multihop {

void PdesOptions::validate() const {
  if (!std::isfinite(region_edge_factor) || region_edge_factor <= 0.0) {
    throw std::invalid_argument("PdesOptions: region_edge_factor must be > 0");
  }
  if (single_region && region_per_node) {
    throw std::invalid_argument(
        "PdesOptions: single_region and region_per_node are exclusive");
  }
}

namespace {

/// Packs integer grid coordinates into an unordered_map key.
std::uint64_t cell_key(std::int64_t gx, std::int64_t gy) noexcept {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(gx)) << 32) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(gy));
}

}  // namespace

RegionPartition::RegionPartition(const Topology& topology,
                                 const PdesOptions& options) {
  options.validate();
  const std::size_t n = topology.node_count();
  const std::vector<Vec2>& pos = topology.positions();
  if (n > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("RegionPartition: more than 2^32 - 1 nodes");
  }
  lookahead_m_ = 3.0 * topology.range_m();
  region_of_.resize(n);
  first_.assign(1, 0);
  if (n == 0) return;

  const double edge = options.region_edge_factor * topology.range_m();
  if (options.region_per_node) {
    for (std::size_t i = 0; i < n; ++i) region_of_[i] = i;
  } else if (options.single_region || !(edge > 0.0) ||
             !std::isfinite(edge)) {
    // Tiles degenerate to one region when the range (hence the edge)
    // is zero: nodes then have no interference coupling anyway.
    std::fill(region_of_.begin(), region_of_.end(), 0);
  } else {
    // Tile partition. Region ids are assigned to occupied tiles in
    // (row, column) order, so the labeling is a pure function of the
    // position multiset — node order never enters.
    double min_x = pos[0].x;
    double min_y = pos[0].y;
    for (const Vec2& p : pos) {
      min_x = std::min(min_x, p.x);
      min_y = std::min(min_y, p.y);
    }
    std::vector<std::pair<std::int64_t, std::int64_t>> cell(n);
    for (std::size_t i = 0; i < n; ++i) {
      cell[i] = {static_cast<std::int64_t>(std::floor((pos[i].y - min_y) / edge)),
                 static_cast<std::int64_t>(std::floor((pos[i].x - min_x) / edge))};
    }
    std::vector<std::pair<std::int64_t, std::int64_t>> occupied = cell;
    std::sort(occupied.begin(), occupied.end());
    occupied.erase(std::unique(occupied.begin(), occupied.end()),
                   occupied.end());
    for (std::size_t i = 0; i < n; ++i) {
      region_of_[i] = static_cast<std::size_t>(
          std::lower_bound(occupied.begin(), occupied.end(), cell[i]) -
          occupied.begin());
    }
  }

  std::size_t regions = 0;
  for (std::size_t r : region_of_) regions = std::max(regions, r + 1);

  // Region-major layout: a counting sort by region (stable, so members
  // stay ascending by node id), then CSR adjacency relabeled to positions
  // in the topology's list order.
  first_.assign(regions + 1, 0);
  for (std::size_t r : region_of_) ++first_[r + 1];
  for (std::size_t r = 0; r < regions; ++r) first_[r + 1] += first_[r];
  node_at_.resize(n);
  position_of_.resize(n);
  {
    std::vector<std::uint32_t> fill(first_.begin(), first_.end() - 1);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t p = fill[region_of_[i]]++;
      node_at_[p] = static_cast<std::uint32_t>(i);
      position_of_[i] = p;
    }
  }
  adjacency_first_.resize(n + 1);
  adjacency_first_[0] = 0;
  for (std::uint32_t p = 0; p < n; ++p) {
    adjacency_first_[p + 1] =
        adjacency_first_[p] + topology.degree(node_at_[p]);
  }
  adjacency_.resize(adjacency_first_[n]);
  for (std::uint32_t p = 0; p < n; ++p) {
    std::uint32_t* out = adjacency_.data() + adjacency_first_[p];
    for (std::size_t j : topology.neighbors(node_at_[p])) {
      *out++ = position_of_[j];
    }
  }

  // Dependencies: regions owning nodes within lookahead_m_ of each other,
  // found through a coarse grid of cell edge lookahead_m_ (3x3 stencil +
  // exact distance check). Correct for ANY partition shape — tile
  // adjacency is never assumed, so the degenerate partitions get the
  // same guarantee.
  deps_.resize(regions);
  if (lookahead_m_ > 0.0 && regions > 1) {
    std::unordered_map<std::uint64_t, std::vector<std::size_t>> grid;
    grid.reserve(n);
    std::vector<std::pair<std::int64_t, std::int64_t>> coarse(n);
    for (std::size_t i = 0; i < n; ++i) {
      coarse[i] = {static_cast<std::int64_t>(std::floor(pos[i].x / lookahead_m_)),
                   static_cast<std::int64_t>(std::floor(pos[i].y / lookahead_m_))};
      grid[cell_key(coarse[i].first, coarse[i].second)].push_back(i);
    }
    // Region by region over the position order: once q is known to be a
    // dependency of r, q's nodes need no further distance checks for r.
    const double reach_sq = lookahead_m_ * lookahead_m_;
    std::vector<std::size_t> dep_of(regions, regions);  // q -> last r
    for (std::size_t r = 0; r < regions; ++r) {
      for (std::uint32_t p = first_[r]; p < first_[r + 1]; ++p) {
        const std::size_t i = node_at_[p];
        for (std::int64_t dx = -1; dx <= 1; ++dx) {
          for (std::int64_t dy = -1; dy <= 1; ++dy) {
            auto it = grid.find(
                cell_key(coarse[i].first + dx, coarse[i].second + dy));
            if (it == grid.end()) continue;
            for (std::size_t j : it->second) {
              const std::size_t q = region_of_[j];
              if (q == r || dep_of[q] == r) continue;
              if (distance_sq(pos[i], pos[j]) <= reach_sq) {
                dep_of[q] = r;
                deps_[r].push_back(q);
              }
            }
          }
        }
      }
      std::sort(deps_[r].begin(), deps_[r].end());
      dep_edges_ += deps_[r].size();
    }
  }
}

bool RegionPartition::covers_dependencies(const Topology& topology) const {
  const std::vector<Vec2>& pos = topology.positions();
  const std::size_t n = topology.node_count();
  const double reach_sq = lookahead_m_ * lookahead_m_;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const std::size_t ri = region_of_[i];
      const std::size_t rj = region_of_[j];
      if (ri == rj) continue;
      if (distance_sq(pos[i], pos[j]) > reach_sq) continue;
      if (!std::binary_search(deps_[ri].begin(), deps_[ri].end(), rj) ||
          !std::binary_search(deps_[rj].begin(), deps_[rj].end(), ri)) {
        return false;
      }
    }
  }
  return true;
}

/// The per-window engine (friend of MultihopSimulator). Constructed,
/// run, and discarded inside run_slots_pdes. All per-node state lives in
/// position space (RegionPartition's region-major layout), so a region
/// touches one contiguous slice of every array plus its fringe.
struct PdesEngine {
  /// One region's published horizon on a cache line of its own: pub ==
  /// s+1 means the slot-s ring bytes of every owned node are readable.
  /// With the ring and the abort flag, the only cross-thread state.
  struct alignas(64) Horizon {
    std::atomic<std::uint64_t> pub{0};
  };
  /// Owner-only state of one logical process.
  struct Region {
    std::size_t event = 0;      ///< cursor into events
    std::size_t event_end = 0;  ///< one past this region's events
    std::uint64_t done = 0;     ///< committed slots
    std::uint64_t violations = 0;
    std::uint64_t max_lead = 0;
    std::vector<std::uint32_t> transmitters;  ///< owned positions
    std::vector<int> tx_outcome;              ///< aligned with transmitters
  };
  /// A scripted crash/join, relabeled to its node's position.
  struct Event {
    std::uint64_t slot = 0;
    std::uint32_t position = 0;
    std::uint8_t active = 0;
  };
  /// Per-worker scratch. `air` is the epoch-stamped on-air cache:
  /// air[p] == (s+1) << 1 | success holds position p's slot-s on-air
  /// outcome. The value is a pure function of (p, s), so the regions of
  /// one worker share the cache whatever slots they are at. Aligned so
  /// no two workers' scratch headers share a cache line.
  struct alignas(64) Worker {
    std::vector<std::uint64_t> air;
    std::vector<std::uint32_t> scratch;
  };

  MultihopSimulator& sim;
  const RegionPartition& part;
  const std::uint64_t base;   ///< sim.total_slots_ at window start
  const std::uint64_t slots;  ///< window length
  const bool channel_on;
  const std::size_t workers;

  std::vector<Region> regions;
  std::vector<Horizon> horizon;
  std::vector<Worker> worker_state;
  /// Owned events, grouped by region (Region::event..event_end), each
  /// group in (slot, declaration) order.
  std::vector<Event> events;
  std::size_t events_consumed;  ///< facade cursor after this window
  std::vector<double> per_eff;  ///< slot -> PER_eff (channel_on only)
  std::uint64_t bad_state_slots = 0;

  // Position-indexed state; region r reads and writes only its slice
  // [first(r), last(r)) of these, except the ring.
  std::vector<sim::DcfNode> nodes;
  std::vector<std::uint64_t> draw_base;
  std::vector<std::uint8_t> active;
  std::vector<detail::SlotTally> tally;
  /// Published parity ring: ring[s & 1][p] is position p's slot-s byte,
  /// bit 0 = active, bit 1 = transmits. Written by the owner at
  /// publish, read by dependents at commit; plain bytes — the horizon
  /// release/acquire chain orders every access.
  std::vector<std::uint8_t> ring[2];
  std::atomic<bool> abort{false};

  PdesEngine(MultihopSimulator& simulator, const RegionPartition& partition,
             std::uint64_t window_slots, std::size_t jobs)
      : sim(simulator),
        part(partition),
        base(simulator.total_slots_),
        slots(window_slots),
        channel_on(simulator.config_.faults.channel.enabled()),
        workers(jobs),
        regions(partition.region_count()),
        horizon(partition.region_count()),
        worker_state(jobs),
        events_consumed(simulator.next_fault_event_) {
    const std::size_t n = sim.nodes_.size();
    for (Worker& w : worker_state) w.air.assign(n, 0);
    ring[0].assign(n, 0);
    ring[1].assign(n, 0);
    tally.resize(n);

    // Each region gets only its own members' scripted events in this
    // window, filtered once here (counting sort by region, stable).
    const auto& all = sim.config_.faults.events;
    const std::uint64_t end = base + slots;
    while (events_consumed < all.size() && all[events_consumed].slot < end) {
      ++events_consumed;
    }
    std::vector<std::size_t> fill(regions.size() + 1, 0);
    for (std::size_t k = sim.next_fault_event_; k < events_consumed; ++k) {
      ++fill[part.region_of(all[k].node) + 1];
    }
    for (std::size_t r = 0; r < regions.size(); ++r) {
      fill[r + 1] += fill[r];
      regions[r].event = fill[r];
      regions[r].event_end = fill[r + 1];
    }
    events.resize(events_consumed - sim.next_fault_event_);
    for (std::size_t k = sim.next_fault_event_; k < events_consumed; ++k) {
      const fault::SlotEvent& e = all[k];
      events[fill[part.region_of(e.node)]++] = {
          e.slot, part.position_of(e.node),
          static_cast<std::uint8_t>(e.kind == fault::FaultKind::kJoin)};
    }

    // The Gilbert-Elliott chain is a pure function of the slot index:
    // the facade's chain steps through the window once, here, and every
    // region reads the per-slot PER from the table.
    if (channel_on) per_eff.resize(slots);
    for (std::uint64_t s = 0; s < slots; ++s) {
      sim.fault_channel_.step();
      if (sim.fault_channel_.bad()) ++bad_state_slots;
      if (channel_on) {
        per_eff[s] = sim.fault_channel_.effective_per(
            sim.config_.params.packet_error_rate);
      }
    }

    draw_base.resize(n);
    active.resize(n);
    nodes.reserve(n);
    for (std::uint32_t p = 0; p < n; ++p) {
      const std::size_t i = part.node_at(p);
      draw_base[p] = sim.draw_base_[i];
      active[p] = sim.active_[i];
      nodes.push_back(std::move(sim.nodes_[i]));
    }
  }

  /// Moves the backoff and active state back to node order — also when a
  /// worker threw, so the simulator never keeps moved-from nodes.
  ~PdesEngine() {
    for (std::uint32_t p = 0; p < nodes.size(); ++p) {
      const std::size_t i = part.node_at(p);
      sim.nodes_[i] = std::move(nodes[p]);
      sim.active_[i] = active[p];
    }
  }

  /// Tallies scattered back to node order for assemble_result.
  std::vector<detail::SlotTally> node_tallies() const {
    std::vector<detail::SlotTally> out(tally.size());
    for (std::uint32_t p = 0; p < tally.size(); ++p) {
      out[part.node_at(p)] = tally[p];
    }
    return out;
  }

  /// Phase 1 of slot `r.done`: owned events, transmit set, publication.
  void publish(std::size_t id) {
    Region& r = regions[id];
    const std::uint64_t s = r.done;
    const std::uint64_t global_slot = base + s;
    for (; r.event < r.event_end && events[r.event].slot <= global_slot;
         ++r.event) {
      active[events[r.event].position] = events[r.event].active;
    }

    std::uint8_t* out = ring[s & 1].data();
    r.transmitters.clear();
    for (std::uint32_t p = part.first(id), e = part.last(id); p < e; ++p) {
      const bool tx = active[p] != 0 && nodes[p].ready();
      out[p] = static_cast<std::uint8_t>(active[p] | (tx ? 2 : 0));
      if (tx) r.transmitters.push_back(p);
    }
    horizon[id].pub.store(s + 1, std::memory_order_release);

    for (std::size_t d : part.deps(id)) {
      const std::uint64_t dp = horizon[d].pub.load(std::memory_order_relaxed);
      if (s + 1 > dp) r.max_lead = std::max(r.max_lead, s + 1 - dp);
    }
  }

  bool deps_ready(std::size_t id) const {
    for (std::size_t d : part.deps(id)) {
      if (horizon[d].pub.load(std::memory_order_acquire) <
          regions[id].done + 1) {
        return false;
      }
    }
    return true;
  }

  /// Phase 2 of slot `r.done`: classification, local time, outcomes.
  /// Caller guarantees deps_ready(id); the recheck is the lookahead
  /// invariant the fuzz tier asserts never fires.
  void commit(std::size_t id, Worker& w) {
    Region& r = regions[id];
    const std::uint64_t s = r.done;
    const std::uint64_t global_slot = base + s;
    for (std::size_t d : part.deps(id)) {
      if (horizon[d].pub.load(std::memory_order_acquire) < s + 1) {
        ++r.violations;
      }
    }
    const std::uint8_t* in = ring[s & 1].data();
    auto is_tx = [in](std::uint32_t q) { return (in[q] & 2) != 0; };
    auto is_active = [in](std::uint32_t q) { return (in[q] & 1) != 0; };
    const double per = channel_on ? per_eff[s] : 0.0;
    const std::uint64_t stamp = (s + 1) << 1;

    // Owned transmitters: full outcome, corruption trial included.
    r.tx_outcome.clear();
    for (std::uint32_t p : r.transmitters) {
      util::Rng rng = detail::slot_rng(draw_base[p], global_slot);
      int out = detail::classify_transmitter(part, p, rng, is_tx, is_active,
                                             w.scratch);
      if (out == detail::kOutcomeSuccess && per > 0.0 && rng.bernoulli(per)) {
        out = detail::kOutcomeChannelLoss;
      }
      r.tx_outcome.push_back(out);
      w.air[p] = stamp | (detail::on_air_success(out) ? 1 : 0);
    }

    // On-air outcome of transmitter q, re-derived on demand for fringe
    // neighbors: the corruption draw is irrelevant on the air
    // (slot_kernel.hpp::on_air_success), so published ring bytes +
    // replayable draws fully determine it.
    auto air = [&](std::uint32_t q) -> bool {
      if ((w.air[q] & ~std::uint64_t{1}) != stamp) {
        util::Rng rng = detail::slot_rng(draw_base[q], global_slot);
        const int out = detail::classify_transmitter(part, q, rng, is_tx,
                                                     is_active, w.scratch);
        w.air[q] = stamp | (out == detail::kOutcomeSuccess ? 1 : 0);
      }
      return (w.air[q] & 1) != 0;
    };

    const std::uint32_t first = part.first(id);
    const std::uint32_t last = part.last(id);
    for (std::uint32_t p = first; p < last; ++p) {
      if (active[p] == 0) continue;
      const bool self_tx = is_tx(p);
      tally[p].local_time_us += detail::local_slot_time_us(
          part, p, sim.times_, self_tx, self_tx && (w.air[p] & 1) != 0, is_tx,
          air);
    }

    std::size_t next_tx = 0;
    for (std::uint32_t p = first; p < last; ++p) {
      if (active[p] == 0) continue;
      if (!is_tx(p)) {
        nodes[p].observe_slot();
        continue;
      }
      detail::apply_outcome(r.tx_outcome[next_tx++], tally[p], nodes[p]);
    }
    ++r.done;
  }

  /// Worker body: spin over the contiguous block of region ids this
  /// worker owns (a horizontal band of tiles), publishing and committing
  /// whatever is runnable; yield when a full pass makes no progress
  /// (every owned region blocked on a foreign horizon).
  void worker(std::size_t w) {
    const std::size_t lo = w * regions.size() / workers;
    const std::size_t hi = (w + 1) * regions.size() / workers;
    Worker& state = worker_state[w];
    while (!abort.load(std::memory_order_relaxed)) {
      bool progress = false;
      bool all_done = true;
      for (std::size_t id = lo; id < hi; ++id) {
        Region& r = regions[id];
        while (r.done < slots) {
          if (horizon[id].pub.load(std::memory_order_relaxed) == r.done) {
            publish(id);
            progress = true;
          }
          if (!deps_ready(id)) break;
          commit(id, state);
          progress = true;
          if (abort.load(std::memory_order_relaxed)) return;
        }
        if (r.done < slots) all_done = false;
      }
      if (all_done) return;
      if (!progress) std::this_thread::yield();
    }
  }
};

MultihopResult MultihopSimulator::run_slots_pdes(std::uint64_t slots) {
  if (!partition_) partition_.emplace(topology_, config_.pdes);
  const RegionPartition& part = *partition_;

  std::size_t jobs = config_.pdes.jobs == 0
                         ? parallel::ThreadPool::default_jobs()
                         : config_.pdes.jobs;
  jobs = std::min({jobs, std::max<std::size_t>(part.region_count(), 1),
                   parallel::ThreadPool::kMaxThreads});

  std::vector<detail::SlotTally> tally;
  std::uint64_t bad_state_slots = 0;
  std::uint64_t violations = 0;
  std::uint64_t max_lead = 0;
  {
    PdesEngine engine(*this, part, slots, jobs);
    if (part.region_count() > 0) {
      // count == jobs: every worker gets its own thread and all run at
      // once (for_each_index's all-in-flight guarantee), as the spinning
      // hand-offs require.
      parallel::for_each_index(jobs, jobs, [&engine](std::size_t w) {
        try {
          engine.worker(w);
        } catch (...) {
          engine.abort.store(true, std::memory_order_relaxed);
          throw;
        }
      });
    }
    for (const PdesEngine::Region& r : engine.regions) {
      violations += r.violations;
      max_lead = std::max(max_lead, r.max_lead);
    }
    tally = engine.node_tallies();
    bad_state_slots = engine.bad_state_slots;
    next_fault_event_ = engine.events_consumed;
  }  // the engine hands nodes_ and active_ back in node order
  total_slots_ += slots;

  last_pdes_.regions = part.region_count();
  last_pdes_.dep_edges = part.dep_edge_count();
  last_pdes_.jobs = jobs;
  last_pdes_.slots = slots;
  last_pdes_.lookahead_violations = violations;
  last_pdes_.max_horizon_lead = max_lead;

  return detail::assemble_result(config_, slots, bad_state_slots, tally);
}

}  // namespace smac::multihop
