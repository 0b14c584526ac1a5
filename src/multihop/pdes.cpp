// Conservative region-parallel PDES kernel (see pdes.hpp and
// docs/PDES.md for the model; slot_kernel.hpp for the draw discipline).
//
// Each region is a logical process advancing through the window's slots
// in a two-phase cycle:
//
//   publish(s): apply scripted fault events for global slot base+s to the
//     region's active-mask replica, step its Gilbert–Elliott replica,
//     derive the owned transmit set from purely local backoff state,
//     write the owned transmit flags into the slot-parity ring, and
//     release-publish horizon s+1. Runs unconditionally — publication
//     never waits, which is what creates the one-slot lookahead.
//   commit(s): runs only once every dependency has published horizon
//     >= s+1. Classifies owned transmitters (receiver pick + corruption
//     trial from the (node, slot) draw streams), accrues owned local
//     channel time — re-deriving fringe neighbors' on-air outcomes from
//     their published flags and replayable draws — and applies outcomes
//     to owned backoff state and tallies.
//
// The depth-2 parity ring is race-free because dependent regions can
// never drift by more than one published slot: region r publishes s+1
// only after committing slot s-1, which required every dependency to
// have published s — so a writer of parity (s+1)&1 can only overwrite
// flags a dependency has provably finished reading (the release/acquire
// chain through the pub counters carries the happens-before TSan needs).
//
// Every region applies the full scripted event list to its own replica
// (events are a pure function of the slot index), so active masks agree
// across regions without communication; the Gilbert–Elliott replicas
// likewise step once per slot from the same captured state. Workers own
// regions statically (region id mod worker count) and spin over them,
// yielding when no owned region can progress; the region with the
// globally minimal horizon is always runnable, so the schedule is
// deadlock-free at any worker count.
#include "multihop/pdes.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <deque>
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
  lookahead_m_ = 3.0 * topology.range_m();
  region_of_.resize(n);
  owned_pos_.resize(n);
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
  members_.resize(regions);
  for (std::size_t i = 0; i < n; ++i) {
    owned_pos_[i] = static_cast<std::uint32_t>(members_[region_of_[i]].size());
    members_[region_of_[i]].push_back(i);
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
    const double reach_sq = lookahead_m_ * lookahead_m_;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::int64_t dx = -1; dx <= 1; ++dx) {
        for (std::int64_t dy = -1; dy <= 1; ++dy) {
          auto it = grid.find(
              cell_key(coarse[i].first + dx, coarse[i].second + dy));
          if (it == grid.end()) continue;
          for (std::size_t j : it->second) {
            if (region_of_[j] == region_of_[i]) continue;
            if (distance_sq(pos[i], pos[j]) <= reach_sq) {
              deps_[region_of_[i]].push_back(region_of_[j]);
            }
          }
        }
      }
    }
    for (std::vector<std::size_t>& d : deps_) {
      std::sort(d.begin(), d.end());
      d.erase(std::unique(d.begin(), d.end()), d.end());
      dep_edges_ += d.size();
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
/// run, and discarded inside run_slots_pdes.
struct PdesEngine {
  /// One logical process. `pub` is the only cross-thread field: it
  /// counts published slots (pub == s+1 means the slot-s transmit flags
  /// of every owned node are readable). All other state is owner-only.
  struct Region {
    std::size_t id = 0;
    std::vector<std::uint8_t> active;  ///< full replica, events applied
    fault::GilbertElliottChannel chain;
    double per_eff = 0.0;  ///< this slot's PER, publish -> commit
    std::size_t event_cursor = 0;
    std::uint64_t done = 0;  ///< committed slots
    std::atomic<std::uint64_t> pub{0};
    std::vector<std::size_t> transmitters;  ///< owned, ascending
    std::vector<int> tx_outcome;            ///< aligned with transmitters
    std::vector<std::size_t> scratch;
    /// Epoch-stamped on-air cache: air_val[j] is valid iff
    /// air_stamp[j] == done+1. Reset-free across slots.
    std::vector<std::uint64_t> air_stamp;
    std::vector<std::uint8_t> air_val;

    Region(std::size_t region_id, const MultihopSimulator& sim)
        : id(region_id),
          active(sim.active_),
          chain(sim.fault_channel_),
          event_cursor(sim.next_fault_event_),
          air_stamp(sim.active_.size(), 0),
          air_val(sim.active_.size(), 0) {}
  };

  MultihopSimulator& sim;
  const RegionPartition& part;
  const std::uint64_t base;   ///< sim.total_slots_ at window start
  const std::uint64_t slots;  ///< window length
  const bool channel_on;

  std::deque<Region> regions;
  /// Transmit-flag parity ring: flags[s & 1][node] for slot s. Plain
  /// bytes — the pub release/acquire chain orders every access.
  std::vector<std::uint8_t> flags[2];
  std::vector<detail::SlotTally> tally;
  std::atomic<bool> abort{false};
  std::atomic<std::uint64_t> violations{0};
  std::atomic<std::uint64_t> max_lead{0};

  PdesEngine(MultihopSimulator& simulator, const RegionPartition& partition,
             std::uint64_t window_slots)
      : sim(simulator),
        part(partition),
        base(simulator.total_slots_),
        slots(window_slots),
        channel_on(simulator.config_.faults.channel.enabled()),
        tally(simulator.nodes_.size()) {
    flags[0].assign(sim.nodes_.size(), 0);
    flags[1].assign(sim.nodes_.size(), 0);
    for (std::size_t r = 0; r < part.region_count(); ++r) {
      regions.emplace_back(r, sim);
    }
  }

  /// Phase 1 of slot `r.done`: faults, chain, transmit set, publication.
  void publish(Region& r) {
    const std::uint64_t s = r.done;
    const std::uint64_t global_slot = base + s;
    const auto& events = sim.config_.faults.events;
    while (r.event_cursor < events.size() &&
           events[r.event_cursor].slot <= global_slot) {
      const fault::SlotEvent& e = events[r.event_cursor++];
      r.active[e.node] = e.kind == fault::FaultKind::kJoin ? 1 : 0;
    }
    r.chain.step();
    r.per_eff = channel_on ? r.chain.effective_per(
                                 sim.config_.params.packet_error_rate)
                           : 0.0;

    std::uint8_t* slot_flags = flags[s & 1].data();
    r.transmitters.clear();
    for (std::size_t i : part.members(r.id)) {
      const bool tx = r.active[i] != 0 && sim.nodes_[i].ready();
      slot_flags[i] = tx ? 1 : 0;
      if (tx) r.transmitters.push_back(i);
    }
    r.pub.store(s + 1, std::memory_order_release);

    std::uint64_t lead = 0;
    for (std::size_t d : part.deps(r.id)) {
      const std::uint64_t dp =
          regions[d].pub.load(std::memory_order_relaxed);
      if (s + 1 > dp) lead = std::max(lead, s + 1 - dp);
    }
    std::uint64_t seen = max_lead.load(std::memory_order_relaxed);
    while (lead > seen && !max_lead.compare_exchange_weak(
                              seen, lead, std::memory_order_relaxed)) {
    }
  }

  bool deps_ready(const Region& r) const {
    for (std::size_t d : part.deps(r.id)) {
      if (regions[d].pub.load(std::memory_order_acquire) < r.done + 1) {
        return false;
      }
    }
    return true;
  }

  /// Phase 2 of slot `r.done`: classification, local time, outcomes.
  /// Caller guarantees deps_ready(r); the recheck is the lookahead
  /// invariant the fuzz tier asserts never fires.
  void commit(Region& r) {
    const std::uint64_t s = r.done;
    const std::uint64_t global_slot = base + s;
    for (std::size_t d : part.deps(r.id)) {
      if (regions[d].pub.load(std::memory_order_acquire) < s + 1) {
        violations.fetch_add(1, std::memory_order_relaxed);
      }
    }
    const std::uint8_t* slot_flags = flags[s & 1].data();
    auto is_tx = [slot_flags](std::size_t j) { return slot_flags[j] != 0; };
    auto is_active = [&r](std::size_t j) { return r.active[j] != 0; };

    // Owned transmitters: full outcome, corruption trial included.
    r.tx_outcome.clear();
    for (std::size_t i : r.transmitters) {
      util::Rng rng = detail::slot_rng(sim.draw_base_[i], global_slot);
      int out = detail::classify_transmitter(sim.topology_, i, rng, is_tx,
                                             is_active, r.scratch);
      if (out == detail::kOutcomeSuccess && channel_on && r.per_eff > 0.0 &&
          rng.bernoulli(r.per_eff)) {
        out = detail::kOutcomeChannelLoss;
      }
      r.tx_outcome.push_back(out);
      r.air_stamp[i] = s + 1;
      r.air_val[i] = detail::on_air_success(out) ? 1 : 0;
    }

    // On-air outcome of transmitter j, re-derived on demand for fringe
    // neighbors: the corruption draw is irrelevant on the air
    // (slot_kernel.hpp::on_air_success), so published flags + replayable
    // draws fully determine it.
    auto air = [&](std::size_t j) -> bool {
      if (r.air_stamp[j] == s + 1) return r.air_val[j] != 0;
      util::Rng rng = detail::slot_rng(sim.draw_base_[j], global_slot);
      const int out = detail::classify_transmitter(
          sim.topology_, j, rng, is_tx, is_active, r.scratch);
      r.air_stamp[j] = s + 1;
      r.air_val[j] = out == detail::kOutcomeSuccess ? 1 : 0;
      return r.air_val[j] != 0;
    };

    for (std::size_t i : part.members(r.id)) {
      if (r.active[i] == 0) continue;
      const bool self_tx = slot_flags[i] != 0;
      tally[i].local_time_us += detail::local_slot_time_us(
          sim.topology_, i, sim.times_, self_tx,
          self_tx && r.air_val[i] != 0, is_tx, air);
    }

    std::size_t next_tx = 0;
    for (std::size_t i : part.members(r.id)) {
      if (r.active[i] == 0) continue;
      if (slot_flags[i] == 0) {
        sim.nodes_[i].observe_slot();
        continue;
      }
      detail::apply_outcome(r.tx_outcome[next_tx++], tally[i],
                            sim.nodes_[i]);
    }
    ++r.done;
  }

  /// Worker body: spin over statically owned regions (id mod workers),
  /// publishing and committing whatever is runnable; yield when a full
  /// pass makes no progress (every owned region blocked on a foreign
  /// horizon).
  void worker(std::size_t w, std::size_t workers) {
    while (!abort.load(std::memory_order_relaxed)) {
      bool progress = false;
      bool all_done = true;
      for (std::size_t id = w; id < regions.size(); id += workers) {
        Region& r = regions[id];
        while (r.done < slots) {
          if (r.pub.load(std::memory_order_relaxed) == r.done) {
            publish(r);
            progress = true;
          }
          if (!deps_ready(r)) break;
          commit(r);
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

  PdesEngine engine(*this, part, slots);
  if (part.region_count() > 0) {
    // count == jobs: every worker gets its own thread and all run at once
    // (for_each_index's all-in-flight guarantee), as the spinning
    // hand-offs require.
    parallel::for_each_index(jobs, jobs, [&engine, jobs](std::size_t w) {
      try {
        engine.worker(w, jobs);
      } catch (...) {
        engine.abort.store(true, std::memory_order_relaxed);
        throw;
      }
    });
  }

  // The facade's canonical fault state catches up to the window end:
  // scripted events through the same mask set_node_active uses, and the
  // Gilbert-Elliott chain stepped once per slot (identical draw sequence
  // to every region replica, so later windows chain identically).
  std::uint64_t bad_state_slots = 0;
  const std::uint64_t last_slot = total_slots_ + slots - 1;
  while (next_fault_event_ < config_.faults.events.size() &&
         config_.faults.events[next_fault_event_].slot <= last_slot) {
    const fault::SlotEvent& e = config_.faults.events[next_fault_event_++];
    active_[e.node] = e.kind == fault::FaultKind::kJoin ? 1 : 0;
  }
  for (std::uint64_t s = 0; s < slots; ++s) {
    fault_channel_.step();
    if (fault_channel_.bad()) ++bad_state_slots;
  }
  total_slots_ += slots;

  last_pdes_.regions = part.region_count();
  last_pdes_.dep_edges = part.dep_edge_count();
  last_pdes_.jobs = jobs;
  last_pdes_.slots = slots;
  last_pdes_.lookahead_violations =
      engine.violations.load(std::memory_order_relaxed);
  last_pdes_.max_horizon_lead =
      engine.max_lead.load(std::memory_order_relaxed);

  return detail::assemble_result(config_, slots, bad_state_slots,
                                 engine.tally);
}

}  // namespace smac::multihop
