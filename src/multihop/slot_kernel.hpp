// Shared per-slot machinery of the two multihop kernels (detail header).
//
// The serial slot loop (`run_multihop_slot_loop`, the oracle) and the
// conservative PDES kernel (src/multihop/pdes.*) must produce bitwise
// identical results, so every decision that involves randomness or
// floating-point accumulation lives here and is written against one
// draw discipline:
//
//   draw stream of node i at global slot s
//       = util::Rng(parallel::stream_seed(node_draw_base(seed, i), s))
//
// i.e. a counter-derived stream per (node, slot) in the
// parallel::stream_seed discipline. Draw #1 is the receiver pick, draw
// #2 the bursty-channel corruption trial. Because a stream is keyed by
// (node, global slot) and never advanced across slots, any logical
// process can replay any node's draws for any slot without coordination
// — which is what makes the PDES kernel's output a pure function of
// (seed, topology, fault plan) instead of thread scheduling, and what
// lets a region re-derive a fringe neighbor's receiver pick without
// owning its stream. (The per-node DcfNode backoff streams are
// sequential, but they are only ever advanced by the owning kernel/LP
// in slot order, so they need no counter derivation.)
#pragma once

#include <cstdint>
#include <vector>

#include "parallel/replication.hpp"
#include "phy/parameters.hpp"
#include "util/rng.hpp"

namespace smac::multihop {
struct MultihopConfig;
struct MultihopResult;
}  // namespace smac::multihop

namespace smac::multihop::detail {

/// Salt separating the receiver/corruption draw family from the DcfNode
/// backoff master (seed ^ 0xabcdef1234567890) and the Gilbert–Elliott
/// chain (seed ^ 0xb4d57a7e).
inline constexpr std::uint64_t kDrawSalt = 0x8f0c2b7d91e64a35ULL;

/// Per-node base of the (node, slot) draw streams.
inline std::uint64_t node_draw_base(std::uint64_t sim_seed,
                                    std::size_t node) noexcept {
  return parallel::stream_seed(sim_seed ^ kDrawSalt, node);
}

/// The (node, slot) stream itself. `global_slot` counts from simulator
/// construction (MultihopSimulator::total_slots), so window splits do
/// not change the draws — the window-split equivalences pinned by
/// tests/multihop/multihop_fault_test.cpp survive by construction.
inline util::Rng slot_rng(std::uint64_t node_base,
                          std::uint64_t global_slot) noexcept {
  return util::Rng(parallel::stream_seed(node_base, global_slot));
}

/// Per-transmitter slot outcome codes (shared by both kernels).
enum SlotOutcome : int {
  kOutcomeSuccess = 0,          ///< clear sender, undisturbed receiver
  kOutcomeSenderCollision = 1,  ///< contended within own range
  kOutcomeHiddenLoss = 2,       ///< clear locally, jammed at receiver
  kOutcomeIsolated = 3,         ///< no active neighbor to send to
  kOutcomeChannelLoss = 4,      ///< clear + unjammed, corrupted by channel
  kOutcomeNone = -1,            ///< node did not transmit this slot
};

/// True when an outcome occupies successful airtime in its neighborhood:
/// a channel-corrupted frame (kOutcomeChannelLoss) still looks like a
/// delivered frame on the air — the loss is at the receiver. This is the
/// reason a region can classify a fringe neighbor's slot without its
/// corruption draw: corruption never changes the on-air class.
inline bool on_air_success(int outcome) noexcept {
  return outcome == kOutcomeSuccess || outcome == kOutcomeChannelLoss;
}

/// Classifies the on-air outcome of transmitter i (no corruption trial —
/// the caller layers kOutcomeChannelLoss with draw #2 where it owns the
/// node). `rng` must be the (i, slot) stream positioned at draw #1.
/// is_tx(j)/is_active(j) report node j's transmit/active state for this
/// slot; `scratch` is caller-owned receiver scratch. `Graph` is anything
/// with neighbors(i) in ascending node-id order: the topology's
/// NeighborGraph (node ids, the slot loop) or the RegionPartition
/// (positions, the PDES kernel) — the receiver pick indexes that order,
/// so both labelings pick the same node.
template <class Graph, class Index, class IsTx, class IsActive>
inline int classify_transmitter(const Graph& graph, Index i, util::Rng& rng,
                                IsTx&& is_tx, IsActive&& is_active,
                                std::vector<Index>& scratch) {
  decltype(auto) nb = graph.neighbors(i);
  // Crashed neighbors cannot receive.
  scratch.clear();
  for (Index j : nb) {
    if (is_active(j)) scratch.push_back(j);
  }
  if (scratch.empty()) return kOutcomeIsolated;
  const Index r = scratch[rng.uniform_below(scratch.size())];

  // In a unit-disk graph `j transmits in range of i` is exactly
  // `j ∈ neighbors(i) ∧ is_tx(j)`, so interference tests walk neighbor
  // lists — O(deg) per test.
  bool sender_contended = false;
  bool receiver_jammed = is_tx(r);  // receiver busy transmitting
  for (Index j : nb) {
    if (is_tx(j)) {
      sender_contended = true;
      break;  // sender-side contention dominates the classification
    }
  }
  if (!sender_contended && !receiver_jammed) {
    for (Index j : graph.neighbors(r)) {
      if (j == i) continue;
      if (is_tx(j)) {
        receiver_jammed = true;
        break;
      }
    }
  }
  return sender_contended
             ? kOutcomeSenderCollision
             : (receiver_jammed ? kOutcomeHiddenLoss : kOutcomeSuccess);
}

/// Local channel time node i accrues this slot: σ if no transmitter in
/// range (incl. self), T_s if some in-range transmission succeeded on
/// air, else T_c. success_of(j) must hold on_air_success of *transmitting*
/// neighbor j's outcome. `Graph` as for classify_transmitter.
template <class Graph, class Index, class IsTx, class SuccessOf>
inline double local_slot_time_us(const Graph& graph, Index i,
                                 const phy::SlotTimes& times, bool self_tx,
                                 bool self_success, IsTx&& is_tx,
                                 SuccessOf&& success_of) {
  bool any_tx = self_tx;
  bool any_success = self_tx && self_success;
  if (!any_success) {
    for (Index j : graph.neighbors(i)) {
      if (is_tx(j)) {
        any_tx = true;
        if (success_of(j)) {
          any_success = true;
          break;
        }
      }
    }
  }
  return !any_tx ? times.sigma_us : any_success ? times.ts_us : times.tc_us;
}

/// Per-node accumulators of one measurement window (shared so the two
/// kernels reduce identically).
struct SlotTally {
  std::uint64_t attempts = 0;
  std::uint64_t successes = 0;
  std::uint64_t sender_collisions = 0;
  std::uint64_t hidden_losses = 0;
  std::uint64_t channel_losses = 0;
  std::uint64_t own_attempt_slots = 0;
  double local_time_us = 0.0;
};

/// Applies transmitter i's final outcome to its tally and backoff state
/// — the single mutation point both kernels share. Crashed nodes and
/// non-transmitters are the caller's business (observe_slot / skip).
template <class Node>
inline void apply_outcome(int outcome, SlotTally& tally, Node& node) {
  ++tally.own_attempt_slots;
  switch (outcome) {
    case kOutcomeSuccess:
      ++tally.attempts;
      ++tally.successes;
      node.on_success();
      break;
    case kOutcomeSenderCollision:
      ++tally.attempts;
      ++tally.sender_collisions;
      node.on_collision();
      break;
    case kOutcomeHiddenLoss:
      ++tally.attempts;
      ++tally.hidden_losses;
      // The sender's own domain was clear: in 802.11 terms it gets no
      // CTS/ACK and backs off, exactly like a collision.
      node.on_collision();
      break;
    case kOutcomeIsolated:
      // Isolated: skip the slot without spending energy.
      node.on_success();
      break;
    case kOutcomeChannelLoss:
      ++tally.attempts;
      ++tally.channel_losses;
      // No ACK arrives: the sender backs off exactly as after a
      // collision, just as in the single-hop error path.
      node.on_collision();
      break;
  }
}

/// Window finalization shared by both kernels (multihop_simulator.cpp):
/// reduces per-node tallies into a MultihopResult in node order, so the
/// derived doubles are bitwise identical however the window was run.
MultihopResult assemble_result(const MultihopConfig& config,
                               std::uint64_t slots,
                               std::uint64_t bad_state_slots,
                               const std::vector<SlotTally>& tally);

}  // namespace smac::multihop::detail
