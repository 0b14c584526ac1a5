// Slot-level multi-hop DCF simulator with carrier sensing and hidden
// terminals (paper §VI/§VII.B substitute for NS-2).
//
// Space is a unit-disk graph: a transmission from i is heard within
// range_m of i. In every global slot, all nodes whose backoff counter is
// zero transmit to a uniformly chosen neighbor. Outcome classification at
// transmitter i with receiver r:
//
//   * sender-visible collision — another transmitter within i's range
//     (i's own carrier-sense domain was contended; this is the p_i the
//     local Bianchi model sees);
//   * hidden-node loss — i's own domain was clear, but another transmitter
//     (outside i's range) or r's own transmission interferes at r (this is
//     the 1 − p_hn degradation of §VI.A);
//   * success — neither.
//
// Each node accrues *local* channel time per slot: σ if no transmitter in
// its range, T_s if a successful transmission is in range, else T_c, which
// matches the paper's assumption that a node and its neighbors sense the
// same channel state. Payoffs are (n_s·g − n_e·e)/local time.
//
// Two interchangeable kernels realize the model (MultihopConfig::kernel):
// the serial global slot loop (the oracle) and a conservative
// region-parallel PDES kernel (src/multihop/pdes.*, docs/PDES.md). All
// randomness is keyed per (node, global slot) in the
// parallel::stream_seed discipline (src/multihop/slot_kernel.hpp), so
// both kernels — at any worker count and any region partition — are
// bitwise identical, pinned by the `ctest -L pdes` differential tier.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "multihop/pdes.hpp"
#include "multihop/topology.hpp"
#include "parallel/replication.hpp"
#include "phy/parameters.hpp"
#include "sim/dcf_node.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace smac::multihop {

struct MultihopConfig {
  phy::Parameters params = phy::Parameters::paper();
  /// Paper's multi-hop analysis assumes RTS/CTS access (§VI).
  phy::AccessMode mode = phy::AccessMode::kRtsCts;
  double range_m = 250.0;
  std::uint64_t seed = 11;
  /// Slot-level fault scenario: scripted crash/join events (slot indices
  /// count from simulator construction, across windows — the same
  /// convention as the single-hop simulator) plus an optional
  /// Gilbert–Elliott bursty-loss chain. The chain corrupts otherwise
  /// successful deliveries with PER_eff layered on
  /// params.packet_error_rate; with the chain disabled (the default) no
  /// extra RNG draws happen and behavior is unchanged — the spatial
  /// simulator models no i.i.d. channel noise on its own.
  fault::SlotFaultPlan faults;
  /// Engine choice. kSlotLoop is the serial reference loop (the oracle);
  /// kPdes is the conservative region-parallel kernel (docs/PDES.md).
  /// Both are bitwise identical at any pdes setting — the `ctest -L
  /// pdes` differential tier pins it — so the choice is purely about
  /// wall clock.
  MultihopKernel kernel = MultihopKernel::kSlotLoop;
  PdesOptions pdes;
};

/// Per-node measurement of one window.
struct MultihopNodeStats {
  std::uint64_t attempts = 0;
  std::uint64_t successes = 0;
  std::uint64_t sender_collisions = 0;  ///< contended within own range
  std::uint64_t hidden_losses = 0;      ///< clear locally, jammed at receiver
  std::uint64_t channel_losses = 0;     ///< clear + unjammed, corrupted by
                                        ///< the bursty channel
  double local_time_us = 0.0;           ///< Σ local slot durations
  double payoff_rate = 0.0;             ///< (n_s·g − n_e·e)/local time
  double measured_tau = 0.0;
  double measured_p = 0.0;     ///< sender-visible collision fraction
  double measured_p_hn = 0.0;  ///< delivery fraction given a clear sender
};

struct MultihopResult {
  std::uint64_t slots = 0;
  /// Slots spent in the Gilbert–Elliott Bad state (0 without a fault plan).
  std::uint64_t bad_state_slots = 0;
  std::vector<MultihopNodeStats> node;
  double global_payoff_rate = 0.0;  ///< Σ_i payoff_rate_i
  /// Aggregate p_hn over all nodes (paper's degradation factor).
  double aggregate_p_hn = 0.0;
};

class MultihopSimulator {
 public:
  /// Topology is captured by value; update_topology() re-binds positions
  /// after mobility moves nodes (backoff state is preserved).
  MultihopSimulator(MultihopConfig config, Topology topology,
                    const std::vector<int>& cw_profile);

  std::size_t node_count() const noexcept { return nodes_.size(); }
  const Topology& topology() const noexcept { return topology_; }
  const MultihopConfig& config() const noexcept { return config_; }
  int cw(std::size_t i) const { return nodes_.at(i).cw(); }

  void set_cw(std::size_t i, int w);
  void set_all_cw(int w);
  void set_profile(const std::vector<int>& cw_profile);

  /// Crashes (active = false) or rejoins node i. An inactive node never
  /// transmits, freezes its backoff, accrues no local channel time (its
  /// payoff rate is 0), and is skipped when neighbors pick receivers.
  /// Scripted fault-plan events use the same mechanism, so a scripted
  /// crash at slot k equals a manual set_node_active(false) between a
  /// k-slot window and its remainder.
  void set_node_active(std::size_t i, bool active);
  bool node_active(std::size_t i) const { return active_.at(i) != 0; }

  /// Replaces the topology (same node count) — the mobility hook.
  void update_topology(Topology topology);

  /// Runs `slots` global slots and returns this window's measurements,
  /// through the kernel config_.kernel selects. The result — and the
  /// post-window backoff/active/channel state, so later windows chain
  /// identically — is a pure function of (seed, topology, profile, fault
  /// plan, slots): kernel choice, pdes options, and worker scheduling
  /// never enter (the `ctest -L pdes` contract).
  MultihopResult run_slots(std::uint64_t slots);

  /// Global slots simulated since construction (scripted SlotEvent
  /// indices refer to this counter).
  std::uint64_t total_slots() const noexcept { return total_slots_; }

  /// Diagnostics of the most recent kPdes window (zeros before the
  /// first one, or under kSlotLoop).
  const PdesRunStats& last_pdes_stats() const noexcept {
    return last_pdes_;
  }

 private:
  friend struct PdesEngine;  // pdes.cpp: the region-parallel run path

  MultihopResult run_slots_slot_loop(std::uint64_t slots);
  MultihopResult run_slots_pdes(std::uint64_t slots);

  MultihopConfig config_;
  phy::SlotTimes times_;
  Topology topology_;
  std::vector<sim::DcfNode> nodes_;
  std::vector<std::uint64_t> draw_base_;  ///< per-node (node,slot) bases
  std::vector<std::uint8_t> active_;
  std::vector<std::size_t> receiver_scratch_;
  fault::GilbertElliottChannel fault_channel_;
  std::size_t next_fault_event_ = 0;
  std::uint64_t total_slots_ = 0;
  /// Region partition cache for kPdes; rebuilt when the topology moves.
  std::optional<RegionPartition> partition_;
  PdesRunStats last_pdes_;
};

/// One-shot serial slot-loop run — THE oracle the PDES differential and
/// fuzz tiers compare against (the same pattern build_topology_full
/// serves for the spatial index). Ignores config.kernel.
MultihopResult run_multihop_slot_loop(const MultihopConfig& config,
                                      const Topology& topology,
                                      const std::vector<int>& cw_profile,
                                      std::uint64_t slots);

/// One-shot conservative-PDES run with config.pdes. Bitwise equal to
/// run_multihop_slot_loop on the same inputs, at any jobs/partition.
MultihopResult run_multihop_pdes(const MultihopConfig& config,
                                 const Topology& topology,
                                 const std::vector<int>& cw_profile,
                                 std::uint64_t slots,
                                 PdesRunStats* stats = nullptr);

/// Metric names of a replicated batch's metrics, in column order:
/// global payoff rate, aggregate p_hn, success/hidden-loss fractions,
/// mean tau.
const std::vector<std::string>& replicated_metric_names();

/// Runs `replications` independent copies of (config, topology,
/// cw_profile) for `slots` slots each, fanned over `jobs` threads (1 =
/// serial inline, 0 = ThreadPool::default_jobs()). config.seed is the
/// base seed of the replication family; results are bit-identical for
/// any `jobs` (see src/parallel/replication.hpp). Individual
/// MultihopResult windows are reduced on the fly and not retained; to
/// inspect replication r, rebuild it with
/// config.seed = parallel::stream_seed(config.seed, r).
parallel::ReplicationSummary run_replicated(
    const MultihopConfig& config, const Topology& topology,
    const std::vector<int>& cw_profile, std::uint64_t slots,
    std::size_t replications, std::size_t jobs = 1);

/// Sequential-stopping variant: replicates in deterministic batches until
/// `rule`'s CI half-width target is met or rule.max_reps (must be > 0) is
/// exhausted. The first k replications are bit-identical to the fixed-N
/// overload's; the stop point is jobs-invariant.
parallel::ReplicationSummary run_replicated(
    const MultihopConfig& config, const Topology& topology,
    const std::vector<int>& cw_profile, std::uint64_t slots,
    const parallel::StoppingRule& rule, std::size_t jobs = 1);

}  // namespace smac::multihop
