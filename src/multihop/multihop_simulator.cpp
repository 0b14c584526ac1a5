#include "multihop/multihop_simulator.hpp"

#include <algorithm>
#include <stdexcept>

#include "multihop/slot_kernel.hpp"

namespace smac::multihop {

const char* to_string(MultihopKernel kernel) noexcept {
  switch (kernel) {
    case MultihopKernel::kSlotLoop:
      return "slot-loop";
    case MultihopKernel::kPdes:
      return "pdes";
  }
  return "?";
}

MultihopSimulator::MultihopSimulator(MultihopConfig config, Topology topology,
                                     const std::vector<int>& cw_profile)
    : config_(std::move(config)),
      times_(config_.params.slot_times(config_.mode)),
      topology_(std::move(topology)),
      active_(cw_profile.size(), 1),
      fault_channel_(config_.faults.channel,
                     util::Rng(config_.seed ^ 0xb4d57a7eULL)) {
  config_.params.validate();
  config_.faults.validate();
  config_.pdes.validate();
  if (cw_profile.size() != topology_.node_count()) {
    throw std::invalid_argument("MultihopSimulator: profile/topology mismatch");
  }
  config_.faults.order_events(cw_profile.size());
  util::Rng master(config_.seed ^ 0xabcdef1234567890ULL);
  nodes_.reserve(cw_profile.size());
  draw_base_.reserve(cw_profile.size());
  for (int w : cw_profile) {
    nodes_.emplace_back(w, config_.params.max_backoff_stage, master.split());
    draw_base_.push_back(
        detail::node_draw_base(config_.seed, draw_base_.size()));
  }
}

void MultihopSimulator::set_cw(std::size_t i, int w) { nodes_.at(i).set_cw(w); }

void MultihopSimulator::set_all_cw(int w) {
  for (auto& node : nodes_) node.set_cw(w);
}

void MultihopSimulator::set_profile(const std::vector<int>& cw_profile) {
  if (cw_profile.size() != nodes_.size()) {
    throw std::invalid_argument("MultihopSimulator: profile size mismatch");
  }
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    nodes_[i].set_cw(cw_profile[i]);
  }
}

void MultihopSimulator::set_node_active(std::size_t i, bool active) {
  active_.at(i) = active ? 1 : 0;
}

void MultihopSimulator::update_topology(Topology topology) {
  if (topology.node_count() != nodes_.size()) {
    throw std::invalid_argument("update_topology: node count changed");
  }
  topology_ = std::move(topology);
  partition_.reset();  // region geometry moved with the nodes
}

MultihopResult MultihopSimulator::run_slots(std::uint64_t slots) {
  if (slots == 0) throw std::invalid_argument("run_slots: slots == 0");
  return config_.kernel == MultihopKernel::kPdes ? run_slots_pdes(slots)
                                                 : run_slots_slot_loop(slots);
}

namespace detail {

// Shared window finalization: both kernels produce per-node SlotTally
// arrays and reduce them here, in node order, so the derived doubles are
// bitwise identical.
MultihopResult assemble_result(const MultihopConfig& config,
                               std::uint64_t slots,
                               std::uint64_t bad_state_slots,
                               const std::vector<SlotTally>& tally) {
  MultihopResult result;
  result.slots = slots;
  result.bad_state_slots = bad_state_slots;
  result.node.resize(tally.size());
  std::uint64_t clear_attempts = 0;
  std::uint64_t clear_delivered = 0;
  for (std::size_t i = 0; i < tally.size(); ++i) {
    const SlotTally& t = tally[i];
    MultihopNodeStats& out = result.node[i];
    out.attempts = t.attempts;
    out.successes = t.successes;
    out.sender_collisions = t.sender_collisions;
    out.hidden_losses = t.hidden_losses;
    out.channel_losses = t.channel_losses;
    out.local_time_us = t.local_time_us;
    out.payoff_rate =
        t.local_time_us > 0.0
            ? (static_cast<double>(t.successes) * config.params.gain -
               static_cast<double>(t.attempts) * config.params.cost) /
                  t.local_time_us
            : 0.0;
    out.measured_tau =
        static_cast<double>(t.own_attempt_slots) / static_cast<double>(slots);
    out.measured_p =
        t.attempts ? static_cast<double>(t.sender_collisions) /
                         static_cast<double>(t.attempts)
                   : 0.0;
    // A channel-corrupted frame was clear locally and unjammed at the
    // receiver, so it belongs in the clear-sender denominator: p_hn then
    // folds bursty-channel degradation together with hidden-node loss.
    const std::uint64_t clear =
        t.successes + t.hidden_losses + t.channel_losses;
    out.measured_p_hn =
        clear ? static_cast<double>(t.successes) / static_cast<double>(clear)
              : 1.0;
    clear_attempts += clear;
    clear_delivered += t.successes;
    result.global_payoff_rate += out.payoff_rate;
  }
  result.aggregate_p_hn =
      clear_attempts ? static_cast<double>(clear_delivered) /
                           static_cast<double>(clear_attempts)
                     : 1.0;
  return result;
}

}  // namespace detail

MultihopResult MultihopSimulator::run_slots_slot_loop(std::uint64_t slots) {
  const std::size_t n = nodes_.size();

  std::vector<detail::SlotTally> tally(n);
  std::uint64_t bad_state_slots = 0;
  const bool channel_on = config_.faults.channel.enabled();

  std::vector<std::size_t> transmitters;
  std::vector<char> is_tx(n);
  std::vector<int> outcome(n);

  auto tx_of = [&](std::size_t j) { return is_tx[j] != 0; };
  auto active_of = [&](std::size_t j) { return active_[j] != 0; };

  for (std::uint64_t s = 0; s < slots; ++s) {
    // Faults resolve at the slot boundary: scripted events first (through
    // the same active_ mask as set_node_active), then one step of the
    // bursty-loss chain (no draws when the plan is empty).
    while (next_fault_event_ < config_.faults.events.size() &&
           config_.faults.events[next_fault_event_].slot <= total_slots_) {
      const fault::SlotEvent& e = config_.faults.events[next_fault_event_++];
      active_[e.node] = e.kind == fault::FaultKind::kJoin ? 1 : 0;
    }
    fault_channel_.step();
    if (fault_channel_.bad()) ++bad_state_slots;
    const double per_eff =
        channel_on ? fault_channel_.effective_per(config_.params.packet_error_rate)
                   : 0.0;

    transmitters.clear();
    std::fill(is_tx.begin(), is_tx.end(), 0);
    for (std::size_t i = 0; i < n; ++i) {
      if (active_[i] != 0 && nodes_[i].ready()) {
        transmitters.push_back(i);
        is_tx[i] = 1;
      }
    }

    // Classify each transmitter from its own (node, slot) draw stream:
    // draw #1 picks the receiver, draw #2 (taken only for an on-air
    // success under an enabled chain) is the bursty-corruption trial.
    for (std::size_t i : transmitters) {
      util::Rng rng = detail::slot_rng(draw_base_[i], total_slots_);
      int out = detail::classify_transmitter(topology_.graph(), i, rng,
                                             tx_of, active_of,
                                             receiver_scratch_);
      if (out == detail::kOutcomeSuccess && channel_on && per_eff > 0.0 &&
          rng.bernoulli(per_eff)) {
        out = detail::kOutcomeChannelLoss;
      }
      outcome[i] = out;
    }

    // Local channel time. A crashed node senses nothing and accrues no
    // local time.
    for (std::size_t i = 0; i < n; ++i) {
      if (active_[i] == 0) continue;
      const bool self_tx = is_tx[i] != 0;
      tally[i].local_time_us += detail::local_slot_time_us(
          topology_.graph(), i, times_, self_tx,
          self_tx && detail::on_air_success(outcome[i]), tx_of,
          [&](std::size_t j) { return detail::on_air_success(outcome[j]); });
    }

    // Apply outcomes to backoff state and counters. Crashed nodes freeze
    // their backoff until they rejoin.
    for (std::size_t i = 0; i < n; ++i) {
      if (active_[i] == 0) continue;
      if (!is_tx[i]) {
        nodes_[i].observe_slot();
        continue;
      }
      detail::apply_outcome(outcome[i], tally[i], nodes_[i]);
    }
    ++total_slots_;
  }

  return detail::assemble_result(config_, slots, bad_state_slots, tally);
}

const std::vector<std::string>& replicated_metric_names() {
  static const std::vector<std::string> names{
      "global payoff rate", "aggregate p_hn", "success fraction",
      "hidden-loss fraction", "mean tau"};
  return names;
}

namespace {

std::vector<double> replicated_metric_row(const MultihopResult& r) {
  std::uint64_t attempts = 0;
  std::uint64_t successes = 0;
  std::uint64_t hidden = 0;
  double tau_sum = 0.0;
  for (const MultihopNodeStats& s : r.node) {
    attempts += s.attempts;
    successes += s.successes;
    hidden += s.hidden_losses;
    tau_sum += s.measured_tau;
  }
  const double att = attempts ? static_cast<double>(attempts) : 1.0;
  return {r.global_payoff_rate, r.aggregate_p_hn,
          static_cast<double>(successes) / att,
          static_cast<double>(hidden) / att,
          r.node.empty() ? 0.0
                         : tau_sum / static_cast<double>(r.node.size())};
}

}  // namespace

MultihopResult run_multihop_slot_loop(const MultihopConfig& config,
                                      const Topology& topology,
                                      const std::vector<int>& cw_profile,
                                      std::uint64_t slots) {
  MultihopConfig oracle = config;
  oracle.kernel = MultihopKernel::kSlotLoop;
  MultihopSimulator simulator(oracle, topology, cw_profile);
  return simulator.run_slots(slots);
}

MultihopResult run_multihop_pdes(const MultihopConfig& config,
                                 const Topology& topology,
                                 const std::vector<int>& cw_profile,
                                 std::uint64_t slots, PdesRunStats* stats) {
  MultihopConfig pdes = config;
  pdes.kernel = MultihopKernel::kPdes;
  MultihopSimulator simulator(pdes, topology, cw_profile);
  MultihopResult result = simulator.run_slots(slots);
  if (stats != nullptr) *stats = simulator.last_pdes_stats();
  return result;
}

parallel::ReplicationSummary run_replicated(
    const MultihopConfig& config, const Topology& topology,
    const std::vector<int>& cw_profile, std::uint64_t slots,
    std::size_t replications, std::size_t jobs) {
  parallel::StoppingRule fixed;  // target 0: stream all N, never stop early
  fixed.max_reps = replications;
  return run_replicated(config, topology, cw_profile, slots, fixed, jobs);
}

parallel::ReplicationSummary run_replicated(
    const MultihopConfig& config, const Topology& topology,
    const std::vector<int>& cw_profile, std::uint64_t slots,
    const parallel::StoppingRule& rule, std::size_t jobs) {
  if (rule.max_reps == 0) {
    throw std::invalid_argument("run_replicated: rule.max_reps == 0");
  }
  const parallel::ReplicationRunner runner({rule.max_reps, config.seed, jobs});
  return runner.run_sequential(
      replicated_metric_names(), rule,
      [&](std::uint64_t seed, std::size_t /*index*/) {
        MultihopConfig replica = config;
        replica.seed = seed;
        MultihopSimulator simulator(replica, topology, cw_profile);
        return replicated_metric_row(simulator.run_slots(slots));
      });
}

}  // namespace smac::multihop
