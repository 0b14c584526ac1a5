#include "multihop/adaptive.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>

#include "game/convergence.hpp"

namespace smac::multihop {

namespace {

void validate_common(const MultihopSimulator& sim,
                     const RandomWaypointModel* mobility,
                     const MultihopTftConfig& config,
                     const fault::FaultInjector* injector,
                     const char* who) {
  if (config.stages < 1) {
    throw std::invalid_argument(std::string(who) + ": stages < 1");
  }
  if (config.slots_per_stage == 0) {
    throw std::invalid_argument(std::string(who) +
                                ": zero slots per stage");
  }
  if (config.mobility_dt_s < 0.0) {
    throw std::invalid_argument(std::string(who) +
                                ": negative mobility dt");
  }
  if (mobility && mobility->node_count() != sim.node_count()) {
    throw std::invalid_argument(std::string(who) +
                                ": mobility size mismatch");
  }
  if (injector && injector->node_count() != sim.node_count()) {
    throw std::invalid_argument(std::string(who) +
                                ": injector size mismatch");
  }
}

// One played stage, shared by both protocols: stage k's fault state
// (crashes silence their nodes), the slot window with the current
// profile, its record, and the mobility epoch that follows it — nodes
// move, so the next stage's observation graph may differ.
void play_stage(MultihopSimulator& sim, RandomWaypointModel* mobility,
                const MultihopTftConfig& config,
                fault::FaultInjector* injector, int k,
                const std::vector<int>& profile, MultihopTftResult& result) {
  const std::size_t n = sim.node_count();
  if (injector) {
    injector->begin_stage(k);
    for (std::size_t i = 0; i < n; ++i) {
      sim.set_node_active(i, injector->online(i));
    }
  }
  const MultihopResult run = sim.run_slots(config.slots_per_stage);
  MultihopStage stage;
  stage.cw = profile;
  stage.payoff.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    stage.payoff[i] = run.node[i].payoff_rate;
  }
  stage.global_payoff = run.global_payoff_rate;
  stage.topology_connected = sim.topology().connected();
  if (injector) stage.online = injector->online_mask();
  result.stages.push_back(std::move(stage));

  if (mobility && config.mobility_dt_s > 0.0) {
    mobility->advance(config.mobility_dt_s);
    sim.update_topology(
        Topology(mobility->positions(), sim.config().range_m));
  }
}

// Closes a run: fault counters and the convergence facts of its profiles.
void finish_run(MultihopTftResult& result,
                const fault::FaultInjector* injector, int stages) {
  if (injector) result.degradation.record_injector(*injector, stages);
  const game::ConvergenceFacts facts = game::convergence_facts(result.stages);
  result.converged_cw = facts.converged_cw;
  result.stable_from = facts.stable_from;
}

}  // namespace

MultihopTftResult play_multihop_tft(MultihopSimulator& sim,
                                    RandomWaypointModel* mobility,
                                    const MultihopTftConfig& config,
                                    fault::FaultInjector* injector) {
  validate_common(sim, mobility, config, injector, "play_multihop_tft");
  const std::size_t n = sim.node_count();

  MultihopTftResult result;
  std::vector<int> profile(n);
  for (std::size_t i = 0; i < n; ++i) profile[i] = sim.cw(i);
  // observed[i][j]: node i's current belief of node j's window (loss
  // fallback for the observation fault model).
  std::vector<std::vector<int>> observed(
      injector ? n : 0, std::vector<int>(injector ? n : 0, 0));
  if (injector) {
    for (std::size_t i = 0; i < n; ++i) observed[i] = profile;
  }

  for (int k = 0; k < config.stages; ++k) {
    play_stage(sim, mobility, config, injector, k, profile, result);

    // Graph-local TFT on the (possibly new) topology: match the smallest
    // window in the closed neighborhood. Under faults, only online
    // neighbors are matched and their windows are read through the
    // observation model (fixed i-then-j draw order); crashed nodes keep
    // their configured window untouched.
    std::vector<int> next(n);
    const Topology& topo = sim.topology();
    for (std::size_t i = 0; i < n; ++i) {
      if (injector && !injector->online(i)) {
        next[i] = profile[i];
        continue;
      }
      int w = profile[i];
      for (std::size_t j : topo.neighbors(i)) {
        if (!injector) {
          w = std::min(w, profile[j]);
        } else if (injector->online(j)) {
          const int seen =
              injector->observe_cw(profile[j], observed[i][j]).cw;
          observed[i][j] = seen;
          w = std::min(w, seen);
        }
      }
      next[i] = w;
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (next[i] != profile[i]) sim.set_cw(i, next[i]);
    }
    profile = std::move(next);
  }

  finish_run(result, injector, config.stages);
  return result;
}

void MultihopEnforcementConfig::validate() const {
  if (!detector.valid()) {
    throw std::invalid_argument(
        "MultihopEnforcementConfig: invalid detector config");
  }
  if (max_stage < 0) {
    throw std::invalid_argument("MultihopEnforcementConfig: max_stage < 0");
  }
  if (punishment_stages < 1) {
    throw std::invalid_argument(
        "MultihopEnforcementConfig: punishment_stages < 1");
  }
  if (punishment_w < 1) {
    throw std::invalid_argument(
        "MultihopEnforcementConfig: punishment_w < 1");
  }
}

MultihopTftResult play_multihop_enforced(
    MultihopSimulator& sim, RandomWaypointModel* mobility,
    const MultihopTftConfig& config,
    const MultihopEnforcementConfig& enforcement,
    fault::FaultInjector* injector) {
  validate_common(sim, mobility, config, injector,
                  "play_multihop_enforced");
  enforcement.validate();
  const std::size_t n = sim.node_count();
  if (!enforcement.compliant.empty() && enforcement.compliant.size() != n) {
    throw std::invalid_argument(
        "play_multihop_enforced: compliant mask size mismatch");
  }
  const auto is_compliant = [&](std::size_t i) {
    return enforcement.compliant.empty() || enforcement.compliant[i] != 0;
  };

  MultihopTftResult result;
  std::vector<int> profile(n);
  std::vector<int> seed(n);  ///< entry windows — the local agreements
  for (std::size_t i = 0; i < n; ++i) profile[i] = seed[i] = sim.cw(i);
  std::vector<std::vector<int>> observed(n);
  for (std::size_t i = 0; i < n; ++i) observed[i] = profile;

  // One detector per compliant node, calibrated against its own entry
  // window with its closed neighborhood as the model size. Nodes whose
  // agreement window is too small for the detector geometry (the design
  // cheat collapses onto the tolerance band) run blind: they comply and
  // punish on flooded flags but cannot raise one themselves.
  std::vector<std::optional<sim::OnlineDetector>> detectors(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!is_compliant(i)) continue;
    const int n_local =
        std::max<int>(2, static_cast<int>(sim.topology().degree(i)) + 1);
    try {
      detectors[i].emplace(enforcement.detector, seed[i], n_local,
                           enforcement.max_stage, n);
    } catch (const std::invalid_argument&) {
      // blind node; see above
    }
  }

  struct Episode {
    std::size_t offender = 0;
    int remaining = 0;
    int w_punish = 1;
    std::vector<std::uint8_t> punisher;  ///< size n
  };
  std::optional<Episode> episode;

  for (int k = 0; k < config.stages; ++k) {
    const bool punished_stage = episode.has_value();

    // Enforcement owns the compliant windows: entry window, or the
    // punishment window while serving in the active episode. Deviants
    // (non-compliant nodes) are never touched. (Set before the stage's
    // fault state: windows and the online mask are independent inputs
    // of the slot window, and begin_stage draws nothing from either.)
    for (std::size_t i = 0; i < n; ++i) {
      if (!is_compliant(i)) continue;
      int w = seed[i];
      if (episode && episode->punisher[i]) {
        w = std::min(seed[i], episode->w_punish);
      }
      if (w != profile[i]) {
        sim.set_cw(i, w);
        profile[i] = w;
      }
    }

    play_stage(sim, mobility, config, injector, k, profile, result);

    if (punished_stage) {
      ++result.punished_stages;
      // Flood-synchronized suspension: nobody detects while an episode
      // runs (punishers must not read each other's punishment windows as
      // deviations — the flag broadcast told everyone who is serving).
      if (--episode->remaining == 0) {
        for (std::size_t i = 0; i < n; ++i) {
          if (detectors[i]) detectors[i]->rehabilitate(episode->offender);
        }
        ++result.rehabilitations;
        episode.reset();
      }
      continue;
    }

    // Detection phase: every compliant online node reads each online
    // neighbor's window (through the observation model, fixed i-then-j
    // order) and feeds its detector.
    const Topology& topo = sim.topology();
    for (std::size_t i = 0; i < n; ++i) {
      if (!is_compliant(i)) continue;
      if (injector && !injector->online(i)) continue;
      for (std::size_t j : topo.neighbors(i)) {
        if (injector && !injector->online(j)) continue;
        int seen = profile[j];
        if (injector) {
          seen = injector->observe_cw(profile[j], observed[i][j]).cw;
          observed[i][j] = seen;
        }
        if (detectors[i]) detectors[i]->try_observe_window(j, seen);
      }
    }

    // Flag scan: the strongest latched (observer, offender) evidence
    // opens the episode; other latched flags queue behind rehabilitation.
    std::optional<std::size_t> offender;
    double best = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t i = 0; i < n; ++i) {
        if (!detectors[i]) continue;
        const auto& v = detectors[i]->verdict(j);
        if (!v.flagged) continue;
        if (!offender || v.evidence > best) {
          offender = j;
          best = v.evidence;
        }
      }
    }
    if (offender) {
      Episode next;
      next.offender = *offender;
      next.remaining = enforcement.punishment_stages;
      next.w_punish = enforcement.punishment_w;
      next.punisher.assign(n, 0);
      for (std::size_t i : topo.neighbors(*offender)) {
        if (is_compliant(i)) next.punisher[i] = 1;
      }
      episode = std::move(next);
      ++result.punishment_episodes;
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    if (detectors[i]) result.flags_raised += detectors[i]->flags_raised();
  }
  finish_run(result, injector, config.stages);
  return result;
}

}  // namespace smac::multihop
