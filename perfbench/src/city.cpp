// City-scale workloads: multihop::run_city_scale untraced, and the same
// pipeline composed from its public layers when traced.
//
// The traced composition repeats run_city_scale's steps in its order —
// RandomWaypointModel, SpatialIndex, update_positions, FaultInjector-driven
// insert_node/remove_node, topology(), local_efficient_cw,
// tft_min_convergence, price_neighborhoods, MultihopSimulator::run_slots —
// so its outputs must equal run_city_scale's bitwise; the harness checks
// that on every traced iteration. Two probes run outside the measured
// pipeline: the converged profile re-priced through classify_profile +
// try_class_utilities_batch directly, and the slot-loop oracle on the
// PDES window. Their solver traffic is subtracted from the pipeline's.
#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "analytical/fixed_point_solver.hpp"
#include "fault/fault_injector.hpp"
#include "multihop/city_scale.hpp"
#include "multihop/local_game.hpp"
#include "multihop/mobility.hpp"
#include "multihop/multihop_simulator.hpp"
#include "parallel/replication.hpp"
#include "parallel/thread_pool.hpp"
#include "phy/parameters.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace smac;

struct CitySize {
  std::size_t nodes;
  bool price_seed_profile;
  std::uint64_t sim_slots;  ///< 0 = no slot leg
};

multihop::CityScaleConfig city_config(const CitySize& size,
                                      std::uint64_t seed) {
  multihop::CityScaleConfig config;
  config.nodes = size.nodes;
  config.stages = 2;
  config.price_seed_profile = size.price_seed_profile;
  config.solver_jobs = kWorkers;
  config.sim_slots = size.sim_slots;
  config.sim_kernel = multihop::MultihopKernel::kPdes;
  config.sim_jobs = kWorkers;
  config.seed = seed;
  return config;
}

Outputs city_outputs(const multihop::CityScaleResult& r) {
  Outputs out;
  out.add("nodes", r.nodes);
  out.add("arena_m", r.arena_m);
  for (const multihop::CityScaleStage& st : r.stage) {
    const std::string p = "stage" + std::to_string(st.stage) + ".";
    out.add(p + "online", st.online);
    out.add(p + "edges", st.edges);
    out.add(p + "crashes", st.crashes);
    out.add(p + "joins", st.joins);
    out.add(p + "moved", st.update.moved);
    out.add(p + "rebucketed", st.update.rebucketed);
    out.add(p + "rescanned", st.update.rescanned);
    out.add(p + "converged_w", st.converged_w);
    out.add(p + "tft_stages", st.tft_stages);
    out.add(p + "priced_nodes", st.priced_nodes);
    out.add(p + "seed_classes", st.seed_classes);
    out.add(p + "converged_classes", st.converged_classes);
    out.add(p + "quasi_optimal_fraction", st.quasi_optimal_fraction);
    out.add(p + "mean_payoff_fraction", st.mean_payoff_fraction);
    out.add(p + "min_payoff_fraction", st.min_payoff_fraction);
    out.add(p + "sim_p_hn", st.sim_p_hn);
    out.add(p + "sim_payoff", st.sim_payoff);
    out.add(p + "sim_regions", st.sim_regions);
  }
  out.add("cache.size", r.cache.size);
  out.add("cache.hits", static_cast<std::size_t>(r.cache.hits));
  out.add("cache.misses", static_cast<std::size_t>(r.cache.misses));
  return out;
}

Outputs run_untraced(const CitySize& size, std::uint64_t seed) {
  const multihop::CityScaleResult r =
      multihop::run_city_scale(city_config(size, seed));
  for (const multihop::CityScaleStage& st : r.stage) {
    if (st.priced_nodes != st.online) {
      throw std::runtime_error("city: a node went unpriced");
    }
  }
  return city_outputs(r);
}

bool same_window(const multihop::MultihopResult& a,
                 const multihop::MultihopResult& b) {
  if (a.slots != b.slots || a.bad_state_slots != b.bad_state_slots ||
      a.global_payoff_rate != b.global_payoff_rate ||
      a.aggregate_p_hn != b.aggregate_p_hn || a.node.size() != b.node.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.node.size(); ++i) {
    const auto& x = a.node[i];
    const auto& y = b.node[i];
    if (x.attempts != y.attempts || x.successes != y.successes ||
        x.sender_collisions != y.sender_collisions ||
        x.hidden_losses != y.hidden_losses ||
        x.channel_losses != y.channel_losses ||
        x.local_time_us != y.local_time_us ||
        x.payoff_rate != y.payoff_rate || x.measured_tau != y.measured_tau ||
        x.measured_p != y.measured_p || x.measured_p_hn != y.measured_p_hn) {
      return false;
    }
  }
  return true;
}

/// One stage's slot-sim window, configured as run_city_scale configures
/// it (stage seed, crashed nodes inactive).
multihop::MultihopResult stage_window(const multihop::CityScaleConfig& config,
                                      const multihop::SpatialIndex& index,
                                      const multihop::Topology& topo,
                                      const std::vector<int>& profile,
                                      int stage,
                                      multihop::MultihopKernel kernel,
                                      multihop::PdesRunStats* stats) {
  multihop::MultihopConfig mh;
  mh.range_m = config.range_m;
  mh.seed = parallel::stream_seed(config.seed ^ 0xc17ab5c4ULL,
                                  static_cast<std::size_t>(stage));
  mh.kernel = kernel;
  mh.pdes.jobs = config.sim_jobs;
  multihop::MultihopSimulator simulator(mh, topo, profile);
  for (std::size_t i = 0; i < index.node_count(); ++i) {
    if (!index.active(i)) simulator.set_node_active(i, false);
  }
  multihop::MultihopResult r = simulator.run_slots(config.sim_slots);
  if (stats != nullptr) *stats = simulator.last_pdes_stats();
  return r;
}

/// The pricing probe: the converged profile's class requests built and
/// priced directly, checked bitwise against price_neighborhoods.
/// Returns the number of class requests priced.
std::size_t class_pricing_probe(Trace& trace,
                                const multihop::SpatialIndex& index,
                                const std::vector<int>& profile,
                                const game::StageGame& game,
                                const multihop::NeighborhoodPricing& expected,
                                LayerMetrics& m, Failures& failures) {
  std::vector<analytical::ClassProfile> requests;
  std::vector<std::size_t> node_of;
  std::vector<std::size_t> self_class;
  {
    const Trace::Scope span(trace, "multihop.classify");
    std::vector<int> local;
    for (std::size_t i = 0; i < index.node_count(); ++i) {
      if (!index.active(i)) continue;
      local.clear();
      local.push_back(profile[i]);
      for (const std::size_t j : index.neighbors(i)) local.push_back(profile[j]);
      if (local.size() == 1) local.push_back(profile[i]);
      analytical::ClassProfile classes = analytical::classify_profile(local);
      node_of.push_back(i);
      self_class.push_back(static_cast<std::size_t>(classes.class_of[0]));
      requests.push_back(std::move(classes));
    }
    m["multihop.classify_ms"] += span.ms();
  }
  std::vector<game::StageGame::ClassPayoffs> priced;
  {
    const Trace::Scope span(trace, "game.stage_game.class_batch");
    priced = game.try_class_utilities_batch(requests);
    m["game.stage_game.class_batch_ms"] += span.ms();
  }
  bool same = priced.size() == requests.size();
  for (std::size_t r = 0; same && r < priced.size(); ++r) {
    const double payoff = analytical::usable(priced[r].diagnostics.status)
                              ? priced[r].utilities[self_class[r]]
                              : 0.0;
    same = payoff == expected.payoff[node_of[r]];
  }
  expect(same, failures,
         "city: direct class pricing differs from price_neighborhoods");
  return requests.size();
}

Outputs run_traced(const CitySize& size, std::uint64_t seed, Trace& trace,
                   LayerMetrics& m, Failures& failures) {
  const multihop::CityScaleConfig config = city_config(size, seed);
  const double arena = multihop::city_arena_side_m(
      config.nodes, config.range_m, config.target_mean_degree);

  std::optional<parallel::ThreadPool> pool;
  std::optional<game::StageGame> game_slot;
  {
    const Trace::Scope span(trace, "game.stage_game.setup");
    analytical::SolverService::Options solver_options;
    pool.emplace(config.solver_jobs);
    solver_options.pool = &*pool;
    game_slot.emplace(phy::Parameters::paper(), phy::AccessMode::kRtsCts,
                      solver_options);
  }
  const game::StageGame& game = *game_slot;

  std::optional<multihop::RandomWaypointModel> mobility;
  std::optional<fault::FaultInjector> injector;
  {
    const Trace::Scope span(trace, "multihop.mobility.setup");
    multihop::MobilityConfig mc;
    mc.width_m = arena;
    mc.height_m = arena;
    mc.v_min_mps = config.v_min_mps;
    mc.v_max_mps = config.v_max_mps;
    mc.seed = config.seed;
    mobility.emplace(mc, config.nodes);
    fault::FaultPlan plan;
    plan.churn.crash_rate = config.churn_crash_rate;
    plan.churn.recover_rate = config.churn_recover_rate;
    injector.emplace(plan, config.nodes, config.seed ^ 0x9e3779b97f4a7c15ULL);
  }

  multihop::CityScaleResult result;
  result.nodes = config.nodes;
  result.arena_m = arena;

  std::optional<multihop::SpatialIndex> index_slot;
  {
    const Trace::Scope span(trace, "multihop.spatial_index.build");
    index_slot.emplace(mobility->positions(), config.range_m);
    m["multihop.spatial_index.build_ms"] += span.ms();
  }
  multihop::SpatialIndex& index = *index_slot;

  analytical::SolveCacheStats probe_traffic;
  double node_slots_total = 0.0;
  std::size_t class_requests = 0;
  int seen_crashes = 0;
  int seen_joins = 0;
  for (int k = 0; k < config.stages; ++k) {
    multihop::CityScaleStage st;
    st.stage = k;
    if (k > 0) {
      {
        const Trace::Scope span(trace, "multihop.mobility.advance");
        mobility->advance(config.mobility_dt_s);
        m["multihop.mobility.advance_ms"] += span.ms();
      }
      {
        const Trace::Scope span(trace, "multihop.spatial_index.update");
        index.update_positions(mobility->positions());
        m["multihop.spatial_index.update_ms"] += span.ms();
      }
      st.update = index.last_update();
      m["multihop.spatial_index.moved"] += static_cast<double>(st.update.moved);
      m["multihop.spatial_index.rebucketed"] +=
          static_cast<double>(st.update.rebucketed);
      m["multihop.spatial_index.rescanned"] +=
          static_cast<double>(st.update.rescanned);
    }
    {
      const Trace::Scope span(trace, "fault.churn");
      injector->begin_stage(k);
      for (std::size_t i = 0; i < config.nodes; ++i) {
        const bool up = injector->online(i);
        if (up && !index.active(i)) {
          index.insert_node(i);
        } else if (!up && index.active(i)) {
          index.remove_node(i);
        }
      }
      m["fault.churn_ms"] += span.ms();
    }
    st.crashes =
        static_cast<std::size_t>(injector->crash_events() - seen_crashes);
    st.joins = static_cast<std::size_t>(injector->join_events() - seen_joins);
    seen_crashes = injector->crash_events();
    seen_joins = injector->join_events();
    m["fault.crashes"] += static_cast<double>(st.crashes);
    m["fault.joins"] += static_cast<double>(st.joins);

    std::optional<multihop::Topology> topo_slot;
    {
      const Trace::Scope span(trace, "multihop.topology.materialize");
      st.online = index.active_count();
      st.edges = index.edge_count();
      topo_slot.emplace(index.topology());
      m["multihop.topology.materialize_ms"] += span.ms();
    }
    const multihop::Topology& topo = *topo_slot;
    m["multihop.topology.edges"] += static_cast<double>(st.edges);

    std::vector<int> seeds;
    {
      const Trace::Scope span(trace, "multihop.local_game.seed");
      seeds = multihop::local_efficient_cw(topo, game);
      m["multihop.local_game.seed_ms"] += span.ms();
    }
    std::optional<multihop::TftConvergence> conv;
    {
      const Trace::Scope span(trace, "multihop.local_game.tft");
      conv.emplace(multihop::tft_min_convergence(topo, seeds));
      m["multihop.local_game.tft_ms"] += span.ms();
    }
    const std::vector<int>& stable = conv->trajectory.back();
    st.converged_w = conv->converged_w;
    st.tft_stages = conv->stages;
    // Every sweep visits each undirected edge from both ends; the last
    // sweep is the one that finds nothing left to change.
    const double sweeps = static_cast<double>(conv->stages + 1);
    m["multihop.local_game.tft_rounds"] += sweeps;
    m["multihop.local_game.tft_edge_visits"] +=
        sweeps * 2.0 * static_cast<double>(st.edges);

    if (config.price_seed_profile) {
      const Trace::Scope span(trace, "multihop.pricing.seed");
      const multihop::NeighborhoodPricing seed_pricing =
          multihop::price_neighborhoods(index, seeds, game);
      st.seed_classes = seed_pricing.distinct_classes;
      m["multihop.pricing.priced_nodes"] +=
          static_cast<double>(seed_pricing.priced_nodes);
      m["multihop.pricing.distinct_classes"] +=
          static_cast<double>(seed_pricing.distinct_classes);
      m["multihop.pricing.seed_ms"] += span.ms();
    }
    std::optional<multihop::NeighborhoodPricing> priced;
    {
      const Trace::Scope span(trace, "multihop.pricing.converged");
      priced.emplace(multihop::price_neighborhoods(index, stable, game));
      m["multihop.pricing.converged_ms"] += span.ms();
    }
    st.priced_nodes = priced->priced_nodes;
    st.converged_classes = priced->distinct_classes;
    m["multihop.pricing.priced_nodes"] +=
        static_cast<double>(priced->priced_nodes);
    m["multihop.pricing.distinct_classes"] +=
        static_cast<double>(priced->distinct_classes);

    {
      const Trace::Scope span(trace, "probe.class_pricing", true);
      const analytical::SolveCacheStats before = game.solve_cache_stats();
      class_requests +=
          class_pricing_probe(trace, index, stable, game, *priced, m, failures);
      const analytical::SolveCacheStats after = game.solve_cache_stats();
      probe_traffic.hits += after.hits - before.hits;
      probe_traffic.misses += after.misses - before.misses;
    }

    {
      const Trace::Scope span(trace, "multihop.quasi_check");
      std::size_t counted = 0;
      std::size_t quasi = 0;
      double sum = 0.0;
      double min_frac = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < config.nodes; ++i) {
        if (!index.active(i)) continue;
        const int n_local = std::max(2, static_cast<int>(index.degree(i)) + 1);
        const double u_best = game.homogeneous_stage_utility(seeds[i], n_local);
        if (!(u_best > 0.0)) continue;
        const double frac = priced->payoff[i] / u_best;
        ++counted;
        sum += frac;
        min_frac = std::min(min_frac, frac);
        if (frac >= 0.96) ++quasi;
      }
      if (counted > 0) {
        st.quasi_optimal_fraction =
            static_cast<double>(quasi) / static_cast<double>(counted);
        st.mean_payoff_fraction = sum / static_cast<double>(counted);
        st.min_payoff_fraction = min_frac;
      }
      m["multihop.quasi_check_ms"] += span.ms();
    }

    if (config.sim_slots > 0) {
      const double node_slots = static_cast<double>(config.nodes) *
                                static_cast<double>(config.sim_slots);
      multihop::PdesRunStats stats;
      std::optional<multihop::MultihopResult> sim;
      {
        const Trace::Scope span(trace, "multihop.pdes");
        sim.emplace(stage_window(config, index, topo, stable, k,
                                 multihop::MultihopKernel::kPdes, &stats));
        m["multihop.pdes.ms"] += span.ms();
      }
      st.sim_p_hn = sim->aggregate_p_hn;
      st.sim_payoff = sim->global_payoff_rate;
      st.sim_regions = stats.regions;
      node_slots_total += node_slots;
      // Partition figures are per window: keep the largest.
      for (const auto& [key, value] :
           {std::pair{"multihop.pdes.regions", stats.regions},
            std::pair{"multihop.pdes.dep_edges", stats.dep_edges},
            std::pair{"multihop.pdes.max_horizon_lead",
                      static_cast<std::size_t>(stats.max_horizon_lead)}}) {
        m[key] = std::max(m[key], static_cast<double>(value));
      }
      m["multihop.pdes.lookahead_violations"] +=
          static_cast<double>(stats.lookahead_violations);
      expect(stats.lookahead_violations == 0, failures,
             "city: PDES reported lookahead violations");

      const Trace::Scope probe(trace, "probe.slot_loop_oracle", true);
      std::optional<multihop::MultihopResult> oracle;
      {
        const Trace::Scope span(trace, "multihop.slot_loop");
        oracle.emplace(stage_window(config, index, topo, stable, k,
                                    multihop::MultihopKernel::kSlotLoop,
                                    nullptr));
        m["multihop.slot_loop.ms"] += span.ms();
      }
      expect(same_window(*sim, *oracle), failures,
             "city: PDES window differs from the slot-loop oracle");
    }
    result.stage.push_back(st);
    const Trace::Scope span(trace, "teardown");
    conv.reset();
    priced.reset();
    topo_slot.reset();
  }
  {
    const Trace::Scope span(trace, "teardown");
    index_slot.reset();
    mobility.reset();
    injector.reset();
  }
  const analytical::SolveCacheStats total = game.solve_cache_stats();
  expect(probe_traffic.misses == 0, failures,
         "city: the pricing probe missed the solve cache");
  result.cache = {total.size, total.hits - probe_traffic.hits,
                  total.misses - probe_traffic.misses};
  const double lookups =
      static_cast<double>(result.cache.hits + result.cache.misses);
  m["analytical.solver.lookups"] = lookups;
  m["analytical.solver.hits"] = static_cast<double>(result.cache.hits);
  m["analytical.solver.misses"] = static_cast<double>(result.cache.misses);
  m["analytical.solver.hit_rate"] =
      lookups > 0 ? static_cast<double>(result.cache.hits) / lookups : 0.0;
  {
    const Trace::Scope span(trace, "teardown");
    game_slot.reset();
    pool.reset();
  }

  m["game.stage_game.ns_per_class_request"] =
      class_requests > 0 ? m["game.stage_game.class_batch_ms"] * 1e6 /
                               static_cast<double>(class_requests)
                         : 0.0;
  if (node_slots_total > 0) {
    m["multihop.pdes.ns_per_node_slot"] =
        m["multihop.pdes.ms"] * 1e6 / node_slots_total;
    m["multihop.slot_loop.ns_per_node_slot"] =
        m["multihop.slot_loop.ms"] * 1e6 / node_slots_total;
    m["multihop.pdes.speedup"] =
        m["multihop.slot_loop.ms"] / m["multihop.pdes.ms"];
  }
  return city_outputs(result);
}

Workload make_city(std::string name, CitySize size) {
  return {std::move(name),
          [size](std::uint64_t seed) { return run_untraced(size, seed); },
          [size](std::uint64_t seed, Trace& trace, LayerMetrics& m,
                 Failures& failures) {
            return run_traced(size, seed, trace, m, failures);
          }};
}

}  // namespace

Workload city_1e5(bool toy) {
  return make_city("city_1e5", {toy ? 1000u : 100000u, false, 0});
}

Workload city_1e4_slots(bool toy) {
  return make_city("city_1e4_slots",
                   {toy ? 1000u : 10000u, true, toy ? 300u : 1000u});
}

}  // namespace perfbench
