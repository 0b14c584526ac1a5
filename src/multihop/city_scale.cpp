#include "multihop/city_scale.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "fault/fault_injector.hpp"
#include "multihop/local_game.hpp"
#include "multihop/mobility.hpp"
#include "multihop/multihop_simulator.hpp"
#include "parallel/replication.hpp"
#include "parallel/thread_pool.hpp"
#include "phy/parameters.hpp"
#include "util/hash.hpp"

namespace smac::multihop {
namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Exact (bitwise) equality of two multihop windows — the check
/// sim_compare_kernels applies per stage. Doubles compare with ==
/// deliberately: the PDES contract promises identical bits, not just
/// identical statistics.
bool results_identical(const MultihopResult& a, const MultihopResult& b) {
  if (a.slots != b.slots || a.bad_state_slots != b.bad_state_slots ||
      a.global_payoff_rate != b.global_payoff_rate ||
      a.aggregate_p_hn != b.aggregate_p_hn ||
      a.node.size() != b.node.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.node.size(); ++i) {
    const MultihopNodeStats& x = a.node[i];
    const MultihopNodeStats& y = b.node[i];
    if (x.attempts != y.attempts || x.successes != y.successes ||
        x.sender_collisions != y.sender_collisions ||
        x.hidden_losses != y.hidden_losses ||
        x.channel_losses != y.channel_losses ||
        x.local_time_us != y.local_time_us ||
        x.payoff_rate != y.payoff_rate ||
        x.measured_tau != y.measured_tau || x.measured_p != y.measured_p ||
        x.measured_p_hn != y.measured_p_hn) {
      return false;
    }
  }
  return true;
}

/// One stage's slot-sim window: the converged profile on the stage's
/// active topology, crashed nodes inactive. The stage seed is a
/// stream_seed derivation so stages are independent replications.
MultihopResult run_stage_sim(const CityScaleConfig& config,
                             const SpatialIndex& index, const Topology& topo,
                             const std::vector<int>& profile, int stage,
                             MultihopKernel kernel, PdesRunStats* stats) {
  MultihopConfig mh;
  mh.range_m = config.range_m;
  mh.seed = parallel::stream_seed(config.seed ^ 0xc17ab5c4ULL,
                                  static_cast<std::size_t>(stage));
  mh.kernel = kernel;
  mh.pdes.jobs = config.sim_jobs;
  MultihopSimulator simulator(mh, topo, profile);
  for (std::size_t i = 0; i < index.node_count(); ++i) {
    if (!index.active(i)) simulator.set_node_active(i, false);
  }
  MultihopResult r = simulator.run_slots(config.sim_slots);
  if (stats != nullptr) *stats = simulator.last_pdes_stats();
  return r;
}

/// The SolverService's canonical key within one stage (fixed max stage
/// and PER): the (window, multiplicity) multiset, class_of ignored.
struct CanonicalClassHash {
  std::size_t operator()(const analytical::ClassProfile* p) const noexcept {
    return static_cast<std::size_t>(util::hash_ints(
        util::hash_ints(util::kHashSeed, p->window), p->multiplicity));
  }
};
struct CanonicalClassEqual {
  bool operator()(const analytical::ClassProfile* a,
                  const analytical::ClassProfile* b) const noexcept {
    return a->window == b->window && a->multiplicity == b->multiplicity;
  }
};

}  // namespace

double city_arena_side_m(std::size_t nodes, double range_m,
                         double target_mean_degree) {
  if (nodes == 0 || !(range_m > 0.0) || !(target_mean_degree > 0.0)) {
    throw std::invalid_argument("city_arena_side_m: invalid inputs");
  }
  constexpr double kPi = 3.14159265358979323846;
  return std::sqrt(static_cast<double>(nodes) * kPi * range_m * range_m /
                   target_mean_degree);
}

NeighborhoodPricing price_neighborhoods(const SpatialIndex& index,
                                        const std::vector<int>& profile,
                                        const game::StageGame& game) {
  if (profile.size() != index.node_count()) {
    throw std::invalid_argument(
        "price_neighborhoods: profile size mismatch");
  }
  NeighborhoodPricing out;
  out.payoff.assign(index.node_count(), 0.0);

  // One class request per active node. StageGame merges exact repeats
  // into one ticket, and the SolverService's drain groups identical
  // (window, multiplicity) multisets onto one solve, tallying every
  // duplicate request as a cache hit — so SolveCacheStats records exactly
  // how much of the stage the symmetry collapse absorbed (the
  // class-collapse regression test pins that).
  struct NodeRef {
    std::size_t node;
    std::size_t self_class;  ///< node's own class within its local profile
  };
  std::vector<NodeRef> refs;
  std::vector<analytical::ClassProfile> requests;
  std::vector<int> local;
  for (std::size_t i = 0; i < index.node_count(); ++i) {
    if (!index.active(i)) continue;
    local.clear();
    local.push_back(profile[i]);
    for (const std::size_t j : index.neighbors(i)) {
      local.push_back(profile[j]);
    }
    // Isolated node: the same 2-player floor as local_efficient_cw (a
    // 1-player "game" is degenerate; see local_game.hpp).
    if (local.size() == 1) local.push_back(profile[i]);
    analytical::ClassProfile classes = analytical::classify_profile(local);
    refs.push_back({i, static_cast<std::size_t>(classes.class_of[0])});
    requests.push_back(std::move(classes));
  }
  out.priced_nodes = refs.size();
  std::unordered_set<const analytical::ClassProfile*, CanonicalClassHash,
                     CanonicalClassEqual>
      distinct;
  for (const analytical::ClassProfile& classes : requests) {
    distinct.insert(&classes);
  }
  out.distinct_classes = distinct.size();

  const auto priced = game.try_class_utilities_batch(requests);
  for (std::size_t r = 0; r < refs.size(); ++r) {
    if (analytical::usable(priced[r].diagnostics.status)) {
      out.payoff[refs[r].node] = priced[r].utilities[refs[r].self_class];
    }
  }
  return out;
}

CityScaleResult run_city_scale(const CityScaleConfig& config) {
  if (config.nodes == 0) {
    throw std::invalid_argument("run_city_scale: no nodes");
  }
  if (config.stages < 1) {
    throw std::invalid_argument("run_city_scale: stages < 1");
  }
  const double arena = city_arena_side_m(config.nodes, config.range_m,
                                         config.target_mean_degree);

  // The pool (when any) must outlive the game that chunks over it.
  std::optional<parallel::ThreadPool> pool;
  analytical::SolverService::Options solver_options;
  if (config.solver_jobs > 1) {
    pool.emplace(config.solver_jobs);
    solver_options.pool = &*pool;
  }
  const game::StageGame game(phy::Parameters::paper(),
                             phy::AccessMode::kRtsCts, solver_options);

  MobilityConfig mobility_config;
  mobility_config.width_m = arena;
  mobility_config.height_m = arena;
  mobility_config.v_min_mps = config.v_min_mps;
  mobility_config.v_max_mps = config.v_max_mps;
  mobility_config.seed = config.seed;
  RandomWaypointModel mobility(mobility_config, config.nodes);

  fault::FaultPlan plan;
  plan.churn.crash_rate = config.churn_crash_rate;
  plan.churn.recover_rate = config.churn_recover_rate;
  fault::FaultInjector injector(plan, config.nodes,
                                config.seed ^ 0x9e3779b97f4a7c15ULL);

  CityScaleResult result;
  result.nodes = config.nodes;
  result.arena_m = arena;

  const auto t_build = Clock::now();
  SpatialIndex index(mobility.positions(), config.range_m);
  result.build_ms = ms_since(t_build);

  if (config.time_oracle) {
    const auto t_oracle = Clock::now();
    const Topology oracle =
        build_topology_full(mobility.positions(), config.range_m);
    result.oracle_build_ms = ms_since(t_oracle);
    (void)oracle;
  }

  int seen_crashes = 0;
  int seen_joins = 0;
  for (int k = 0; k < config.stages; ++k) {
    CityScaleStage st;
    st.stage = k;

    if (k > 0) {
      mobility.advance(config.mobility_dt_s);
      const auto t_update = Clock::now();
      index.update_positions(mobility.positions());
      result.update_ms += ms_since(t_update);
      st.update = index.last_update();
    }

    // Churn entering the stage: the injector draws in node-index order
    // (its determinism contract); the index applies the delta.
    injector.begin_stage(k);
    {
      const auto t_churn = Clock::now();
      for (std::size_t i = 0; i < config.nodes; ++i) {
        const bool up = injector.online(i);
        if (up && !index.active(i)) {
          index.insert_node(i);
        } else if (!up && index.active(i)) {
          index.remove_node(i);
        }
      }
      result.update_ms += ms_since(t_churn);
    }
    st.crashes =
        static_cast<std::size_t>(injector.crash_events() - seen_crashes);
    st.joins = static_cast<std::size_t>(injector.join_events() - seen_joins);
    seen_crashes = injector.crash_events();
    seen_joins = injector.join_events();
    st.online = index.active_count();
    st.edges = index.edge_count();

    // Local agreements and graph-TFT on the active subgraph (crashed
    // nodes are isolated in the materialized topology: they keep their
    // seed and price nothing).
    const Topology topo = index.topology();
    const std::vector<int> seeds = local_efficient_cw(topo, game);
    const auto conv = tft_min_convergence(topo, seeds);
    const std::vector<int>& stable = conv.trajectory.back();
    st.converged_w = conv.converged_w;
    st.tft_stages = conv.stages;

    const auto t_solve = Clock::now();
    if (config.price_seed_profile) {
      st.seed_classes =
          price_neighborhoods(index, seeds, game).distinct_classes;
    }
    const NeighborhoodPricing priced =
        price_neighborhoods(index, stable, game);
    result.solve_ms += ms_since(t_solve);
    st.priced_nodes = priced.priced_nodes;
    st.converged_classes = priced.distinct_classes;

    // Theorem 3 at scale: each node's payoff at the TFT-stable profile
    // against the payoff of its own local agreement (the homogeneous
    // (seed_i, deg_i + 1)-player point — what it would earn had TFT not
    // dragged the window down).
    std::size_t counted = 0;
    std::size_t quasi = 0;
    double sum = 0.0;
    double min_frac = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < config.nodes; ++i) {
      if (!index.active(i)) continue;
      const int n_local =
          std::max(2, static_cast<int>(index.degree(i)) + 1);
      const double u_best = game.homogeneous_stage_utility(seeds[i], n_local);
      if (!(u_best > 0.0)) continue;
      const double frac = priced.payoff[i] / u_best;
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

    // Slot-sim leg: what the converged profile actually earns on the air
    // (the pricing above is analytical). Kernel and jobs are scheduling
    // choices only — the PDES determinism contract keeps sim_p_hn and
    // sim_payoff bitwise identical, which sim_compare_kernels verifies.
    if (config.sim_slots > 0) {
      PdesRunStats sim_stats;
      const bool wants_pdes = config.sim_kernel == MultihopKernel::kPdes ||
                              config.sim_compare_kernels;
      const auto t_sim = Clock::now();
      const MultihopResult sim = run_stage_sim(
          config, index, topo, stable, k,
          wants_pdes ? MultihopKernel::kPdes : MultihopKernel::kSlotLoop,
          wants_pdes ? &sim_stats : nullptr);
      result.sim_ms += ms_since(t_sim);
      if (config.sim_compare_kernels) {
        const auto t_oracle = Clock::now();
        const MultihopResult oracle =
            run_stage_sim(config, index, topo, stable, k,
                          MultihopKernel::kSlotLoop, nullptr);
        if (result.sim_oracle_ms < 0.0) result.sim_oracle_ms = 0.0;
        result.sim_oracle_ms += ms_since(t_oracle);
        st.sim_kernels_match = results_identical(sim, oracle);
      }
      st.sim_p_hn = sim.aggregate_p_hn;
      st.sim_payoff = sim.global_payoff_rate;
      st.sim_regions = sim_stats.regions;
    }
    result.stage.push_back(st);
  }
  result.cache = game.solve_cache_stats();
  return result;
}

}  // namespace smac::multihop
