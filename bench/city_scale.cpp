// Metropolitan-scale trajectory: BENCH_city_scale.json.
//
// Sweeps n ∈ {10^3, 10^4, 10^5} mobile + churning city-scale runs
// (multihop::run_city_scale, docs/CITY_SCALE.md): spatial-hash topology
// with incremental mobility updates, local-game seeding, graph-TFT, and
// class-deduplicated neighborhood pricing, reporting the Theorem-3
// quasi-optimality fraction at each scale. The Θ(n²) oracle build is
// timed where feasible (n ≤ 10^4) so the superlinear gap is on record.
//
// Artifact split — the determinism contract:
//   BENCH_city_scale.json          deterministic results only (class
//                                  counts, cache traffic, update stats,
//                                  quasi-optimality); byte-identical at
//                                  any --jobs, pinned by
//                                  tests/parallel/city_scale_invariance_test.cpp
//   BENCH_city_scale_timings.json  wall-clock build/update/solve-dedup
//                                  timings; machine-dependent by nature.
//
// Usage: bench_city_scale [--jobs N] [--smoke] [--kernel K]
//                         [--sim-slots N] [output.json]
//   --smoke        one 10^3-node, 2-stage run (the cheap CTest
//                  configuration); writes BENCH_city_scale_smoke.json
//                  unless a path is given.
//   --kernel K     adds the per-stage slot-sim leg with kernel K ∈
//                  {slot-loop, pdes}. `pdes` runs BOTH kernels per stage
//                  (docs/PDES.md), asserts their results bitwise equal
//                  (non-zero exit on divergence), and reports the
//                  slot-loop/PDES speedup in the timings artifact; PDES
//                  workers come from --jobs.
//   --sim-slots N  slot count of the sim leg (default 2000 once --kernel
//                  is given). sim_* results are kernel- and jobs-
//                  invariant, so the deterministic artifact stays
//                  byte-identical for any --jobs at a fixed --kernel
//                  on/off state.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "multihop/city_scale.hpp"
#include "util/table.hpp"

namespace {

using namespace smac;

std::vector<multihop::CityScaleConfig> scenarios(bool smoke,
                                                 std::size_t solver_jobs,
                                                 std::uint64_t sim_slots,
                                                 multihop::MultihopKernel
                                                     sim_kernel) {
  std::vector<multihop::CityScaleConfig> out;
  multihop::CityScaleConfig base;
  base.solver_jobs = solver_jobs;
  base.seed = 2026;
  base.sim_slots = sim_slots;
  base.sim_kernel = sim_kernel;
  base.sim_jobs = solver_jobs;
  base.sim_compare_kernels =
      sim_slots > 0 && sim_kernel == multihop::MultihopKernel::kPdes;
  if (smoke) {
    base.nodes = 1000;
    base.stages = 2;
    base.time_oracle = true;
    out.push_back(base);
    return out;
  }
  base.nodes = 1000;
  base.stages = 4;
  base.time_oracle = true;
  out.push_back(base);

  base.nodes = 10000;
  base.stages = 3;
  base.time_oracle = true;  // ~5·10^7 pair checks: slow but on record
  out.push_back(base);

  base.nodes = 100000;
  base.stages = 2;
  base.time_oracle = false;  // Θ(n²) = 5·10^9 pairs — out of budget
  base.price_seed_profile = false;  // ~n distinct seed classes at 10^5
  out.push_back(base);
  return out;
}

void write_results_json(const std::string& path,
                        const std::vector<multihop::CityScaleConfig>& configs,
                        const std::vector<multihop::CityScaleResult>& runs) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"benchmark\": \"city-scale multihop: spatial index + "
                    "class-dedup pricing\",\n");
  std::fprintf(out, "  \"deterministic\": true,\n");
  std::fprintf(out, "  \"scenarios\": [\n");
  for (std::size_t s = 0; s < runs.size(); ++s) {
    const multihop::CityScaleResult& r = runs[s];
    std::fprintf(out, "    {\"nodes\": %zu, \"arena_m\": %.17g, "
                      "\"range_m\": %.17g,\n",
                 r.nodes, r.arena_m, configs[s].range_m);
    std::fprintf(out, "     \"stages\": [\n");
    for (std::size_t k = 0; k < r.stage.size(); ++k) {
      const multihop::CityScaleStage& st = r.stage[k];
      std::fprintf(
          out,
          "       {\"stage\": %d, \"online\": %zu, \"edges\": %zu, "
          "\"crashes\": %zu, \"joins\": %zu, \"moved\": %zu, "
          "\"rebucketed\": %zu, \"rescanned\": %zu, \"converged_w\": %d, "
          "\"tft_stages\": %d, \"priced_nodes\": %zu, "
          "\"seed_classes\": %zu, \"converged_classes\": %zu, "
          "\"quasi_optimal_fraction\": %.17g, "
          "\"mean_payoff_fraction\": %.17g, "
          "\"min_payoff_fraction\": %.17g",
          st.stage, st.online, st.edges, st.crashes, st.joins,
          st.update.moved, st.update.rebucketed, st.update.rescanned,
          st.converged_w, st.tft_stages, st.priced_nodes, st.seed_classes,
          st.converged_classes, st.quasi_optimal_fraction,
          st.mean_payoff_fraction, st.min_payoff_fraction);
      if (configs[s].sim_slots > 0) {
        // Emitted only when the sim leg ran, so default artifacts keep
        // their historical shape byte-for-byte. sim results are kernel-
        // and jobs-invariant (the PDES determinism contract).
        std::fprintf(out,
                     ",\n        \"sim\": {\"slots\": %llu, \"p_hn\": %.17g, "
                     "\"payoff\": %.17g, \"regions\": %zu, "
                     "\"kernels_match\": %s}",
                     static_cast<unsigned long long>(configs[s].sim_slots),
                     st.sim_p_hn, st.sim_payoff, st.sim_regions,
                     st.sim_kernels_match ? "true" : "false");
      }
      std::fprintf(out, "}%s\n", k + 1 < r.stage.size() ? "," : "");
    }
    std::fprintf(out, "     ],\n");
    std::fprintf(out,
                 "     \"cache\": {\"size\": %zu, \"hits\": %zu, "
                 "\"misses\": %zu, \"hit_rate\": %.17g}}%s\n",
                 r.cache.size, r.cache.hits, r.cache.misses,
                 r.cache.hits + r.cache.misses > 0
                     ? static_cast<double>(r.cache.hits) /
                           static_cast<double>(r.cache.hits + r.cache.misses)
                     : 0.0,
                 s + 1 < runs.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
}

void write_timings_json(const std::string& path,
                        const std::vector<multihop::CityScaleResult>& runs) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return;
  }
  std::fprintf(out, "{\n  \"unit\": \"wall-clock ms (machine-dependent; "
                    "NOT part of the byte-identical contract)\",\n");
  std::fprintf(out, "  \"scenarios\": [\n");
  for (std::size_t s = 0; s < runs.size(); ++s) {
    const multihop::CityScaleResult& r = runs[s];
    std::fprintf(out,
                 "    {\"nodes\": %zu, \"grid_build_ms\": %.3f, "
                 "\"incremental_update_ms\": %.3f, \"solve_dedup_ms\": %.3f, "
                 "\"oracle_build_ms\": %.3f, \"oracle_vs_grid\": %.2f",
                 r.nodes, r.build_ms, r.update_ms, r.solve_ms,
                 r.oracle_build_ms,
                 r.oracle_build_ms >= 0.0 && r.build_ms > 0.0
                     ? r.oracle_build_ms / r.build_ms
                     : -1.0);
    if (r.sim_ms > 0.0) {
      // pdes_speedup: serial slot loop over the configured kernel; > 1
      // means the PDES kernel won wall clock (expect ~1.0 on a 1-core
      // host — the regions serialize onto one worker).
      std::fprintf(out,
                   ", \"sim_ms\": %.3f, \"sim_oracle_ms\": %.3f, "
                   "\"pdes_speedup\": %.2f",
                   r.sim_ms, r.sim_oracle_ms,
                   r.sim_oracle_ms >= 0.0 && r.sim_ms > 0.0
                       ? r.sim_oracle_ms / r.sim_ms
                       : -1.0);
    }
    std::fprintf(out, "}%s\n", s + 1 < runs.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool sim_leg = false;
  std::uint64_t sim_slots = 0;
  multihop::MultihopKernel sim_kernel = multihop::MultihopKernel::kSlotLoop;
  std::string path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--jobs" || arg.rfind("--jobs=", 0) == 0) {
      if (arg == "--jobs") ++i;  // value consumed by jobs_option
    } else if (arg == "--kernel" && i + 1 < argc) {
      const std::string kernel = argv[++i];
      if (kernel == "pdes") {
        sim_kernel = multihop::MultihopKernel::kPdes;
      } else if (kernel != "slot-loop") {
        std::fprintf(stderr, "unknown --kernel %s (slot-loop|pdes)\n",
                     kernel.c_str());
        return 2;
      }
      sim_leg = true;
    } else if (arg == "--sim-slots" && i + 1 < argc) {
      sim_slots = std::strtoull(argv[++i], nullptr, 10);
      sim_leg = sim_slots > 0;
    } else if (!arg.empty() && arg[0] != '-') {
      path = arg;
    }
  }
  if (sim_leg && sim_slots == 0) sim_slots = 2000;
  if (path.empty()) {
    path = smoke ? "BENCH_city_scale_smoke.json" : "BENCH_city_scale.json";
  }
  const std::size_t jobs = bench::jobs_option(argc, argv);

  bench::print_header(
      "City-scale multihop: spatial-hash topology + class-dedup pricing",
      "ROADMAP metropolitan-scale item; Theorem 3 quasi-optimality at scale",
      "Constant-density arenas, random-waypoint mobility, Bernoulli churn.");
  bench::print_jobs(jobs);

  const auto configs = scenarios(smoke, jobs, sim_slots, sim_kernel);
  std::vector<multihop::CityScaleResult> runs(configs.size());
  for (std::size_t s = 0; s < configs.size(); ++s) {
    // Scenarios run sequentially (each already fans its solver misses
    // across `jobs`); memory, not CPU, is the reason — two 10^5-node
    // runs side by side double the index + trajectory footprint.
    runs[s] = multihop::run_city_scale(configs[s]);
  }

  util::TextTable table({"n", "stage", "online", "edges", "W_m",
                         "classes(seed)", "classes(conv)", "quasi>=96%",
                         "mean frac"});
  for (std::size_t s = 0; s < runs.size(); ++s) {
    for (const multihop::CityScaleStage& st : runs[s].stage) {
      table.add_row({std::to_string(runs[s].nodes),
                     std::to_string(st.stage), std::to_string(st.online),
                     std::to_string(st.edges),
                     std::to_string(st.converged_w),
                     std::to_string(st.seed_classes),
                     std::to_string(st.converged_classes),
                     util::fmt_percent(st.quasi_optimal_fraction, 1),
                     util::fmt_percent(st.mean_payoff_fraction, 1)});
    }
  }
  std::printf("%s\n", table.to_string().c_str());

  bool kernels_diverged = false;
  for (std::size_t s = 0; s < runs.size(); ++s) {
    const multihop::CityScaleResult& r = runs[s];
    std::printf("n=%zu: arena %.0f m, grid build %.2f ms, incremental "
                "updates %.2f ms, pricing %.2f ms, cache %zu/%zu hits",
                r.nodes, r.arena_m, r.build_ms, r.update_ms,
                r.solve_ms, r.cache.hits, r.cache.hits + r.cache.misses);
    if (r.oracle_build_ms >= 0.0) {
      std::printf(", oracle build %.2f ms (%.1fx grid)", r.oracle_build_ms,
                  r.build_ms > 0.0 ? r.oracle_build_ms / r.build_ms : 0.0);
    }
    if (r.sim_ms > 0.0) {
      std::printf(", sim %.2f ms", r.sim_ms);
      if (r.sim_oracle_ms >= 0.0 && r.sim_ms > 0.0) {
        std::printf(" (slot-loop %.2f ms, pdes speedup %.2fx)",
                    r.sim_oracle_ms, r.sim_oracle_ms / r.sim_ms);
      }
    }
    std::printf("\n");
    for (const multihop::CityScaleStage& st : r.stage) {
      if (!st.sim_kernels_match) kernels_diverged = true;
    }
  }
  if (kernels_diverged) {
    std::fprintf(stderr, "ERROR: PDES kernel diverged from the slot-loop "
                         "oracle (determinism contract violated)\n");
  }

  if (sim_leg) {
    util::TextTable sim_table(
        {"n", "stage", "sim p_hn", "sim payoff", "regions", "match"});
    for (std::size_t s = 0; s < runs.size(); ++s) {
      for (const multihop::CityScaleStage& st : runs[s].stage) {
        sim_table.add_row(
            {std::to_string(runs[s].nodes), std::to_string(st.stage),
             util::fmt_double(st.sim_p_hn, 4),
             util::fmt_double(st.sim_payoff, 4),
             std::to_string(st.sim_regions),
             st.sim_kernels_match ? "yes" : "NO"});
      }
    }
    std::printf("%s\n", sim_table.to_string().c_str());
  }

  write_results_json(path, configs, runs);
  const std::string timings_path =
      path.size() > 5 && path.rfind(".json") == path.size() - 5
          ? path.substr(0, path.size() - 5) + "_timings.json"
          : path + "_timings.json";
  write_timings_json(timings_path, runs);
  std::printf("\nwrote %s (deterministic) and %s (wall clock)\n",
              path.c_str(), timings_path.c_str());
  return kernels_diverged ? 1 : 0;
}
