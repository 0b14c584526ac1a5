// Machine-readable solver perf tracking: BENCH_solver.json.
//
// Times the symmetry-collapsed heterogeneous solver (try_solve_network)
// against the pre-collapse per-node reference kernel
// (try_solve_network_full) over an (n, k) grid, reporting the median
// ns/solve for each, the speedup ratio, and the max |Δτ| between the two
// kernels' solutions (the ≤ 1e-12 agreement contract, asserted bitwise-
// tolerant in tests/analytical/symmetry_collapse_test.cpp). Also times
// cold vs warm-started re-solves of a perturbed profile — the
// best-response inner-loop access pattern.
//
// Also records a solves/sec throughput trajectory for the lockstep batch
// kernel (try_solve_classes_batch) at batch sizes 1/16/256/4096, cold
// (distinct profiles, no hints) and warm (re-solves seeded with their own
// solution — the repeated-game stage pattern), plus one SolverService
// drain of deduplicated requests.
//
// Usage: bench_solver_json [output.json]   (default BENCH_solver.json in
// the working directory). Wall-clock numbers obviously vary by machine;
// the JSON is a trajectory record, not a determinism surface.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "analytical/batch_solver.hpp"
#include "analytical/fixed_point_solver.hpp"
#include "analytical/solver_service.hpp"

namespace {

using namespace smac;
using Clock = std::chrono::steady_clock;

std::vector<int> class_mixed_profile(int n, int k) {
  static const int kWindows[] = {16, 64, 256, 1024, 48, 512};
  std::vector<int> profile(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    profile[static_cast<std::size_t>(i)] = kWindows[i % k];
  }
  return profile;
}

// Median ns of `reps` timed calls of fn() (each called once per sample).
template <class Fn>
double median_ns(int reps, Fn&& fn) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    const auto t1 = Clock::now();
    samples.push_back(static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count()));
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

struct Point {
  int n = 0;
  int k = 0;
  double full_ns = 0.0;
  double collapsed_ns = 0.0;
  double speedup = 0.0;
  double max_abs_delta = 0.0;
  bool both_converged = false;
};

Point measure(int n, int k, int reps) {
  const std::vector<int> profile = class_mixed_profile(n, k);
  Point p;
  p.n = n;
  p.k = k;

  analytical::TrySolveResult full;
  analytical::TrySolveResult collapsed;
  p.full_ns = median_ns(reps, [&] {
    full = analytical::try_solve_network_full(profile, 6);
  });
  p.collapsed_ns = median_ns(reps, [&] {
    collapsed = analytical::try_solve_network(profile, 6);
  });
  p.speedup = p.collapsed_ns > 0.0 ? p.full_ns / p.collapsed_ns : 0.0;
  p.both_converged = full.state.converged && collapsed.state.converged;
  for (std::size_t i = 0; i < profile.size(); ++i) {
    p.max_abs_delta = std::max(
        p.max_abs_delta, std::abs(full.state.tau[i] - collapsed.state.tau[i]));
    p.max_abs_delta = std::max(
        p.max_abs_delta, std::abs(full.state.p[i] - collapsed.state.p[i]));
  }
  return p;
}

struct ThroughputPoint {
  int batch = 0;
  double cold_ns = 0.0;  ///< amortized ns per solve, distinct profiles
  double warm_ns = 0.0;  ///< amortized ns per solve, self-seeded re-solves
};

/// `count` distinct (n = 50, k = 3-ish) instances: each perturbs a
/// different window of the base mix, so a cold batch really solves
/// `count` different class systems.
std::vector<analytical::ClassProfileInstance> cold_batch(int count) {
  const std::vector<int> base = class_mixed_profile(50, 3);
  std::vector<analytical::ClassProfileInstance> instances(
      static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    std::vector<int> profile = base;
    profile[static_cast<std::size_t>(i) % profile.size()] += 1 + i % 97;
    instances[static_cast<std::size_t>(i)].classes =
        analytical::classify_profile(profile);
    instances[static_cast<std::size_t>(i)].max_stage = 6;
  }
  return instances;
}

/// `count` re-solves of one profile, each seeded with its own solution —
/// the repeated-game stage pattern the warm rung exists for.
std::vector<analytical::ClassProfileInstance> warm_batch(int count) {
  analytical::ClassProfileInstance proto;
  proto.classes = analytical::classify_profile(class_mixed_profile(50, 3));
  proto.max_stage = 6;
  const analytical::TrySolveResult solved = analytical::try_solve_classes(
      proto.classes, proto.max_stage, proto.opts, proto.packet_error_rate);
  proto.opts.initial_tau = solved.state.tau;
  return std::vector<analytical::ClassProfileInstance>(
      static_cast<std::size_t>(count), proto);
}

ThroughputPoint measure_throughput(int batch) {
  // Large batches amortize per-call noise themselves; fewer reps keep the
  // bench fast without hurting the median.
  const int reps = batch >= 256 ? 11 : 31;
  ThroughputPoint point;
  point.batch = batch;
  {
    const auto instances = cold_batch(batch);
    point.cold_ns =
        median_ns(reps, [&] {
          (void)analytical::try_solve_classes_batch(instances);
        }) /
        batch;
  }
  {
    const auto instances = warm_batch(batch);
    point.warm_ns =
        median_ns(reps, [&] {
          (void)analytical::try_solve_classes_batch(instances);
        }) /
        batch;
  }
  return point;
}

double solves_per_sec(double ns_per_solve) {
  return ns_per_solve > 0.0 ? 1e9 / ns_per_solve : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string path = argc > 1 ? argv[1] : "BENCH_solver.json";
  const int reps = 31;  // odd: the median is a real sample

  std::vector<Point> points;
  for (int k : {1, 2, 3, 6}) {
    for (int n : {5, 20, 50, 100, 200}) {
      if (k > n) continue;
      points.push_back(measure(n, k, reps));
    }
  }

  // Cold vs warm on a (50, 3) profile, two access patterns:
  //   * same-profile re-solve seeded with its own solution — the repeated-
  //     game stage pattern (what the SolverService cache also
  //     short-circuits);
  //   * a one-node-nudged neighbor seeded with the unperturbed solution —
  //     the best-response ternary-search pattern. The damped iteration
  //     contracts linearly, so a nearby start saves only O(log) iterations
  //     here; the same-profile case converges almost immediately.
  const std::vector<int> profile = class_mixed_profile(50, 3);
  std::vector<int> nudged = profile;
  nudged[0] = profile[0] + 8;
  const analytical::TrySolveResult base =
      analytical::try_solve_network(profile, 6);
  analytical::SolverOptions warm_opts;
  warm_opts.initial_tau = base.state.tau;
  const double cold_ns = median_ns(reps, [&] {
    (void)analytical::try_solve_network(nudged, 6);
  });
  const double warm_ns = median_ns(reps, [&] {
    (void)analytical::try_solve_network(nudged, 6, warm_opts);
  });
  const double cold_same_ns = median_ns(reps, [&] {
    (void)analytical::try_solve_network(profile, 6);
  });
  const double warm_same_ns = median_ns(reps, [&] {
    (void)analytical::try_solve_network(profile, 6, warm_opts);
  });

  // Batch-kernel throughput trajectory (amortized ns/solve), plus one
  // SolverService drain: 1024 requests over 512 distinct profiles — the
  // dedup-then-batch path a tournament prefetch takes. A fresh service
  // per sample keeps every drain cold.
  std::vector<ThroughputPoint> throughput;
  for (const int batch : {1, 16, 256, 4096}) {
    throughput.push_back(measure_throughput(batch));
  }
  const int service_requests = 1024;
  const int service_distinct = 512;
  const auto service_instances = cold_batch(service_distinct);
  const double service_ns =
      median_ns(11, [&] {
        analytical::SolverService service;
        for (int r = 0; r < service_requests; ++r) {
          (void)service.submit(
              service_instances[static_cast<std::size_t>(r % service_distinct)]
                  .classes,
              6, 0.0);
        }
        service.drain();
      }) /
      service_requests;

  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"benchmark\": \"heterogeneous solver, collapsed vs "
                    "full kernel\",\n");
  std::fprintf(out, "  \"unit\": \"median ns/solve over %d samples\",\n",
               reps);
  std::fprintf(out, "  \"points\": [\n");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    std::fprintf(out,
                 "    {\"n\": %d, \"k\": %d, \"full_ns\": %.0f, "
                 "\"collapsed_ns\": %.0f, \"speedup\": %.2f, "
                 "\"max_abs_delta\": %.3g, \"both_converged\": %s}%s\n",
                 p.n, p.k, p.full_ns, p.collapsed_ns, p.speedup,
                 p.max_abs_delta, p.both_converged ? "true" : "false",
                 i + 1 < points.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out,
               "  \"warm_start\": {\"n\": 50, \"k\": 3,\n"
               "    \"neighbor\": {\"cold_ns\": %.0f, \"warm_ns\": %.0f, "
               "\"speedup\": %.2f},\n"
               "    \"same_profile\": {\"cold_ns\": %.0f, \"warm_ns\": %.0f, "
               "\"speedup\": %.2f}}\n",
               cold_ns, warm_ns, warm_ns > 0.0 ? cold_ns / warm_ns : 0.0,
               cold_same_ns, warm_same_ns,
               warm_same_ns > 0.0 ? cold_same_ns / warm_same_ns : 0.0);
  std::fprintf(out, "  ,\"throughput\": {\n");
  std::fprintf(out,
               "    \"unit\": \"amortized ns/solve and solves/sec over the "
               "batch\",\n");
  std::fprintf(out,
               "    \"baseline_warm_single_ns\": %.0f,\n", warm_same_ns);
  std::fprintf(out, "    \"batch\": [\n");
  for (std::size_t i = 0; i < throughput.size(); ++i) {
    const ThroughputPoint& t = throughput[i];
    std::fprintf(out,
                 "      {\"batch\": %d, \"cold_ns\": %.0f, "
                 "\"cold_solves_per_sec\": %.0f, \"warm_ns\": %.0f, "
                 "\"warm_solves_per_sec\": %.0f}%s\n",
                 t.batch, t.cold_ns, solves_per_sec(t.cold_ns), t.warm_ns,
                 solves_per_sec(t.warm_ns),
                 i + 1 < throughput.size() ? "," : "");
  }
  std::fprintf(out, "    ],\n");
  std::fprintf(out,
               "    \"service\": {\"requests\": %d, \"distinct\": %d, "
               "\"ns_per_request\": %.0f, \"requests_per_sec\": %.0f}\n",
               service_requests, service_distinct, service_ns,
               solves_per_sec(service_ns));
  std::fprintf(out, "  }\n");
  std::fprintf(out, "}\n");
  std::fclose(out);

  // Mirror to stdout so CI logs capture the trajectory without artifacts.
  std::printf("%-5s %-3s %12s %14s %9s %14s\n", "n", "k", "full ns",
              "collapsed ns", "speedup", "max |delta|");
  for (const Point& p : points) {
    std::printf("%-5d %-3d %12.0f %14.0f %8.2fx %14.3g%s\n", p.n, p.k,
                p.full_ns, p.collapsed_ns, p.speedup, p.max_abs_delta,
                p.both_converged ? "" : "  (non-converged)");
  }
  std::printf("warm start (n=50, k=3): neighbor cold %.0f ns, warm %.0f ns "
              "(%.2fx); same-profile cold %.0f ns, warm %.0f ns (%.2fx)\n",
              cold_ns, warm_ns, warm_ns > 0.0 ? cold_ns / warm_ns : 0.0,
              cold_same_ns, warm_same_ns,
              warm_same_ns > 0.0 ? cold_same_ns / warm_same_ns : 0.0);
  std::printf("batch throughput (n=50, k=3; amortized ns/solve):\n");
  std::printf("%-7s %12s %18s %12s %18s\n", "batch", "cold ns", "cold solves/s",
              "warm ns", "warm solves/s");
  for (const ThroughputPoint& t : throughput) {
    std::printf("%-7d %12.0f %18.0f %12.0f %18.0f\n", t.batch, t.cold_ns,
                solves_per_sec(t.cold_ns), t.warm_ns,
                solves_per_sec(t.warm_ns));
  }
  std::printf("service drain: %d requests (%d distinct) at %.0f ns/request "
              "(%.0f requests/s)\n",
              service_requests, service_distinct, service_ns,
              solves_per_sec(service_ns));
  std::printf("wrote %s\n", path.c_str());
  return 0;
}
