// Shared helpers for the experiment harnesses.
#pragma once

#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "parallel/replication.hpp"
#include "parallel/thread_pool.hpp"

namespace smac::bench {

inline void print_header(const std::string& experiment,
                         const std::string& paper_ref,
                         const std::string& description) {
  std::printf("================================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("Reproduces: %s\n", paper_ref.c_str());
  std::printf("%s\n", description.c_str());
  std::printf("================================================================\n\n");
}

/// Worker count for replication fan-out: `--jobs N` / `--jobs=N` on the
/// command line wins, then the SMAC_JOBS environment variable, then
/// hardware concurrency (both via ThreadPool::default_jobs()). Returns at
/// least 1; malformed values fall through to the default. Results are
/// seed-determined and independent of this knob — it only changes
/// wall-clock time.
inline std::size_t jobs_option(int argc, const char* const* argv) {
  auto parse = [](const char* text) -> std::size_t {
    char* end = nullptr;
    const long v = std::strtol(text, &end, 10);
    return (end != text && *end == '\0' && v > 0)
               ? static_cast<std::size_t>(v)
               : 0;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--jobs=", 0) == 0) {
      if (const std::size_t v = parse(arg.c_str() + 7)) return v;
    } else if (arg == "--jobs" && i + 1 < argc) {
      if (const std::size_t v = parse(argv[i + 1])) return v;
    }
  }
  return parallel::ThreadPool::default_jobs();
}

inline void print_jobs(std::size_t jobs) {
  std::printf("replication jobs = %zu (override: --jobs N or SMAC_JOBS; "
              "results are seed-determined, independent of jobs)\n\n",
              jobs);
}

/// Sequential-stopping knobs for replicated experiments:
///   --ci-target X   stop once the watched metric's CI half-width <= X
///                   (0, the default, keeps the bench's fixed N)
///   --ci-rel X      stop once half-width <= X · |running mean| — scale-
///                   free, composes across metrics whose magnitudes differ
///                   by orders; with both knobs, either target stops
///   --max-reps N    replication budget cap (0 = keep the bench default)
/// Parsed into a parallel::StoppingRule template whose metric and
/// batch_size the bench chooses per table. Stop points are
/// seed-determined and jobs-invariant (src/parallel/replication.hpp).
inline parallel::StoppingRule stopping_option(int argc,
                                              const char* const* argv) {
  auto parse_double = [](const char* text) -> double {
    char* end = nullptr;
    const double v = std::strtod(text, &end);
    return (end != text && *end == '\0' && v > 0.0) ? v : 0.0;
  };
  auto parse_size = [](const char* text) -> std::size_t {
    char* end = nullptr;
    const long v = std::strtol(text, &end, 10);
    return (end != text && *end == '\0' && v > 0)
               ? static_cast<std::size_t>(v)
               : 0;
  };
  parallel::StoppingRule rule;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--ci-target=", 0) == 0) {
      rule.ci_half_width_target = parse_double(arg.c_str() + 12);
    } else if (arg == "--ci-target" && i + 1 < argc) {
      rule.ci_half_width_target = parse_double(argv[i + 1]);
    } else if (arg.rfind("--ci-rel=", 0) == 0) {
      rule.ci_rel_target = parse_double(arg.c_str() + 9);
    } else if (arg == "--ci-rel" && i + 1 < argc) {
      rule.ci_rel_target = parse_double(argv[i + 1]);
    } else if (arg.rfind("--max-reps=", 0) == 0) {
      rule.max_reps = parse_size(arg.c_str() + 11);
    } else if (arg == "--max-reps" && i + 1 < argc) {
      rule.max_reps = parse_size(argv[i + 1]);
    }
  }
  return rule;
}

/// Applies a bench's per-table defaults to the user's CLI rule: the
/// watched metric and batch size always come from the bench; max_reps
/// stays at `default_reps` unless --max-reps overrode it.
inline parallel::StoppingRule resolve_stopping(parallel::StoppingRule rule,
                                               const std::string& metric,
                                               std::size_t default_reps,
                                               std::size_t batch_size = 0) {
  rule.metric = metric;
  if (rule.max_reps == 0) rule.max_reps = default_reps;
  if (batch_size != 0) rule.batch_size = batch_size;
  return rule;
}

/// One line describing how a replicated table was stopped — only worth
/// printing when a --ci-target is active (fixed-N runs stay byte-stable
/// without it).
inline void print_stopping(const parallel::StoppingReport& report) {
  std::printf("%s\n", report.summary().c_str());
}

}  // namespace smac::bench
