// Parallel Monte-Carlo replication with deterministic per-stream seeding.
//
// Determinism contract (load-bearing; tests/parallel enforce it):
//
//   1. Replication r of an experiment with base seed B is seeded with
//      stream_seed(B, r) — a SplitMix64 mix of (B, r). The seed depends
//      only on (B, r), never on thread count, scheduling, or the order in
//      which replications happen to start.
//   2. Every replication owns all of its mutable state: its own
//      simulator(s), its own util::Rng(s) constructed from its stream
//      seed. No util::Rng — and no object holding one — may be shared
//      across threads; Rng is deliberately unsynchronized, and a shared
//      stream would make draw interleaving (hence results) depend on the
//      scheduler.
//   3. Results are stored in a slot indexed by the replication and
//      reduced in index order 0..N−1. Aggregation (util::RunningStats and
//      plain loops alike) is therefore a fixed sequence of floating-point
//      operations.
//
// (1)+(2) make each replication's output a pure function of (B, r);
// (3) makes the aggregate a pure function of the per-replication outputs.
// Together: bit-identical results for jobs=1 and jobs=N, any N.
//
// Sequential stopping (run_sequential) extends the contract: batches are
// fixed runs of consecutive indices, the stop criterion is evaluated on
// the index-ordered aggregate at batch boundaries only, and seeds stay
// stream_seed(B, r) — so the stop point is jobs-invariant and a stopped
// run's first k replications are bit-identical to a fixed-N run's.
// Reduction is streaming: rows fold into util::RunningStats as each batch
// completes (O(batch) memory), with the same flop sequence as buffering
// all rows and calling util::summarize_replications.
//
// SplitMix64 (rather than Rng::jump()) derives the streams because it is
// O(1) random access — replication 999 does not require stepping through
// the first 998 streams — and because feeding its output to Rng's own
// SplitMix64 seed expansion yields well-separated xoshiro256** states
// even for adjacent indices.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace smac::parallel {

/// Seed of replication `index` in the family rooted at `base_seed`.
/// Pure function of its arguments; distinct indices give statistically
/// independent Rng streams (SplitMix64 is a bijective mix with good
/// avalanche, and Rng re-expands the result through SplitMix64 again).
std::uint64_t stream_seed(std::uint64_t base_seed,
                          std::uint64_t index) noexcept;

/// Convenience: an Rng already seeded for replication `index`.
util::Rng stream_rng(std::uint64_t base_seed, std::uint64_t index) noexcept;

/// How to fan a batch of replications across cores.
struct ReplicationPlan {
  std::size_t replications = 1;
  std::uint64_t base_seed = 1;
  /// Worker threads; 1 runs inline on the caller, 0 means
  /// ThreadPool::default_jobs() (SMAC_JOBS env or hardware concurrency).
  std::size_t jobs = 1;
};

/// Sequential-stopping policy: replicate in deterministic batches until
/// the watched metric's kStoppingConfidence interval half-width falls
/// below target or max_reps is exhausted (never before two samples).
/// Stream seeds are unchanged — the first k replications of a stopped run
/// are bit-identical to a fixed-N run of the same base seed — and the stop
/// decision is a pure function of the index-ordered aggregate, so the stop
/// point is identical at any jobs count.
struct StoppingRule {
  /// Watched metric name; empty selects the first metric.
  std::string metric;
  /// Absolute CI half-width to reach. <= 0 disables the absolute
  /// criterion; with no relative target either, the run becomes a fixed-N
  /// streaming reduction over max_reps.
  double ci_half_width_target = 0.0;
  /// Relative CI target: stop once half-width <= ci_rel_target · |running
  /// mean| of the watched metric. Composes across metrics whose scales
  /// differ by orders of magnitude (payoff rates ~1e-6 vs fractions ~1),
  /// where one absolute width cannot. <= 0 disables it; when both targets
  /// are armed, meeting *either* stops the run. A running mean of exactly
  /// zero can only satisfy the relative criterion with a zero half-width.
  double ci_rel_target = 0.0;
  /// Hard replication ceiling; 0 falls back to plan.replications.
  std::size_t max_reps = 0;
  /// Replications per batch (the stop criterion is evaluated at batch
  /// boundaries, and at most this many rows are buffered at once);
  /// 0 = kDefaultStoppingBatch.
  std::size_t batch_size = 0;
};

/// Batch size used when StoppingRule::batch_size is 0.
inline constexpr std::size_t kDefaultStoppingBatch = 32;

/// Two-sided confidence level of every watched interval.
inline constexpr double kStoppingConfidence = 0.95;

/// Why a sequential run stopped.
enum class StopReason {
  kCiTarget,  ///< watched half-width reached the target
  kMaxReps,   ///< replication ceiling hit (or early stopping disabled)
};

const char* to_string(StopReason reason) noexcept;

/// What a sequential (or streamed fixed-N) run actually did.
struct StoppingReport {
  std::size_t replications = 0;  ///< replication indices executed
  std::size_t samples = 0;       ///< rows aggregated
  std::size_t metric_index = 0;  ///< index of the watched metric
  std::string metric;            ///< name of the watched metric
  double achieved_half_width = 0.0;  ///< watched CI half-width at stop
  double target_half_width = 0.0;    ///< absolute target (0 = unarmed)
  double target_rel_half_width = 0.0;  ///< relative target (0 = unarmed)
  double watched_mean = 0.0;  ///< running mean of the watched metric
  StopReason reason = StopReason::kMaxReps;

  /// Achieved half-width relative to |mean| (infinity at mean 0).
  double achieved_rel_half_width() const noexcept {
    return watched_mean != 0.0
               ? achieved_half_width / std::abs(watched_mean)
               : std::numeric_limits<double>::infinity();
  }

  /// True when early stopping was armed and either target was reached.
  bool target_met() const noexcept {
    const bool abs_met = target_half_width > 0.0 &&
                         achieved_half_width <= target_half_width;
    const bool rel_met =
        target_rel_half_width > 0.0 &&
        achieved_half_width <= target_rel_half_width * std::abs(watched_mean);
    return abs_met || rel_met;
  }
  /// One-line human-readable account (benches print this verbatim, so it
  /// contains nothing scheduling-dependent).
  std::string summary() const;
};

/// Summary of one replicated experiment whose replications each produce a
/// row of named metrics — the one result type of every replicated entry
/// point (sim::run_replicated, multihop::run_replicated,
/// game::Tournament::play_mix_replicated). Rows are *not* retained: they
/// are reduced into per-metric running statistics as batches complete, so
/// a 10^4-replication study holds at most one batch of rows in memory.
struct ReplicationSummary {
  std::vector<std::string> metric_names;
  /// Across-replication mean / stddev / 95% CI / extrema per metric,
  /// aggregated in index order.
  std::vector<util::MetricSummary> metrics;
  /// Replications executed, achieved precision, and the stop reason.
  StoppingReport stopping;
  /// Largest number of result rows held in memory at any instant —
  /// bounded by the batch size, never by the replication count.
  std::size_t peak_buffered_rows = 0;
};

namespace detail {

/// StoppingRule with defaults resolved and inputs validated (throws
/// std::invalid_argument on unknown metric or bad targets).
struct ResolvedStoppingRule {
  std::size_t watched = 0;
  std::size_t max_reps = 1;
  std::size_t batch = kDefaultStoppingBatch;
  double target = 0.0;
  double rel = 0.0;
  double z = 0.0;  ///< normal quantile of (1 + kStoppingConfidence) / 2
};

ResolvedStoppingRule resolve_stopping_rule(
    const StoppingRule& rule, const std::vector<std::string>& metric_names,
    std::size_t plan_replications);

}  // namespace detail

/// Fans N independent replications of a callable experiment across a
/// thread pool, honoring the determinism contract above.
class ReplicationRunner {
 public:
  explicit ReplicationRunner(ReplicationPlan plan);

  const ReplicationPlan& plan() const noexcept { return plan_; }

  /// Runs fn(seed, index) for index in [0, replications) through
  /// parallel::for_each_index and returns the results in index order
  /// regardless of scheduling. The result type must be
  /// default-constructible. fn is invoked concurrently for distinct
  /// indices when plan().jobs > 1; at jobs 1 everything runs inline on
  /// the calling thread. A throwing replication propagates the exception
  /// of the lowest failing index at any jobs value; remaining indices may
  /// never run.
  template <class Fn>
  auto run(Fn&& fn) const
      -> std::vector<std::invoke_result_t<Fn&, std::uint64_t, std::size_t>> {
    std::vector<std::invoke_result_t<Fn&, std::uint64_t, std::size_t>>
        results(plan_.replications);
    for_each_index(plan_.jobs, plan_.replications, [&](std::size_t i) {
      results[i] = fn(stream_seed(plan_.base_seed, i), i);
    });
    return results;
  }

  /// Sequential-stopping replication: executes deterministic batches of
  /// fn(seed, index) — seeds are stream_seed(base, index), identical to a
  /// fixed-N run — and after each batch evaluates the watched metric's
  /// CI half-width over the index-ordered aggregate, stopping as soon as
  /// the rule's target is met or max_reps is exhausted. Because batch
  /// boundaries and the aggregate are pure functions of the replication
  /// indices, the stop point, the report, and every summary are
  /// bit-identical at any jobs value; a stopped run's k replications are
  /// exactly the first k of the fixed-N run.
  /// A default rule (no target, max_reps 0) is the fixed-N streaming
  /// reduction over plan().replications, bit-identical to buffering every
  /// row and calling util::summarize_replications. Rows are reduced on
  /// the fly: memory is O(batch size). A throwing replication propagates
  /// the exception of the lowest failing index, as run() does.
  template <class Fn>
  ReplicationSummary run_sequential(std::vector<std::string> metric_names,
                                    const StoppingRule& rule,
                                    Fn&& fn) const {
    const detail::ResolvedStoppingRule r = detail::resolve_stopping_rule(
        rule, metric_names, plan_.replications);
    ReplicationSummary out;
    std::vector<util::RunningStats> acc(metric_names.size());
    std::vector<std::vector<double>> batch_rows(r.batch);

    std::size_t executed = 0;
    StopReason reason = StopReason::kMaxReps;
    while (executed < r.max_reps) {
      const std::size_t count = std::min(r.batch, r.max_reps - executed);
      for_each_index(plan_.jobs, count, [&](std::size_t k) {
        const std::size_t index = executed + k;
        batch_rows[k] = fn(stream_seed(plan_.base_seed, index), index);
      });
      out.peak_buffered_rows = std::max(out.peak_buffered_rows, count);
      // Reduce this batch in index order, then release the rows.
      for (std::size_t k = 0; k < count; ++k) {
        const std::vector<double>& row = batch_rows[k];
        if (row.size() != metric_names.size()) {
          throw std::invalid_argument(
              "run_sequential: row width != metric count");
        }
        for (std::size_t m = 0; m < row.size(); ++m) acc[m].add(row[m]);
        batch_rows[k] = {};
      }
      executed += count;
      if ((r.target > 0.0 || r.rel > 0.0) && acc[r.watched].count() >= 2) {
        const double half_width = acc[r.watched].ci_halfwidth(r.z);
        const bool abs_met = r.target > 0.0 && half_width <= r.target;
        const bool rel_met =
            r.rel > 0.0 &&
            half_width <= r.rel * std::abs(acc[r.watched].mean());
        if (abs_met || rel_met) {
          reason = StopReason::kCiTarget;
          break;
        }
      }
    }

    out.metrics = util::summaries_from_stats(metric_names, acc);
    out.stopping.replications = executed;
    out.stopping.samples = acc[r.watched].count();
    out.stopping.metric_index = r.watched;
    out.stopping.metric = metric_names[r.watched];
    out.stopping.achieved_half_width = acc[r.watched].ci_halfwidth(r.z);
    out.stopping.target_half_width = r.target;
    out.stopping.target_rel_half_width = r.rel;
    out.stopping.watched_mean = acc[r.watched].mean();
    out.stopping.reason = reason;
    out.metric_names = std::move(metric_names);
    return out;
  }

 private:
  ReplicationPlan plan_;
};

}  // namespace smac::parallel
