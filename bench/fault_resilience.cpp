// Fault resilience: equilibrium recovery under churn and bursty loss.
//
// The paper's repeated-game results assume a clean network: nobody
// crashes, the channel loses packets i.i.d., and every window observation
// arrives intact. This harness stress-tests that machinery with the
// fault-injection subsystem (src/fault): a churn × burst-loss grid where
// each cell plays a GTFT population for 120 stages with a scripted crash
// (stage 30) and rejoin (stage 60) of one player, random churn on top,
// a Gilbert–Elliott bursty channel layered on the PER, and 10% lossy
// window observations. Reported per cell: the window the population ends
// on, the stage the profile stabilized from, the recovery time after the
// last topology fault, and the DegradationReport (crashes/joins, lost and
// noisy observations, degraded/failed stage solves).
//
// Every cell is a self-contained deterministic experiment with a fixed
// per-cell seed, fanned across --jobs workers and reduced in grid order —
// stdout is byte-identical for any jobs value (the acceptance check runs
// this binary at --jobs 1 and --jobs 4 and diffs the output, so nothing
// here may print the job count).
#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "fault/degradation.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "game/equilibrium.hpp"
#include "game/forgiveness_grid.hpp"
#include "game/observation_filter.hpp"
#include "game/repeated_game.hpp"
#include "game/stage_game.hpp"
#include "parallel/replication.hpp"
#include "sim/simulator.hpp"
#include "util/table.hpp"

namespace {

using namespace smac;

constexpr int kPlayers = 6;
constexpr int kStages = 120;
constexpr std::uint64_t kBaseSeed = 0xfa57;

struct Cell {
  double churn = 0.0;
  double per_bad = 0.0;
  std::optional<int> converged_cw;
  int stable_from = 0;
  int recovery_stages = 0;
  fault::DegradationReport report;
};

Cell run_cell(const game::StageGame& game, int w_coop, double churn,
              double per_bad, double obs_noise, std::uint64_t seed,
              bool gtft) {
  fault::FaultPlan plan;
  plan.scripted.push_back({30, 0, fault::FaultKind::kCrash});
  plan.scripted.push_back({60, 0, fault::FaultKind::kJoin});
  plan.churn.crash_rate = churn;
  plan.churn.recover_rate = churn > 0.0 ? 0.25 : 0.0;
  plan.channel.p_good_to_bad = per_bad > 0.0 ? 0.08 : 0.0;
  plan.channel.p_bad_to_good = 0.25;
  plan.channel.per_bad = per_bad;
  // Observation *loss* (stale beliefs) is recoverable and always on in
  // the grid; observation *noise* (false low reads) is the absorbing
  // ratchet shown separately in the contrast section.
  plan.observation.loss_probability = 0.10;
  plan.observation.noise_probability = obs_noise;
  plan.observation.noise_magnitude = 4;

  fault::FaultInjector injector(plan, kPlayers, seed);
  game::RepeatedGameEngine engine(
      game, gtft ? game::make_gtft_population(kPlayers, w_coop, 0.9, 3)
                 : game::make_tft_population(kPlayers, w_coop));
  const game::RepeatedGameResult result = engine.play(kStages, &injector);

  Cell cell;
  cell.churn = churn;
  cell.per_bad = per_bad;
  cell.converged_cw = result.converged_cw;
  cell.stable_from = result.stable_from;
  cell.report = result.degradation;
  // Recovery: stages from the last crash/join until the profile settled
  // for good. A grid cell with no topology fault reports its plain
  // convergence time instead.
  cell.recovery_stages =
      cell.report.last_fault_stage >= 0
          ? std::max(0, result.stable_from - cell.report.last_fault_stage)
          : result.stable_from;
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  bench::print_header(
      "Fault resilience: GTFT equilibrium recovery under churn + bursty loss",
      "robustness extension of paper §IV (no paper counterpart)",
      "6 GTFT(0.9,3) players, 120 stages, scripted crash@30/rejoin@60 of\n"
      "player 0, random churn, Gilbert-Elliott bursty PER, 10% lossy\n"
      "window observations. Deterministic per-cell seeds.");
  const std::size_t jobs = bench::jobs_option(argc, argv);
  // Deliberately no jobs line: output must be byte-identical at any --jobs.

  const phy::Parameters params = phy::Parameters::paper();
  const game::StageGame game(params, phy::AccessMode::kRtsCts);
  const game::EquilibriumFinder finder(game, kPlayers);
  const int w_coop = finder.efficient_cw();
  std::printf("cooperative window W* = %d (efficient NE, n = %d)\n\n", w_coop,
              kPlayers);

  const std::vector<double> churn_rates{0.0, 0.02, 0.05};
  const std::vector<double> burst_pers{0.0, 0.25, 0.5};
  std::vector<Cell> cells(churn_rates.size() * burst_pers.size());
  parallel::for_each_index(jobs, cells.size(), [&](std::size_t k) {
    const double churn = churn_rates[k / burst_pers.size()];
    const double per_bad = burst_pers[k % burst_pers.size()];
    cells[k] = run_cell(game, w_coop, churn, per_bad, 0.0,
                        parallel::stream_seed(kBaseSeed, k), true);
  });

  util::TextTable table({"churn", "PER_bad", "final W", "stable from",
                         "recovery (stages)", "crash/join", "lost/noisy obs",
                         "degraded/failed solves"});
  fault::DegradationReport merged;
  for (const Cell& cell : cells) {
    merged.merge(cell.report);
    table.add_row(
        {util::fmt_double(cell.churn, 2), util::fmt_double(cell.per_bad, 2),
         cell.converged_cw ? std::to_string(*cell.converged_cw) : "mixed",
         std::to_string(cell.stable_from),
         std::to_string(cell.recovery_stages),
         std::to_string(cell.report.crash_events) + "/" +
             std::to_string(cell.report.join_events),
         std::to_string(cell.report.lost_observations) + "/" +
             std::to_string(cell.report.noisy_observations),
         std::to_string(cell.report.degraded_stages) + "/" +
             std::to_string(cell.report.failed_stages)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("grid total — %s\n\n", merged.summary().c_str());

  // Contrast: add 5% *noisy* observations (false low reads) at the
  // mid-grid fault point. Min-matching retaliation makes any under-read
  // absorbing — strict TFT ratchets to W = 1 almost immediately, and even
  // GTFT's r0-stage averaging only delays the collapse, because neither
  // strategy ever forgives upward. A robustness limit of the paper's §IV
  // design, not of the implementation.
  {
    const Cell tft = run_cell(game, w_coop, 0.02, 0.25, 0.05,
                              parallel::stream_seed(kBaseSeed, 101), false);
    const Cell gtft = run_cell(game, w_coop, 0.02, 0.25, 0.05,
                               parallel::stream_seed(kBaseSeed, 101), true);
    std::printf("with 5%% noisy observations (churn 0.02, PER_bad 0.25):\n"
                "  strict TFT : final W = %s, profile last moved at stage %d\n"
                "  GTFT(0.9,3): final W = %s, profile last moved at stage %d\n"
                "  (the loss-only grid above is immune to this ratchet)\n\n",
                tft.converged_cw ? std::to_string(*tft.converged_cw).c_str()
                                 : "mixed",
                tft.stable_from,
                gtft.converged_cw ? std::to_string(*gtft.converged_cw).c_str()
                                  : "mixed",
                gtft.stable_from);
  }

  // Forgiveness grid (noise level × observation filter × reaction rule):
  // the robustness layer closing the ratchet above. Every cell plays 6
  // players of one rule for 120 stages under persistent false-low window
  // reads (plus the grid's 10% observation loss), optionally behind an
  // ObservationFilter. Cells sharing a noise level share an injector seed,
  // so rules and filters face the same fault stream; "tail mean min W"
  // (mean of the per-stage minimum window over the last 40 stages) is
  // where the population actually lives — 1.0 means ratcheted, ~W* means
  // held or recovered.
  {
    const std::vector<double> noise_levels{0.05, 0.15};
    std::vector<game::ObservationFilterConfig> filters(3);
    filters[0].kind = game::FilterKind::kNone;
    filters[1].kind = game::FilterKind::kMedian;
    filters[1].window = 5;
    filters[2].kind = game::FilterKind::kTrimmedMean;
    filters[2].window = 7;
    filters[2].trim_fraction = 0.25;
    const std::vector<game::ReactionRule> rules{
        game::ReactionRule::kTft, game::ReactionRule::kGtft,
        game::ReactionRule::kContriteTft, game::ReactionRule::kForgivingGtft};

    std::vector<game::ForgivenessCellSpec> specs;
    for (std::size_t a = 0; a < noise_levels.size(); ++a) {
      for (const auto& filter : filters) {
        for (const game::ReactionRule rule : rules) {
          game::ForgivenessCellSpec spec;
          spec.rule = rule;
          spec.filter = filter;
          spec.noise_probability = noise_levels[a];
          spec.players = kPlayers;
          spec.stages = kStages;
          spec.w_coop = w_coop;
          spec.seed = parallel::stream_seed(kBaseSeed ^ 0xf0, a);
          specs.push_back(spec);
        }
      }
    }
    std::vector<game::ForgivenessCell> grid(specs.size());
    parallel::for_each_index(jobs, specs.size(), [&](std::size_t k) {
      grid[k] = game::run_forgiveness_cell(game, specs[k]);
    });
    util::TextTable table({"noise", "filter", "strategy", "final W",
                           "final min W", "tail mean min W", "stable from",
                           "noisy obs"});
    for (std::size_t k = 0; k < specs.size(); ++k) {
      table.add_row(game::forgiveness_row(specs[k], grid[k]));
    }
    std::printf("forgiveness grid (%d players, %d stages, 10%% obs loss, "
                "noise magnitude +/-4):\n%s\n",
                kPlayers, kStages, table.to_string().c_str());
    std::printf("contrite-tft drifts back to W* after 3 clean stages "
                "(halving the gap per stage); forgiving-gtft needs its "
                "smoothed trigger low for 2 consecutive stages before "
                "punishing and relaxes upward after 2 clean ones; the "
                "median/trimmed-mean filters reject isolated false reads "
                "before either rule sees them.\n\n");
  }

  // Slot-level counterpart: the single-hop simulator under the same
  // Gilbert-Elliott chain. Fixed seed per point; throughput degrades with
  // the fraction of slots spent in the Bad state.
  {
    util::TextTable slot_table(
        {"PER_bad", "bad-state slots", "throughput", "error slots"});
    std::vector<sim::SimResult> runs(burst_pers.size());
    parallel::for_each_index(jobs, runs.size(), [&](std::size_t k) {
      sim::SimConfig config;
      config.mode = phy::AccessMode::kRtsCts;
      config.seed = parallel::stream_seed(kBaseSeed ^ 0x51a7, k);
      config.faults.channel.p_good_to_bad = burst_pers[k] > 0.0 ? 0.02 : 0.0;
      config.faults.channel.p_bad_to_good = 0.10;
      config.faults.channel.per_bad = burst_pers[k];
      sim::Simulator simulator(config, std::vector<int>(kPlayers, w_coop));
      runs[k] = simulator.run_slots(120000);
    });
    for (std::size_t k = 0; k < runs.size(); ++k) {
      const sim::SimResult& r = runs[k];
      slot_table.add_row(
          {util::fmt_double(burst_pers[k], 2),
           util::fmt_percent(static_cast<double>(r.bad_state_slots) /
                                 static_cast<double>(r.slots),
                             1),
           util::fmt_double(r.throughput, 4),
           std::to_string(r.error_slots)});
    }
    std::printf("slot-level Gilbert-Elliott (6 nodes at W*, 120k slots):\n%s\n",
                slot_table.to_string().c_str());
  }

  // Replicated mid-grid cell under sequential stopping: the same faulted
  // GTFT game across independent fault trajectories, streamed until the
  // recovery-time CI half-width meets --ci-target (or the --max-reps
  // budget, default 6, in batches of 3, runs out). Stop points are
  // seed-determined and jobs-invariant, so this section stays
  // byte-identical at any --jobs too.
  {
    const parallel::StoppingRule rule = bench::resolve_stopping(
        bench::stopping_option(argc, argv), "recovery stages", 6, 3);
    const parallel::ReplicationRunner runner(
        {rule.max_reps, kBaseSeed ^ 0x5eedULL, jobs});
    const auto summary = runner.run_sequential(
        {"final W", "stable from", "recovery stages"}, rule,
        [&](std::uint64_t seed, std::size_t /*index*/) {
          const Cell cell = run_cell(game, w_coop, 0.02, 0.25, 0.0, seed,
                                     true);
          return std::vector<double>{
              static_cast<double>(cell.converged_cw.value_or(-1)),
              static_cast<double>(cell.stable_from),
              static_cast<double>(cell.recovery_stages)};
        });
    std::printf("replicated mid-grid cell (churn 0.02, PER_bad 0.25, "
                "override: --ci-target X, --ci-rel X, --max-reps N):\n%s\n%s\n",
                summary.stopping.summary().c_str(),
                util::format_metric_summaries(summary.metrics).c_str());
  }

  std::printf(
      "Expectation: every grid cell holds (or quickly returns to) W*\n"
      "despite the crash/rejoin, churn, bursty loss, and stale (lost)\n"
      "observations — recovery of a handful of stages at most. Noisy\n"
      "observations ratchet plain TFT/GTFT to W = 1 (the contrast rows),\n"
      "but the forgiveness grid shows the fix: contrite-tft and\n"
      "forgiving-gtft live at or near W* under the same noise (tail mean\n"
      "min W ~ W*), and an observation filter alone already rescues the\n"
      "plain rules from isolated false reads. Bursty loss raises the\n"
      "effective PER during Bad episodes but never aborts a run: failed\n"
      "stage solves (if any) reuse the last converged payoffs and are\n"
      "accounted in the DegradationReport, never thrown.\n");
  return 0;
}
