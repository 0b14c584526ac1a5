// Ablation — TFT on *estimated* contention windows (paper §IV + ref [3]).
//
// The paper assumes perfect CW observation ("how to observe CW values in
// saturated networks is addressed in [3]"). This harness quantifies what
// real estimation costs: window-estimate accuracy versus observation
// length, and the stability of TFT vs Generous-TFT when driven by those
// estimates (the estimating-TFT min-rule ratchets downward under noise;
// GTFT's tolerance band is the fix — the practical argument for GTFT the
// paper only sketches).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "sim/adaptive_runtime.hpp"
#include "sim/cw_estimator.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {
using namespace smac;
}  // namespace

int main(int argc, char** argv) {
  bench::print_header(
      "CW estimation accuracy and estimate-driven TFT stability",
      "paper §IV observation assumption (Kyasanur & Vaidya [3])",
      "Basic access, n = 5, true common window 64.");
  const std::size_t jobs = bench::jobs_option(argc, argv);
  bench::print_jobs(jobs);

  const int w = 64;

  // Sweep points are self-contained experiments with fixed seeds, fanned
  // across --jobs into per-index row slots and printed in sweep order —
  // byte-identical output for any jobs value.

  // 1. Estimation error vs observation length.
  util::TextTable acc({"observed slots", "mean |W_hat - W|/W %",
                       "attempts per node"});
  const std::vector<std::uint64_t> slot_lengths{2000, 10000, 50000, 250000,
                                                1000000};
  std::vector<std::vector<std::string>> acc_rows(slot_lengths.size());
  parallel::for_each_index(jobs, slot_lengths.size(), [&](std::size_t k) {
    const std::uint64_t slots = slot_lengths[k];
    util::RunningStats err;
    util::RunningStats attempts;
    for (std::uint64_t seed = 0; seed < 6; ++seed) {
      sim::SimConfig config;
      config.seed = 100 + seed;
      sim::Simulator simulator(config, std::vector<int>(5, w));
      const auto est = sim::estimate_windows(simulator.run_slots(slots), 6);
      for (const auto& e : est) {
        err.add(std::abs(e.w_hat - w) / w * 100.0);
        attempts.add(static_cast<double>(e.attempts));
      }
    }
    acc_rows[k] = {std::to_string(slots), util::fmt_double(err.mean(), 2),
                   util::fmt_double(attempts.mean(), 0)};
  });
  for (auto& row : acc_rows) acc.add_row(std::move(row));
  std::printf("%s\n", acc.to_string().c_str());

  // 2. Estimate-driven TFT vs GTFT across stage lengths.
  util::TextTable stab({"stage (s)", "strategy", "final min W",
                        "drift from 64 %"});
  const std::vector<double> stage_lengths{0.3, 1.0, 4.0};
  std::vector<std::vector<std::string>> stab_rows(2 * stage_lengths.size());
  parallel::for_each_index(jobs, stab_rows.size(), [&](std::size_t k) {
    const double stage_s = stage_lengths[k / 2];
    const bool gtft = (k % 2) == 1;
    sim::AdaptiveRuntime runtime(
        sim::SimConfig{}, 5,
        [&](std::size_t, auto feed, auto) -> std::unique_ptr<game::Strategy> {
          if (gtft) {
            return std::make_unique<sim::EstimatingGtft>(w, 0.75, 3, feed);
          }
          return std::make_unique<sim::EstimatingTitForTat>(w, feed);
        },
        stage_s * 1e6);
    const auto result = runtime.play(12);
    int min_cw = w;
    for (int cw : result.history.back().cw) min_cw = std::min(min_cw, cw);
    stab_rows[k] = {util::fmt_double(stage_s, 1),
                    gtft ? "gtft(0.75,3)" : "tft", std::to_string(min_cw),
                    util::fmt_double((w - min_cw) * 100.0 / w, 1)};
  });
  for (auto& row : stab_rows) stab.add_row(std::move(row));
  std::printf("%s\n", stab.to_string().c_str());
  std::printf(
      "Expectation: estimation error decays roughly as 1/sqrt(attempts);\n"
      "estimate-driven plain TFT drifts below the configured window at\n"
      "short stages (each noisy under-estimate gets matched and never\n"
      "undone) while GTFT's beta-band holds the line — the quantitative\n"
      "case for the paper's 'more tolerant version of TFT'.\n");
  return 0;
}
