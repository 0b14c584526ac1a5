#include "sim/adaptive_runtime.hpp"

#include <map>
#include <stdexcept>

#include "game/convergence.hpp"
#include "sim/cw_estimator.hpp"
#include "sim/misbehavior_detector.hpp"

namespace smac::sim {

namespace {

std::vector<int> initial_profile(
    const std::vector<std::unique_ptr<game::Strategy>>& strategies) {
  if (strategies.empty()) {
    throw std::invalid_argument("AdaptiveRuntime: no strategies");
  }
  std::vector<int> cw;
  cw.reserve(strategies.size());
  for (const auto& s : strategies) {
    if (!s) throw std::invalid_argument("AdaptiveRuntime: null strategy");
    cw.push_back(s->initial_cw());
  }
  return cw;
}

std::vector<std::unique_ptr<game::Strategy>> build_strategies(
    std::size_t n, const AdaptiveRuntime::StrategyFactory& make_strategy,
    const AdaptiveRuntime::EstimateFeed& estimates,
    const AdaptiveRuntime::FlagFeed& flags) {
  if (n == 0) throw std::invalid_argument("AdaptiveRuntime: n == 0");
  if (!make_strategy) {
    throw std::invalid_argument("AdaptiveRuntime: null factory");
  }
  std::vector<std::unique_ptr<game::Strategy>> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto s = make_strategy(i, estimates, flags);
    if (!s) {
      throw std::invalid_argument("AdaptiveRuntime: factory returned null");
    }
    out.push_back(std::move(s));
  }
  return out;
}

double positive_duration(double stage_duration_us) {
  if (!(stage_duration_us > 0.0)) {
    throw std::invalid_argument("AdaptiveRuntime: stage duration must be > 0");
  }
  return stage_duration_us;
}

}  // namespace

AdaptiveRuntime::AdaptiveRuntime(
    SimConfig config, std::vector<std::unique_ptr<game::Strategy>> strategies,
    std::optional<double> stage_duration_us)
    : strategies_(std::move(strategies)),
      simulator_(config, initial_profile(strategies_)),
      stage_duration_us_(positive_duration(
          stage_duration_us.value_or(config.params.stage_duration_s * 1e6))),
      discount_(config.params.discount) {}

AdaptiveRuntime::AdaptiveRuntime(SimConfig config, std::size_t n,
                                 const StrategyFactory& make_strategy,
                                 double stage_duration_us)
    : estimates_(std::make_shared<std::vector<double>>()),
      flags_(std::make_shared<std::vector<bool>>()),
      strategies_(build_strategies(n, make_strategy, estimates_, flags_)),
      simulator_(config, initial_profile(strategies_)),
      stage_duration_us_(positive_duration(stage_duration_us)),
      discount_(config.params.discount) {}

AdaptiveResult AdaptiveRuntime::play(int stages) {
  if (stages < 1) throw std::invalid_argument("AdaptiveRuntime: stages < 1");
  const std::size_t n = strategies_.size();

  AdaptiveResult result;
  result.history.reserve(static_cast<std::size_t>(stages));
  result.discounted_utility.assign(n, 0.0);
  result.total_utility.assign(n, 0.0);

  double discount_k = 1.0;
  for (int k = 0; k < stages; ++k) {
    game::StageRecord record;
    record.cw.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      record.cw[i] = k == 0 ? strategies_[i]->initial_cw()
                            : strategies_[i]->decide(result.history, i);
    }
    // Only touch nodes whose window actually changes: set_cw restarts the
    // backoff, and a stable profile should keep its chain state.
    for (std::size_t i = 0; i < n; ++i) {
      if (simulator_.cw(i) != record.cw[i]) simulator_.set_cw(i, record.cw[i]);
    }

    const SimResult stage = simulator_.run_for(stage_duration_us_);
    record.utility.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      // Measured stage payoff: rate × realized stage length.
      record.utility[i] = stage.payoff_rate[i] * stage.elapsed_us;
      result.discounted_utility[i] += discount_k * record.utility[i];
      result.total_utility[i] += record.utility[i];
    }
    discount_k *= discount_;
    if (estimates_) refresh_feeds(stage, record.cw, result);
    result.history.push_back(std::move(record));
  }

  const game::ConvergenceFacts facts = game::convergence_facts(result.history);
  result.converged_cw = facts.converged_cw;
  result.stable_from = facts.stable_from;
  return result;
}

void AdaptiveRuntime::refresh_feeds(const SimResult& stage,
                                    const std::vector<int>& profile,
                                    AdaptiveResult& result) {
  const std::size_t n = profile.size();
  const int max_stage = simulator_.config().params.max_backoff_stage;
  const std::vector<CwEstimate> estimates = estimate_windows(stage, max_stage);
  estimates_->resize(n);
  for (std::size_t i = 0; i < n; ++i) (*estimates_)[i] = estimates[i].w_hat;
  result.estimates_per_stage.push_back(*estimates_);

  // The modal window of the profile just played is the de-facto agreement
  // the detector checks compliance against (ties: the smallest window).
  std::map<int, int> histogram;
  for (int w : profile) ++histogram[w];
  int modal_w = profile.front();
  int modal_count = 0;
  for (const auto& [w, count] : histogram) {
    if (count > modal_count) {
      modal_count = count;
      modal_w = w;
    }
  }
  const auto verdicts = detect_misbehavior(stage, modal_w, max_stage);
  flags_->resize(n);
  for (std::size_t i = 0; i < n; ++i) (*flags_)[i] = verdicts[i].flagged;
  result.flags_per_stage.push_back(*flags_);
}

}  // namespace smac::sim
