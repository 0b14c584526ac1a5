#include "sim/online_detector.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "analytical/fixed_point_solver.hpp"

namespace smac::sim {

const char* to_string(DetectStatus status) noexcept {
  switch (status) {
    case DetectStatus::kOk:
      return "ok";
    case DetectStatus::kInvalidInput:
      return "invalid-input";
  }
  return "unknown";
}

namespace {

// Rates this close to 0 or 1 make 1 − rate collapse in double precision
// (infinite Wald thresholds) — rejected by valid() instead of propagated.
constexpr double kRateEps = 1e-12;

bool open_unit(double x) noexcept {
  return x > kRateEps && x < 1.0 - kRateEps;
}

}  // namespace

bool OnlineDetectorConfig::valid() const noexcept {
  return open_unit(significance) && open_unit(miss_rate) &&
         tolerance >= 0.0 && std::isfinite(tolerance) && cheat_factor > 1.0 &&
         std::isfinite(cheat_factor) && evidence_decay >= 0.0 &&
         evidence_decay < 1.0 && slots_per_stage > 0;
}

OnlineDetector::OnlineDetector(OnlineDetectorConfig config, int w_agreed,
                               int n, int max_stage, std::size_t opponents)
    : config_(config), w_agreed_(w_agreed), n_(n), max_stage_(max_stage) {
  if (!config.valid()) {
    throw std::invalid_argument("OnlineDetector: invalid config");
  }
  if (w_agreed < 1 || n < 2 || max_stage < 0 || opponents == 0) {
    throw std::invalid_argument("OnlineDetector: bad arguments");
  }
  const auto compliant =
      analytical::try_homogeneous_tau(w_agreed, n, max_stage);
  if (!analytical::usable(compliant.diagnostics.status)) {
    throw std::invalid_argument("OnlineDetector: compliant tau unsolvable");
  }
  tau0_ = compliant.tau * (1.0 + config.tolerance);
  if (!(tau0_ > 0.0) || !(tau0_ < 1.0 - kRateEps)) {
    throw std::invalid_argument(
        "OnlineDetector: tolerated tau leaves (0,1) — tolerance too large");
  }

  // The design cheat's τ against an otherwise-compliant crowd: one node at
  // W_agreed / cheat_factor, n − 1 at W_agreed (same construction as
  // expected_detection_slots).
  const int w_cheat = std::max(
      1, static_cast<int>(std::lround(w_agreed / config.cheat_factor)));
  std::vector<int> profile(static_cast<std::size_t>(n), w_agreed);
  profile[0] = w_cheat;
  const auto cheat = analytical::try_solve_network(profile, max_stage);
  if (!analytical::usable(cheat.diagnostics.status)) {
    throw std::invalid_argument("OnlineDetector: cheat tau unsolvable");
  }
  tau1_ = cheat.state.tau[0];
  if (!(tau1_ > tau0_)) {
    throw std::invalid_argument(
        "OnlineDetector: tolerance swallows the design cheat (tau1 <= tau0)");
  }

  log_tau_ratio_ = std::log(tau1_ / tau0_);
  log_miss_ratio_ = std::log((1.0 - tau1_) / (1.0 - tau0_));
  threshold_ =
      std::log((1.0 - config.miss_rate) / config.significance);
  floor_ = std::log(config.miss_rate / (1.0 - config.significance));
  state_.resize(opponents);
}

double OnlineDetector::break_even_tau() const noexcept {
  // Solve inc(tau) = tau·log(tau1/tau0) + (1−tau)·log((1−tau1)/(1−tau0))
  // = 0 for the observed rate where one stage's evidence flips sign.
  return -log_miss_ratio_ / (log_tau_ratio_ - log_miss_ratio_);
}

DetectStatus OnlineDetector::try_observe(std::size_t opponent,
                                         double attempts,
                                         std::uint64_t slots) noexcept {
  if (opponent >= state_.size() || slots == 0 || !std::isfinite(attempts) ||
      attempts < 0.0 || attempts > static_cast<double>(slots)) {
    return DetectStatus::kInvalidInput;
  }
  OnlineVerdict& v = state_[opponent];
  if (v.flagged) return DetectStatus::kOk;  // evidence frozen until rehab

  ++v.observations;
  const double s = static_cast<double>(slots);
  const double inc =
      attempts * log_tau_ratio_ + (s - attempts) * log_miss_ratio_;
  v.suspect_streak = inc > 0.0 ? v.suspect_streak + 1 : 0;
  v.evidence *= 1.0 - config_.evidence_decay;
  v.evidence = std::max(floor_, v.evidence + inc);
  if (v.evidence >= threshold_) {
    v.flagged = true;
    v.flagged_at = v.observations - 1;
    ++flags_raised_;
  }
  return DetectStatus::kOk;
}

DetectStatus OnlineDetector::try_observe_window(std::size_t opponent,
                                                int observed_w) {
  if (opponent >= state_.size() || observed_w < 1) {
    return DetectStatus::kInvalidInput;
  }
  const double tau = implied_tau(observed_w);
  const double slots = static_cast<double>(config_.slots_per_stage);
  return try_observe(opponent, tau * slots, config_.slots_per_stage);
}

void OnlineDetector::observe(std::size_t opponent, double attempts,
                             std::uint64_t slots) {
  if (try_observe(opponent, attempts, slots) != DetectStatus::kOk) {
    throw std::invalid_argument("OnlineDetector::observe: invalid input");
  }
}

void OnlineDetector::observe_window(std::size_t opponent, int observed_w) {
  if (try_observe_window(opponent, observed_w) != DetectStatus::kOk) {
    throw std::invalid_argument(
        "OnlineDetector::observe_window: invalid input");
  }
}

const OnlineVerdict& OnlineDetector::verdict(std::size_t opponent) const {
  if (opponent >= state_.size()) {
    throw std::out_of_range("OnlineDetector::verdict: opponent out of range");
  }
  return state_[opponent];
}

void OnlineDetector::rehabilitate(std::size_t opponent) {
  if (opponent >= state_.size()) {
    throw std::out_of_range(
        "OnlineDetector::rehabilitate: opponent out of range");
  }
  state_[opponent] = OnlineVerdict{};
}

double OnlineDetector::implied_tau(int window) {
  const auto memo = tau_memo_.find(window);
  if (memo != tau_memo_.end()) return memo->second;
  const auto solved =
      analytical::try_homogeneous_tau(window, n_, max_stage_);
  // The scalar Brent solve does not fail on a valid window; the fallback
  // keeps the conversion total even if it ever did.
  const double tau = analytical::usable(solved.diagnostics.status)
                         ? std::clamp(solved.tau, 0.0, 1.0)
                         : std::clamp(2.0 / (window + 1.0), 0.0, 1.0);
  tau_memo_.emplace(window, tau);
  return tau;
}

}  // namespace smac::sim
