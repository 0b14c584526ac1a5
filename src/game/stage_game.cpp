#include "game/stage_game.hpp"

#include <stdexcept>

#include "analytical/utility.hpp"

namespace smac::game {

StageGame::StageGame(phy::Parameters params, phy::AccessMode mode)
    : StageGame(std::move(params), mode,
                analytical::SolverService::Options{}) {}

StageGame::StageGame(phy::Parameters params, phy::AccessMode mode,
                     analytical::SolverService::Options solver_options)
    : params_(std::move(params)), mode_(mode),
      solver_(std::move(solver_options)) {
  params_.validate();
}

template <typename Solve>
StageGame::StagePayoffs StageGame::price(
    const analytical::ClassProfile& classes, Solve&& solve,
    bool price_unusable) const {
  StagePayoffs out;
  if (classes.class_count() == 0) {
    out.diagnostics.status = analytical::SolveStatus::kFailed;
    out.diagnostics.method = "invalid";
    return out;
  }
  const analytical::TrySolveResult& solved = solve();
  out.diagnostics = solved.diagnostics;
  if (price_unusable || analytical::usable(solved.diagnostics.status)) {
    out.utilities = analytical::utility_rates(
        analytical::expand_classes(solved.state, classes), params_, mode_);
    const double t_us = stage_duration_us();
    for (double& v : out.utilities) v *= t_us;
  }
  return out;
}

std::vector<double> StageGame::stage_utilities(
    const std::vector<int>& w) const {
  if (w.empty()) throw std::invalid_argument("StageGame: empty profile");
  for (const int wi : w) {
    if (wi < 1) throw std::invalid_argument("StageGame: window < 1");
  }
  const analytical::ClassProfile classes = analytical::classify_profile(w);
  return price(
             classes,
             [&] {
               return solver_.solve(classes, params_.max_backoff_stage,
                                    params_.packet_error_rate);
             },
             /*price_unusable=*/true)
      .utilities;
}

StageGame::StagePayoffs StageGame::try_stage_utilities(
    const std::vector<int>& w, std::optional<double> per_override) const {
  const double per = per_override.value_or(params_.packet_error_rate);
  const analytical::ClassProfile classes = analytical::classify_profile(w);
  return price(classes, [&] {
    return solver_.solve(classes, params_.max_backoff_stage, per);
  });
}

std::vector<StageGame::StagePayoffs> StageGame::price_batch(
    const std::vector<analytical::ClassProfile>& profiles,
    std::optional<double> per_override) const {
  const double per = per_override.value_or(params_.packet_error_rate);
  std::vector<analytical::SolverService::Ticket> tickets(profiles.size());
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    if (profiles[i].class_count() > 0) {
      tickets[i] =
          solver_.submit(profiles[i], params_.max_backoff_stage, per);
    }
  }
  solver_.drain();
  std::vector<StagePayoffs> out;
  out.reserve(profiles.size());
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    out.push_back(
        price(profiles[i], [&]() -> const analytical::TrySolveResult& {
          return tickets[i].result();
        }));
  }
  return out;
}

std::vector<StageGame::StagePayoffs> StageGame::try_stage_utilities_batch(
    const std::vector<std::vector<int>>& profiles,
    std::optional<double> per_override) const {
  std::vector<analytical::ClassProfile> classes;
  classes.reserve(profiles.size());
  for (const std::vector<int>& w : profiles) {
    classes.push_back(analytical::classify_profile(w));
  }
  return price_batch(classes, per_override);
}

std::vector<StageGame::ClassPayoffs> StageGame::try_class_utilities_batch(
    const std::vector<analytical::ClassProfile>& profiles,
    std::optional<double> per_override) const {
  std::vector<ClassPayoffs> out = price_batch(profiles, per_override);
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    if (out[i].utilities.empty()) continue;
    // Compress back to one entry per class: the first node of a class
    // carries the class value, since nodes of a class share tau/p
    // bit-for-bit.
    const std::size_t k = profiles[i].class_count();
    std::vector<double> per_class(k, 0.0);
    std::vector<char> seen(k, 0);
    for (std::size_t node = 0; node < profiles[i].node_count(); ++node) {
      const auto c = static_cast<std::size_t>(profiles[i].class_of[node]);
      if (!seen[c]) {
        seen[c] = 1;
        per_class[c] = out[i].utilities[node];
      }
    }
    out[i].utilities = std::move(per_class);
  }
  return out;
}

double StageGame::homogeneous_utility_rate(int w, int n) const {
  if (w < 1 || n < 1) {
    throw std::invalid_argument("StageGame: homogeneous w/n out of range");
  }
  const auto key = std::make_pair(w, n);
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    if (const auto it = homogeneous_cache_.find(key);
        it != homogeneous_cache_.end()) {
      return it->second;
    }
  }
  // Solve outside the lock: concurrent misses on the same key may both
  // compute, but the solver is deterministic so they agree.
  const double u = analytical::homogeneous_utility_rate(
      static_cast<double>(w), n, params_, mode_);
  std::lock_guard<std::mutex> lock(cache_mutex_);
  homogeneous_cache_.emplace(key, u);
  return u;
}

double StageGame::homogeneous_stage_utility(int w, int n) const {
  return homogeneous_utility_rate(w, n) * stage_duration_us();
}

double StageGame::social_welfare(int w, int n) const {
  return static_cast<double>(n) * homogeneous_stage_utility(w, n);
}

double StageGame::normalized_global_payoff(int w, int n) const {
  return static_cast<double>(n) * homogeneous_utility_rate(w, n) *
         params_.sigma_us / params_.gain;
}

}  // namespace smac::game
