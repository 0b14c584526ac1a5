#include "game/stage_game.hpp"

#include <cstdint>
#include <stdexcept>
#include <unordered_map>

#include "analytical/utility.hpp"
#include "util/hash.hpp"

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

namespace {

/// Exact-profile identity: window, multiplicity *and* class_of. Two
/// permutations of one canonical key may price a last ulp apart (the
/// channel metrics fold in node order), so only exact equals share a
/// price() call.
struct ExactProfileHash {
  std::size_t operator()(const analytical::ClassProfile* p) const noexcept {
    std::uint64_t h = util::hash_ints(util::kHashSeed, p->window);
    h = util::hash_ints(h, p->multiplicity);
    return static_cast<std::size_t>(util::hash_ints(h, p->class_of));
  }
};
struct ExactProfileEqual {
  bool operator()(const analytical::ClassProfile* a,
                  const analytical::ClassProfile* b) const noexcept {
    return a->window == b->window && a->multiplicity == b->multiplicity &&
           a->class_of == b->class_of;
  }
};

}  // namespace

template <typename Finish>
std::vector<StageGame::StagePayoffs> StageGame::price_batch(
    const std::vector<analytical::ClassProfile>& profiles,
    std::optional<double> per_override, Finish&& finish) const {
  const double per = per_override.value_or(params_.packet_error_rate);
  // Merge exact repeats: each distinct profile is one ticket standing for
  // all its requests (so the cache tallies match one ticket per request)
  // and one price() call, whose result is copied out per request.
  std::unordered_map<const analytical::ClassProfile*, std::size_t,
                     ExactProfileHash, ExactProfileEqual>
      slot_of;
  std::vector<const analytical::ClassProfile*> distinct;
  std::vector<std::uint64_t> count;
  std::vector<std::size_t> slot(profiles.size());
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    const auto [it, fresh] = slot_of.try_emplace(&profiles[i], distinct.size());
    if (fresh) {
      distinct.push_back(&profiles[i]);
      count.push_back(0);
    }
    slot[i] = it->second;
    ++count[it->second];
  }

  std::vector<analytical::SolverService::Ticket> tickets(distinct.size());
  for (std::size_t d = 0; d < distinct.size(); ++d) {
    if (distinct[d]->class_count() > 0) {
      tickets[d] = solver_.submit(*distinct[d], params_.max_backoff_stage,
                                  per, count[d]);
    }
  }
  solver_.drain();
  std::vector<StagePayoffs> priced;
  priced.reserve(distinct.size());
  for (std::size_t d = 0; d < distinct.size(); ++d) {
    priced.push_back(
        price(*distinct[d], [&]() -> const analytical::TrySolveResult& {
          return tickets[d].result();
        }));
    finish(*distinct[d], priced.back());
  }

  std::vector<StagePayoffs> out;
  out.reserve(profiles.size());
  for (const std::size_t d : slot) out.push_back(priced[d]);
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
  return price_batch(classes, per_override,
                     [](const analytical::ClassProfile&, StagePayoffs&) {});
}

std::vector<StageGame::ClassPayoffs> StageGame::try_class_utilities_batch(
    const std::vector<analytical::ClassProfile>& profiles,
    std::optional<double> per_override) const {
  return price_batch(
      profiles, per_override,
      [](const analytical::ClassProfile& classes, StagePayoffs& payoffs) {
        if (payoffs.utilities.empty()) return;
        // Compress back to one entry per class: the first node of a class
        // carries the class value, since nodes of a class share tau/p
        // bit-for-bit.
        std::vector<double> per_class(classes.class_count(), 0.0);
        std::vector<char> seen(classes.class_count(), 0);
        for (std::size_t node = 0; node < classes.node_count(); ++node) {
          const auto c = static_cast<std::size_t>(classes.class_of[node]);
          if (!seen[c]) {
            seen[c] = 1;
            per_class[c] = payoffs.utilities[node];
          }
        }
        payoffs.utilities = std::move(per_class);
      });
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
