#include "analytical/fixed_point_solver.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "analytical/backoff_chain.hpp"
#include "analytical/batch_solver.hpp"
#include "analytical/solver_detail.hpp"
#include "util/root_finding.hpp"

namespace smac::analytical {

namespace {

/// p_i = 1 − Π_{j≠i}(1 − τ_j), all i, via prefix/suffix products: O(n),
/// and exact even when some τ_j → 1 (no division by (1 − τ_i)).
std::vector<double> collision_probabilities(const std::vector<double>& tau) {
  const std::size_t n = tau.size();
  std::vector<double> prefix(n + 1, 1.0);
  std::vector<double> suffix(n + 1, 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    prefix[i + 1] = prefix[i] * (1.0 - tau[i]);
  }
  for (std::size_t i = n; i-- > 0;) {
    suffix[i] = suffix[i + 1] * (1.0 - tau[i]);
  }
  std::vector<double> p(n);
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = 1.0 - prefix[i] * suffix[i + 1];
    p[i] = std::clamp(p[i], 0.0, 1.0);
  }
  return p;
}

/// One damped-iteration rung on the *full* per-node system (reference
/// kernel) starting from `tau0`; returns the raw fixed-point result.
util::FixedPointResult damped_rung(const std::vector<int>& w, int max_stage,
                                   double per, std::vector<double> tau0,
                                   double damping, double tolerance,
                                   int max_iterations) {
  const std::size_t n = w.size();
  // Fixed point over τ alone; p is recomputed from τ inside the map. The
  // chain escalates on collisions *or* channel corruption.
  auto F = [&](const std::vector<double>& tau) {
    const std::vector<double> p = collision_probabilities(tau);
    std::vector<double> next(n);
    for (std::size_t i = 0; i < n; ++i) {
      const double fail = 1.0 - (1.0 - p[i]) * (1.0 - per);
      next[i] = transmission_probability(w[i], fail, max_stage);
    }
    return next;
  };
  util::FixedPointOptions fp;
  fp.damping = damping;
  fp.tolerance = tolerance;
  fp.max_iterations = max_iterations;
  return util::solve_fixed_point(F, std::move(tau0), fp);
}

NetworkState state_from(util::FixedPointResult r) {
  NetworkState state;
  state.tau = std::move(r.x);
  detail::sanitize_probabilities(state.tau);
  state.p = collision_probabilities(state.tau);
  state.converged = r.converged;
  state.iterations = r.iterations;
  state.residual = r.residual;
  return state;
}

}  // namespace

const char* to_string(SolveStatus status) noexcept {
  switch (status) {
    case SolveStatus::kConverged: return "converged";
    case SolveStatus::kDegraded: return "degraded";
    case SolveStatus::kFailed: return "failed";
  }
  return "unknown";
}

ClassProfile classify_profile(const std::vector<int>& w) {
  ClassProfile classes;
  classes.window = w;
  std::sort(classes.window.begin(), classes.window.end());
  classes.window.erase(
      std::unique(classes.window.begin(), classes.window.end()),
      classes.window.end());
  classes.multiplicity.assign(classes.window.size(), 0);
  classes.class_of.resize(w.size());
  for (std::size_t i = 0; i < w.size(); ++i) {
    const auto it = std::lower_bound(classes.window.begin(),
                                     classes.window.end(), w[i]);
    const auto c =
        static_cast<std::int32_t>(it - classes.window.begin());
    classes.class_of[i] = c;
    ++classes.multiplicity[static_cast<std::size_t>(c)];
  }
  return classes;
}

NetworkState expand_classes(const NetworkState& class_state,
                            const ClassProfile& classes) {
  NetworkState state;
  state.tau.resize(classes.node_count());
  state.p.resize(classes.node_count());
  for (std::size_t i = 0; i < classes.node_count(); ++i) {
    const auto c = static_cast<std::size_t>(classes.class_of[i]);
    state.tau[i] = class_state.tau[c];
    state.p[i] = class_state.p[c];
  }
  state.converged = class_state.converged;
  state.iterations = class_state.iterations;
  state.residual = class_state.residual;
  return state;
}

TrySolveResult try_solve_classes(const ClassProfile& classes, int max_stage,
                                 const SolverOptions& opts,
                                 double packet_error_rate) {
  // A batch of one: the lockstep kernel in batch_solver.cpp is the single
  // implementation of the retry ladder, so the sequential and batched
  // entry points cannot drift apart (the bitwise-identity contract of
  // try_solve_classes_batch is trivially true for this call).
  ClassProfileInstance instance;
  instance.classes = classes;
  instance.max_stage = max_stage;
  instance.packet_error_rate = packet_error_rate;
  instance.opts = opts;
  std::vector<TrySolveResult> results =
      try_solve_classes_batch({&instance, 1});
  return std::move(results.front());
}

TrySolveResult try_solve_network(const std::vector<int>& w, int max_stage,
                                 const SolverOptions& opts,
                                 double packet_error_rate) {
  if (!detail::valid_solve_inputs(w, max_stage, packet_error_rate)) {
    return detail::invalid_result();
  }
  const ClassProfile classes = classify_profile(w);
  TrySolveResult collapsed =
      try_solve_classes(classes, max_stage, opts, packet_error_rate);
  TrySolveResult out;
  out.state = expand_classes(collapsed.state, classes);
  out.diagnostics = collapsed.diagnostics;
  return out;
}

TrySolveResult try_solve_network_full(const std::vector<int>& w,
                                      int max_stage,
                                      const SolverOptions& opts,
                                      double packet_error_rate) {
  if (!detail::valid_solve_inputs(w, max_stage, packet_error_rate)) {
    return detail::invalid_result();
  }
  TrySolveResult out;
  const double per = packet_error_rate;

  std::vector<double> cold(w.size());
  for (std::size_t i = 0; i < w.size(); ++i) {
    cold[i] = transmission_probability(w[i], 0.0, max_stage);
  }
  std::vector<double> hot(w.size());
  for (std::size_t i = 0; i < w.size(); ++i) {
    hot[i] = transmission_probability(w[i], 0.9, max_stage);
  }
  std::vector<double> warm = opts.initial_tau;
  if (warm.size() != w.size() ||
      std::any_of(warm.begin(), warm.end(),
                  [](double t) { return !std::isfinite(t); })) {
    warm.clear();
  }
  for (double& t : warm) t = std::clamp(t, 0.0, 1.0);

  // Retry ladder: the base attempt, then escalated damping on the same
  // start, then a heavily damped restart from a high-collision point.
  struct Rung {
    const char* method;
    const std::vector<double>* start;
    double damping;
    int iteration_scale;
  };
  std::vector<Rung> ladder;
  if (!warm.empty()) ladder.push_back({"warm", &warm, opts.damping, 1});
  ladder.push_back({"damped", &cold, opts.damping, 1});
  ladder.push_back({"redamped", &cold, std::max(opts.damping, 0.85), 2});
  ladder.push_back({"restart", &hot, std::max(opts.damping, 0.95), 2});

  NetworkState best;
  best.residual = std::numeric_limits<double>::infinity();
  const char* best_method = "damped";
  int total_iterations = 0;
  int retries = 0;
  for (const Rung& rung : ladder) {
    util::FixedPointResult r =
        damped_rung(w, max_stage, per, *rung.start, rung.damping,
                    opts.tolerance, opts.max_iterations * rung.iteration_scale);
    total_iterations += r.iterations;
    NetworkState state = state_from(std::move(r));
    if (state.converged || state.residual < best.residual) {
      best = std::move(state);
      best_method = rung.method;
    }
    if (best.converged) break;
    ++retries;
  }

  // Last rung: a homogeneous profile has an exact scalar fallback.
  if (!best.converged &&
      std::all_of(w.begin(), w.end(), [&](int wi) { return wi == w[0]; })) {
    const TryTauResult tau = try_homogeneous_tau(
        static_cast<double>(w[0]), static_cast<int>(w.size()), max_stage, per);
    total_iterations += tau.diagnostics.iterations;
    if (usable(tau.diagnostics.status)) {
      best.tau.assign(w.size(), tau.tau);
      best.p = collision_probabilities(best.tau);
      best.converged = tau.diagnostics.status == SolveStatus::kConverged;
      best.residual = tau.diagnostics.residual;
      best_method = "bisection";
    }
  }

  out.diagnostics.iterations = total_iterations;
  out.diagnostics.retries = retries;
  out.diagnostics.residual = best.residual;
  out.diagnostics.method = best_method;
  out.diagnostics.status = best.converged              ? SolveStatus::kConverged
                           : best.residual <= kDegradedResidual
                               ? SolveStatus::kDegraded
                               : SolveStatus::kFailed;
  best.converged = out.diagnostics.status == SolveStatus::kConverged;
  out.state = std::move(best);
  return out;
}

NetworkState solve_network(const std::vector<int>& w, int max_stage,
                           const SolverOptions& opts,
                           double packet_error_rate) {
  if (w.empty()) throw std::invalid_argument("solve_network: empty profile");
  for (int wi : w) {
    if (wi < 1) throw std::invalid_argument("solve_network: window < 1");
  }
  if (packet_error_rate < 0.0 || packet_error_rate >= 1.0) {
    throw std::invalid_argument("solve_network: PER outside [0,1)");
  }
  return try_solve_network(w, max_stage, opts, packet_error_rate).state;
}

TryTauResult try_homogeneous_tau(double w, int n, int max_stage,
                                 double packet_error_rate) {
  TryTauResult out;
  if (n < 1 || !(w >= 1.0) || max_stage < 0 || packet_error_rate < 0.0 ||
      packet_error_rate >= 1.0) {
    out.diagnostics.status = SolveStatus::kFailed;
    out.diagnostics.method = "invalid";
    return out;
  }
  const double per = packet_error_rate;
  if (n == 1) {
    out.tau = transmission_probability_cont(w, per, max_stage);
    out.diagnostics.method = "closed-form";
    return out;
  }

  // Root of h(τ) = τ − τ(W, fail(τ)); h(0) < 0, h(1) >= 0.
  auto h = [&](double tau) {
    const double p = 1.0 - std::pow(1.0 - tau, n - 1);
    const double fail = 1.0 - (1.0 - p) * (1.0 - per);
    return tau - transmission_probability_cont(w, fail, max_stage);
  };
  if (h(1.0) == 0.0) {  // degenerate W = 1, m = 0 case
    out.tau = 1.0;
    out.diagnostics.method = "closed-form";
    return out;
  }
  // h is continuous and strictly increasing on [0, 1] (τ(W, fail) falls
  // as τ rises), with h(0) < 0 < h(1) here, so Brent always holds a
  // bracket; a sweep over m 0–20, n 2–10⁷, W 1–10¹⁰ and PER up to
  // 1 − 10⁻¹² needed at most 27 of its 300 iterations. Should it ever
  // stop short, its last iterate is classified by residual.
  out.diagnostics.method = "brent";
  const auto root = util::brent(h, 0.0, 1.0, {1e-15, 1e-15, 300});
  if (!root) {
    out.diagnostics.status = SolveStatus::kFailed;
    return out;
  }
  out.tau = root->x;
  out.diagnostics.iterations = root->iterations;
  out.diagnostics.residual = std::abs(root->fx);
  out.diagnostics.status = root->converged ? SolveStatus::kConverged
                           : out.diagnostics.residual <= kDegradedResidual
                               ? SolveStatus::kDegraded
                               : SolveStatus::kFailed;
  return out;
}

double homogeneous_tau(double w, int n, int max_stage,
                       double packet_error_rate) {
  if (n < 1) throw std::invalid_argument("homogeneous_tau: n < 1");
  if (!(w >= 1.0)) throw std::invalid_argument("homogeneous_tau: w < 1");
  if (packet_error_rate < 0.0 || packet_error_rate >= 1.0) {
    throw std::invalid_argument("homogeneous_tau: PER outside [0,1)");
  }
  const TryTauResult r = try_homogeneous_tau(w, n, max_stage,
                                             packet_error_rate);
  if (r.diagnostics.status == SolveStatus::kFailed) {
    throw std::runtime_error("homogeneous_tau: root finding failed");
  }
  return r.tau;
}

NetworkState solve_network_homogeneous(double w, int n, int max_stage,
                                       double packet_error_rate) {
  const double tau = homogeneous_tau(w, n, max_stage, packet_error_rate);
  const double p =
      n == 1 ? 0.0 : 1.0 - std::pow(1.0 - tau, n - 1);
  NetworkState state;
  state.tau.assign(static_cast<std::size_t>(n), tau);
  state.p.assign(static_cast<std::size_t>(n), p);
  state.converged = true;
  state.iterations = 0;
  state.residual = 0.0;
  return state;
}

double window_for_tau(double tau_target, int n, int max_stage) {
  if (!(tau_target > 0.0) || !(tau_target <= 1.0)) {
    throw std::invalid_argument("window_for_tau: tau_target outside (0,1]");
  }
  // τ(w) is strictly decreasing in w; check the left edge first.
  if (homogeneous_tau(1.0, n, max_stage) <= tau_target) return 1.0;

  double hi = 2.0;
  while (homogeneous_tau(hi, n, max_stage) > tau_target) {
    hi *= 2.0;
    if (hi > kWindowForTauCap) {
      // No window up to the cap reaches a τ this small: return the
      // documented clamp instead of aborting the caller's sweep — the cap
      // window is the closest achievable approximation from below.
      return kWindowForTauCap;
    }
  }
  auto f = [&](double w) { return homogeneous_tau(w, n, max_stage) - tau_target; };
  const auto root = util::brent(f, hi / 2.0, hi, {1e-9, 1e-14, 300});
  if (!root) {
    throw std::runtime_error("window_for_tau: bracketing failed");
  }
  return root->x;
}

}  // namespace smac::analytical
