// Shared arithmetic of the class-space solver kernels (internal).
//
// The sequential ladder (fixed_point_solver.cpp) and the lockstep batch
// kernel (batch_solver.cpp) must produce bitwise-identical iterates: both
// therefore evaluate the class-collision map through these inline helpers,
// so there is exactly one operation order for p_c and for the sanitation
// of a finished iterate. The input checks and the kFailed/"invalid"
// result shared by the solver entry points and SolverService live here
// too. Nothing here is part of the public API.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "analytical/fixed_point_solver.hpp"

namespace smac::analytical::detail {

/// Model parameters every solve needs: max_stage >= 0, PER in [0, 1).
inline bool valid_stage_and_per(int max_stage, double per) {
  return max_stage >= 0 && per >= 0.0 && per < 1.0;
}

/// The input check of the per-node solve entry points: a non-empty
/// profile of windows >= 1.
inline bool valid_solve_inputs(const std::vector<int>& w, int max_stage,
                               double per) {
  const bool windows_valid =
      std::all_of(w.begin(), w.end(), [](int wi) { return wi >= 1; });
  return !w.empty() && windows_valid && valid_stage_and_per(max_stage, per);
}

/// The same check for a canonical class profile: non-empty, windows >= 1
/// and strictly ascending, one multiplicity >= 1 per window, and a
/// class_of map with one entry per node (the kernels take n from its
/// size; its entries are not inspected) — exactly what classify_profile
/// produces from a profile valid_solve_inputs accepts.
inline bool valid_class_inputs(const ClassProfile& classes, int max_stage,
                               double per) {
  if (classes.window.empty() ||
      classes.window.size() != classes.multiplicity.size()) {
    return false;
  }
  std::size_t nodes = 0;
  for (std::size_t c = 0; c < classes.window.size(); ++c) {
    if (classes.window[c] < 1 || classes.multiplicity[c] < 1) return false;
    if (c > 0 && classes.window[c] <= classes.window[c - 1]) return false;
    nodes += static_cast<std::size_t>(classes.multiplicity[c]);
  }
  return nodes == classes.node_count() && valid_stage_and_per(max_stage, per);
}

/// What every solve entry point returns for rejected inputs: kFailed,
/// method "invalid", empty state.
inline TrySolveResult invalid_result() {
  TrySolveResult out;
  out.diagnostics.status = SolveStatus::kFailed;
  out.diagnostics.method = "invalid";
  return out;
}

/// x^e for integer e >= 0 by binary exponentiation: O(log e) multiplies
/// with a deterministic operation order (std::pow(double, double) would
/// work but routes through exp/log on some libms).
inline double ipow(double x, int e) {
  double result = 1.0;
  while (e > 0) {
    if (e & 1) result *= x;
    x *= x;
    e >>= 1;
  }
  return result;
}

/// Class-space collision probabilities,
///   p_c = 1 − (1 − τ_c)^(m_c − 1) · Π_{c'≠c} (1 − τ_{c'})^{m_{c'}},
/// via prefix/suffix products over the per-class factors
/// g_c = (1 − τ_c)^{m_c}: O(k + Σ log m_c), no division (exact at τ → 1).
/// Raw-pointer form so the batch kernel can run it over arena segments;
/// `prefix`/`suffix` are caller scratch of size k + 1.
inline void class_collision_probabilities_into(const double* tau,
                                               const int* multiplicity,
                                               std::size_t k, double* prefix,
                                               double* suffix, double* p) {
  prefix[0] = 1.0;
  suffix[k] = 1.0;
  for (std::size_t c = 0; c < k; ++c) {
    prefix[c + 1] = prefix[c] * ipow(1.0 - tau[c], multiplicity[c]);
  }
  for (std::size_t c = k; c-- > 0;) {
    suffix[c] = suffix[c + 1] * ipow(1.0 - tau[c], multiplicity[c]);
  }
  for (std::size_t c = 0; c < k; ++c) {
    const double own = ipow(1.0 - tau[c], multiplicity[c] - 1);
    p[c] = 1.0 - own * prefix[c] * suffix[c + 1];
    p[c] = std::clamp(p[c], 0.0, 1.0);
  }
}

/// Vector convenience wrapper over class_collision_probabilities_into.
inline std::vector<double> class_collision_probabilities(
    const std::vector<double>& tau, const std::vector<int>& multiplicity) {
  const std::size_t k = tau.size();
  std::vector<double> prefix(k + 1);
  std::vector<double> suffix(k + 1);
  std::vector<double> p(k);
  class_collision_probabilities_into(tau.data(), multiplicity.data(), k,
                                     prefix.data(), suffix.data(), p.data());
  return p;
}

/// Clamps every entry into [0, 1] and replaces non-finite values by 0, so
/// a failed solve can never leak NaN/Inf into utilities downstream.
inline void sanitize_probabilities(std::vector<double>& xs) {
  for (double& x : xs) {
    if (!std::isfinite(x)) x = 0.0;
    x = std::clamp(x, 0.0, 1.0);
  }
}

}  // namespace smac::analytical::detail
