// Network-level fixed point of the extended (heterogeneous) Bianchi model.
//
// Couples each node's backoff chain τ_i = τ(W_i, p_i) with the channel
// feedback p_i = 1 − Π_{j≠i}(1 − τ_j) (paper eqs. 2–3): 2n equations in
// (τ_1..τ_n, p_1..p_n). Nodes may hold *different* contention windows —
// the selfish setting the paper models — but almost every profile the
// game layers produce has only a handful of *distinct* windows (TFT
// trajectories converge to a common W; deviation tests are one deviant
// against n − 1 conformers). The solver therefore collapses the profile
// into k symmetry classes of identical (W, multiplicity m) and iterates
// the k-dimensional system
//
//   p_c = 1 − (1 − τ_c)^(m_c − 1) · Π_{c'≠c} (1 − τ_{c'})^{m_{c'}}
//
// expanding back to per-node vectors afterwards — O(k) per iteration
// instead of O(n), identical fixed point (nodes of one class are
// exchangeable, so the solution is class-symmetric). The k = 1 case
// delegates to the scalar Brent path; the pre-collapse full-dimension
// kernel is kept as try_solve_network_full for validation.
#pragma once

#include <cstdint>
#include <vector>

#include "util/fixed_point.hpp"

namespace smac::analytical {

/// Solution of the coupled (τ, p) system for one CW profile.
struct NetworkState {
  std::vector<double> tau;  ///< per-node transmission probability
  std::vector<double> p;    ///< per-node conditional collision probability
  bool converged = false;
  int iterations = 0;
  double residual = 0.0;
};

struct SolverOptions {
  double damping = 0.5;
  double tolerance = 1e-13;
  int max_iterations = 20000;
  /// Optional warm start: per-node (size n) or per-class (size k) initial
  /// τ, tried as the first ladder rung before the canonical starts. Sizes
  /// that match neither are ignored. A warm start changes only the
  /// iteration path, never the fixed point beyond the tolerance — but the
  /// last-ulp bits of the result may differ from a cold solve, so callers
  /// feeding bit-identical caches must stick to the canonical (empty)
  /// start; SolverService never warm-starts its cached solves.
  std::vector<double> initial_tau;
};

/// Outcome classification of the non-throwing solver entry points.
///
///   kConverged — residual below tolerance; the state is the fixed point.
///   kDegraded  — the retry ladder exhausted its rungs but the best
///                iterate's residual is small (≤ kDegradedResidual); the
///                state is usable as an approximation and callers should
///                carry the diagnostics forward (DegradationReport).
///   kFailed    — no rung produced a usable iterate (or the inputs were
///                invalid); the state holds the best effort, clamped to
///                [0, 1], and must not be trusted.
enum class SolveStatus { kConverged, kDegraded, kFailed };

/// Residual threshold separating kDegraded from kFailed.
inline constexpr double kDegradedResidual = 1e-6;

/// What the retry ladder did to produce a result.
struct SolveDiagnostics {
  SolveStatus status = SolveStatus::kConverged;
  int iterations = 0;      ///< total across every ladder rung attempted
  int retries = 0;         ///< rungs attempted beyond the first
  double residual = 0.0;   ///< residual of the returned state
  /// Rung that produced the returned state: "warm" (caller's initial_tau),
  /// "seeded" (homogeneous-mean start), "damped", "redamped", "restart",
  /// "polish" (continuation from the best iterate of the earlier rungs),
  /// "brent"/"closed-form" (scalar k = 1 path), "bisection"
  /// (try_solve_network_full's scalar fallback for a homogeneous profile
  /// its ladder left unconverged), or "invalid" (bad inputs).
  const char* method = "damped";
};

constexpr bool usable(SolveStatus s) noexcept {
  return s != SolveStatus::kFailed;
}

const char* to_string(SolveStatus status) noexcept;

struct TrySolveResult {
  NetworkState state;
  SolveDiagnostics diagnostics;
};

struct TryTauResult {
  double tau = 0.0;
  SolveDiagnostics diagnostics;
};

/// Symmetry-class decomposition of a contention-window profile: the
/// distinct windows in ascending order, their multiplicities, and the
/// node → class map. The canonical (sorted) ordering makes every
/// permutation of a profile collapse to the same class system — the basis
/// of both the solver's O(k) iteration and the cache's permutation hits.
struct ClassProfile {
  std::vector<int> window;             ///< distinct windows, ascending
  std::vector<int> multiplicity;       ///< same length as window
  std::vector<std::int32_t> class_of;  ///< node index → class index

  std::size_t node_count() const noexcept { return class_of.size(); }
  std::size_t class_count() const noexcept { return window.size(); }
};

/// Builds the class decomposition of `w` (any profile, no validation).
ClassProfile classify_profile(const std::vector<int>& w);

/// Expands a class-space solution (tau/p of size k) to per-node vectors
/// in the original node order. Nodes of one class get bitwise-identical
/// values, so solve_network(perm(w)) == perm(solve_network(w)) exactly.
NetworkState expand_classes(const NetworkState& class_state,
                            const ClassProfile& classes);

/// Class-space solve: the retry ladder run on the collapsed k-dimensional
/// system. The returned state's tau/p have one entry per *class* (use
/// expand_classes for per-node vectors). Inputs are assumed valid
/// (non-empty classes, windows >= 1, max_stage >= 0, PER in [0, 1)).
TrySolveResult try_solve_classes(const ClassProfile& classes, int max_stage,
                                 const SolverOptions& opts = {},
                                 double packet_error_rate = 0.0);

/// Non-throwing heterogeneous solve with a retry ladder. Never throws and
/// never returns non-finite values: on non-convergence it escalates —
/// a homogeneous-mean seeded start, stronger damping, and a restart from
/// a high-collision initial point — and reports how far it got in the
/// diagnostics. Invalid inputs (empty profile, w < 1, PER outside [0, 1))
/// yield kFailed with an empty state instead of throwing.
/// Sweeps and repeated games should prefer this entry point; the throwing
/// solve_network below delegates here.
TrySolveResult try_solve_network(const std::vector<int>& w, int max_stage,
                                 const SolverOptions& opts = {},
                                 double packet_error_rate = 0.0);

/// Pre-collapse reference kernel: the full 2n-dimensional damped ladder
/// iterating one equation per *node*. Kept for validation — tests and
/// bench_solver_json assert the collapsed kernel agrees to <= 1e-12 —
/// and for profiling the collapse win. Same contract as
/// try_solve_network (initial_tau honored per node when sized n).
TrySolveResult try_solve_network_full(const std::vector<int>& w,
                                      int max_stage,
                                      const SolverOptions& opts = {},
                                      double packet_error_rate = 0.0);

/// Non-throwing homogeneous τ by Brent's method over [0, 1], which always
/// holds a sign change for valid inputs (method "brent", or
/// "closed-form" for n = 1 and the W = 1, m = 0 corner). Invalid inputs
/// yield kFailed with τ = 0.
TryTauResult try_homogeneous_tau(double w, int n, int max_stage,
                                 double packet_error_rate = 0.0);

/// Solves the heterogeneous system for contention-window profile `w`
/// (one entry per node, each >= 1) with maximum backoff stage `max_stage`.
/// For n = 1 the collision probability is identically zero.
/// Throws std::invalid_argument on empty or invalid profiles; otherwise
/// delegates to try_solve_network (same retry ladder, NetworkState::
/// converged reflects SolveStatus::kConverged).
/// `packet_error_rate` adds channel-noise losses: the backoff chain
/// escalates on failure probability 1 − (1 − p_i)(1 − PER), while the
/// returned NetworkState::p stays the *collision* probability (channel
/// feedback), matching the utility u = τ((1−p)(1−PER)g − e)/T_slot.
NetworkState solve_network(const std::vector<int>& w, int max_stage,
                           const SolverOptions& opts = {},
                           double packet_error_rate = 0.0);

/// Homogeneous fast path: all n nodes on window `w`. Solved as a scalar
/// root problem (Brent), typically ~40 evaluations, machine precision.
/// `w` is continuous to support inverting τ ↦ W.
NetworkState solve_network_homogeneous(double w, int n, int max_stage,
                                       double packet_error_rate = 0.0);

/// τ of the homogeneous fixed point only (cheap; used inside sweeps).
/// Throws std::invalid_argument on bad inputs and std::runtime_error when
/// even the try_homogeneous_tau ladder reports kFailed.
double homogeneous_tau(double w, int n, int max_stage,
                       double packet_error_rate = 0.0);

/// Inverts the homogeneous model: the (continuous) window w such that the
/// n-node fixed point transmits with probability `tau_target`. Monotone
/// bisection over w ∈ [1, w_hi]; expands w_hi as needed. Returns w clamped
/// to >= 1 when even w = 1 yields τ < tau_target, and clamped to the
/// expansion cap kWindowForTauCap when no window up to the cap reaches a
/// τ as small as `tau_target` (instead of aborting a sweep mid-run).
double window_for_tau(double tau_target, int n, int max_stage);

/// Upper clamp of window_for_tau's bracket expansion.
inline constexpr double kWindowForTauCap = 1e9;

}  // namespace smac::analytical
