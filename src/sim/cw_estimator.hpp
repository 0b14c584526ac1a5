// Promiscuous-mode contention-window estimation (paper §IV, ref. [3]).
//
// The paper's TFT strategy requires each node to observe the CW values of
// the others and cites Kyasanur & Vaidya's detection work for feasibility.
// This module implements the mechanism: a node in promiscuous mode counts
// every station's transmission attempts over a measurement window, turns
// attempt counts into per-slot transmission probabilities τ̂_j, derives
// collision probabilities p̂_j = 1 − Π_{k≠j}(1 − τ̂_k) from them, and
// inverts the backoff-chain relation
//
//   τ = 2 / (1 + W·(1 + p·Σ_{r<m}(2p)^r))
//   ⇒  Ŵ = (2/τ̂ − 1) / (1 + p̂·Σ_{r<m}(2p̂)^r)
//
// to estimate each station's configured window. Estimation error scales as
// the inverse square root of the observed attempt count, which is what the
// GTFT tolerance parameters (β, r0) exist to absorb; the estimating
// strategies below make that trade-off measurable.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "game/strategies.hpp"
#include "sim/simulator.hpp"

namespace smac::sim {

/// One station's estimate after a measurement window.
struct CwEstimate {
  double tau_hat = 0.0;   ///< observed attempts / slots
  double p_hat = 0.0;     ///< collision probability implied by the others
  double w_hat = 0.0;     ///< inverted window estimate (>= 1)
  std::uint64_t attempts = 0;  ///< sample size behind the estimate
};

/// Estimates every node's contention window from a simulation window's
/// observable counters (attempt counts and slot count — exactly what a
/// promiscuous listener sees; success/collision labels are not needed).
/// `max_stage` is the known protocol constant m.
std::vector<CwEstimate> estimate_windows(const SimResult& observed,
                                         int max_stage);

/// Inverts τ̂ (with collision feedback p̂) to a window estimate.
/// Returns a value clamped to >= 1. τ̂ must lie in (0, 1]; τ̂ = 0 (no
/// observed attempts) has no information and maps to +infinity — callers
/// see that as the sentinel returned here, w_max_hint.
double invert_window(double tau_hat, double p_hat, int max_stage,
                     double w_max_hint);

/// TFT driven by *estimated* windows: instead of reading opponents'
/// configured CW from the history (the idealized observation the paper
/// assumes), it acts on Ŵ_j computed from the attempt counts of the last
/// stage. With short stages the estimates are noisy and plain TFT
/// over-punishes; the estimating GTFT below shows the cure.
class EstimatingTitForTat final : public game::Strategy {
 public:
  /// `estimates_feed` supplies the latest per-node window estimates; an
  /// AdaptiveRuntime built with feeds owns it and refreshes it every stage.
  using Feed = std::shared_ptr<const std::vector<double>>;
  EstimatingTitForTat(int initial_w, Feed estimates_feed);

  int initial_cw() const override { return initial_w_; }
  int decide(const game::History& history, std::size_t self) override;
  std::string name() const override { return "tft-estimating"; }

 private:
  int initial_w_;
  Feed feed_;
};

/// GTFT driven by estimated windows: reacts only when some station's
/// estimate falls below β times its own configured window, averaged over
/// the last r0 stages of estimates.
class EstimatingGtft final : public game::Strategy {
 public:
  using Feed = std::shared_ptr<const std::vector<double>>;
  EstimatingGtft(int initial_w, double beta, int window_stages, Feed feed);

  int initial_cw() const override { return initial_w_; }
  int decide(const game::History& history, std::size_t self) override;
  std::string name() const override;

 private:
  int initial_w_;
  double beta_;
  int r0_;
  Feed feed_;
  std::vector<std::vector<double>> recent_;  ///< ring of estimate snapshots
};

/// Evidence-gated GTFT: punishes only nodes the misbehavior detector has
/// flagged (statistically significant excess attempt rate against the
/// node's own current window as the agreement), rather than reacting to
/// raw window estimates. This closes the loop between the paper's TFT
/// convention and ref [3]'s detection machinery: noise cannot trigger
/// retaliation, only evidence can.
class DetectorGtft final : public game::Strategy {
 public:
  using EstimateFeed = std::shared_ptr<const std::vector<double>>;
  using FlagFeed = std::shared_ptr<const std::vector<bool>>;
  DetectorGtft(int initial_w, EstimateFeed estimates, FlagFeed flags);

  int initial_cw() const override { return initial_w_; }
  int decide(const game::History& history, std::size_t self) override;
  std::string name() const override { return "detector-gtft"; }

 private:
  int initial_w_;
  EstimateFeed estimates_;
  FlagFeed flags_;
};

}  // namespace smac::sim
