#include "sim/cw_estimator.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace smac::sim {

namespace {

double geometric_sum_2p(double p, int m) noexcept {
  double sum = 0.0;
  double term = 1.0;
  for (int r = 0; r < m; ++r) {
    sum += term;
    term *= 2.0 * p;
  }
  return sum;
}

}  // namespace

double invert_window(double tau_hat, double p_hat, int max_stage,
                     double w_max_hint) {
  if (tau_hat <= 0.0) return w_max_hint;  // no attempts observed
  tau_hat = std::min(tau_hat, 1.0);
  p_hat = std::clamp(p_hat, 0.0, 1.0);
  const double denom = 1.0 + p_hat * geometric_sum_2p(p_hat, max_stage);
  const double w = (2.0 / tau_hat - 1.0) / denom;
  return std::max(1.0, std::min(w, w_max_hint));
}

std::vector<CwEstimate> estimate_windows(const SimResult& observed,
                                         int max_stage) {
  if (observed.slots == 0 || observed.node.empty()) {
    throw std::invalid_argument("estimate_windows: empty observation");
  }
  const std::size_t n = observed.node.size();
  std::vector<CwEstimate> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i].attempts = observed.node[i].attempts;
    out[i].tau_hat = static_cast<double>(observed.node[i].attempts) /
                     static_cast<double>(observed.slots);
  }
  // p̂_i from the *other* stations' estimated τ via prefix/suffix products.
  std::vector<double> prefix(n + 1, 1.0);
  std::vector<double> suffix(n + 1, 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    prefix[i + 1] = prefix[i] * (1.0 - std::min(out[i].tau_hat, 1.0));
  }
  for (std::size_t i = n; i-- > 0;) {
    suffix[i] = suffix[i + 1] * (1.0 - std::min(out[i].tau_hat, 1.0));
  }
  for (std::size_t i = 0; i < n; ++i) {
    out[i].p_hat = std::clamp(1.0 - prefix[i] * suffix[i + 1], 0.0, 1.0);
    out[i].w_hat = invert_window(out[i].tau_hat, out[i].p_hat, max_stage,
                                 /*w_max_hint=*/1e9);
  }
  return out;
}

// ---- EstimatingTitForTat ----

EstimatingTitForTat::EstimatingTitForTat(int initial_w, Feed estimates_feed)
    : initial_w_(initial_w), feed_(std::move(estimates_feed)) {
  if (initial_w < 1) {
    throw std::invalid_argument("EstimatingTitForTat: initial_w < 1");
  }
  if (!feed_) throw std::invalid_argument("EstimatingTitForTat: null feed");
}

int EstimatingTitForTat::decide(const game::History& history,
                                std::size_t self) {
  if (history.empty() || feed_->empty()) return initial_w_;
  // Match the most aggressive *estimated* window, own true window included
  // (a node knows its own configuration exactly).
  double min_est = static_cast<double>(history.back().cw.at(self));
  for (std::size_t j = 0; j < feed_->size(); ++j) {
    if (j == self) continue;
    min_est = std::min(min_est, (*feed_)[j]);
  }
  return std::max(1, static_cast<int>(min_est + 0.5));
}

// ---- EstimatingGtft ----

EstimatingGtft::EstimatingGtft(int initial_w, double beta, int window_stages,
                               Feed feed)
    : initial_w_(initial_w), beta_(beta), r0_(window_stages),
      feed_(std::move(feed)) {
  if (initial_w < 1) throw std::invalid_argument("EstimatingGtft: initial_w < 1");
  if (!(beta > 0.0) || !(beta < 1.0)) {
    throw std::invalid_argument("EstimatingGtft: beta outside (0,1)");
  }
  if (window_stages < 1) {
    throw std::invalid_argument("EstimatingGtft: window_stages < 1");
  }
  if (!feed_) throw std::invalid_argument("EstimatingGtft: null feed");
}

int EstimatingGtft::decide(const game::History& history, std::size_t self) {
  if (history.empty() || feed_->empty()) return initial_w_;
  recent_.push_back(*feed_);
  if (static_cast<int>(recent_.size()) > r0_) {
    recent_.erase(recent_.begin());
  }

  const int current = history.back().cw.at(self);
  const std::size_t n = feed_->size();
  bool someone_aggressive = false;
  double min_avg = static_cast<double>(current);
  for (std::size_t j = 0; j < n; ++j) {
    if (j == self) continue;
    double avg = 0.0;
    for (const auto& snapshot : recent_) avg += snapshot[j];
    avg /= static_cast<double>(recent_.size());
    min_avg = std::min(min_avg, avg);
    if (avg < beta_ * current) someone_aggressive = true;
  }
  if (!someone_aggressive) return current;
  return std::max(1, static_cast<int>(min_avg + 0.5));
}

std::string EstimatingGtft::name() const {
  std::ostringstream os;
  os << "gtft-estimating(beta=" << beta_ << ",r0=" << r0_ << ")";
  return os.str();
}

// ---- DetectorGtft ----

DetectorGtft::DetectorGtft(int initial_w, EstimateFeed estimates,
                           FlagFeed flags)
    : initial_w_(initial_w), estimates_(std::move(estimates)),
      flags_(std::move(flags)) {
  if (initial_w < 1) throw std::invalid_argument("DetectorGtft: initial_w < 1");
  if (!estimates_ || !flags_) {
    throw std::invalid_argument("DetectorGtft: null feed");
  }
}

int DetectorGtft::decide(const game::History& history, std::size_t self) {
  if (history.empty() || flags_->empty()) return initial_w_;
  const int current = history.back().cw.at(self);
  bool any_flagged = false;
  double min_flagged_estimate = static_cast<double>(current);
  for (std::size_t j = 0; j < flags_->size(); ++j) {
    if (j == self || !(*flags_)[j]) continue;
    any_flagged = true;
    min_flagged_estimate =
        std::min(min_flagged_estimate, (*estimates_)[j]);
  }
  if (!any_flagged) return current;
  // TFT-style retaliation, but only against proven aggression: match the
  // most aggressive *flagged* node's estimated window.
  return std::max(1, static_cast<int>(min_flagged_estimate + 0.5));
}

}  // namespace smac::sim
