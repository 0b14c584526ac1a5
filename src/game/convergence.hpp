// Convergence facts of a played horizon (paper §IV property 4, §VI
// Theorem 3): the window the final profile settled on, and the stage from
// which the profile stopped moving. One definition for every engine — the
// model-driven RepeatedGameEngine, the measured sim::AdaptiveRuntime and
// the multihop play_multihop_tft / play_multihop_enforced runs.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

namespace smac::game {

struct ConvergenceFacts {
  /// Common window if the final profile is uniform, else nullopt.
  std::optional<int> converged_cw;
  /// First stage from which the profile never changes again: the last
  /// stage's index when the final stage differs from the one before it.
  int stable_from = 0;
};

/// `stages` is the played horizon in order; each element carries its
/// profile as a `std::vector<int> cw` member (game::StageRecord,
/// multihop::MultihopStage). An empty horizon has no facts: nullopt, 0.
template <typename Stage>
ConvergenceFacts convergence_facts(const std::vector<Stage>& stages) {
  ConvergenceFacts facts;
  if (stages.empty()) return facts;
  const std::vector<int>& last = stages.back().cw;
  bool uniform = true;
  for (const int w : last) uniform = uniform && w == last.front();
  if (uniform && !last.empty()) facts.converged_cw = last.front();
  facts.stable_from = static_cast<int>(stages.size());
  while (facts.stable_from > 0 &&
         stages[static_cast<std::size_t>(facts.stable_from - 1)].cw == last) {
    --facts.stable_from;
  }
  return facts;
}

}  // namespace smac::game
