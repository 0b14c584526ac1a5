// FaultPlan validation and FaultInjector determinism: the fault
// trajectory must be a pure function of (plan, node_count, seed) and the
// injector must enforce its stage-ordering contract.
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "gtest/gtest.h"
#include "util/rng.hpp"

namespace {

using namespace smac;
using fault::FaultInjector;
using fault::FaultKind;
using fault::FaultPlan;

TEST(FaultPlan, ValidatesRates) {
  FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_NO_THROW(plan.validate());

  plan.churn.crash_rate = 1.5;
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan.churn.crash_rate = 0.1;
  EXPECT_FALSE(plan.empty());
  EXPECT_NO_THROW(plan.validate());

  plan.channel.p_good_to_bad = 0.2;
  plan.channel.per_bad = -0.1;
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan.channel.per_bad = 0.5;
  EXPECT_NO_THROW(plan.validate());

  plan.observation.loss_probability = 2.0;
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan.observation.loss_probability = 0.1;
  plan.observation.noise_probability = 0.1;
  plan.observation.noise_magnitude = 0;
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan.observation.noise_magnitude = 2;
  EXPECT_NO_THROW(plan.validate());
}

TEST(FaultPlan, EnabledPredicates) {
  fault::GilbertElliottConfig ge;
  EXPECT_FALSE(ge.enabled());
  ge.p_good_to_bad = 0.1;
  EXPECT_FALSE(ge.enabled());  // per_bad still 0: Bad state is harmless
  ge.per_bad = 0.3;
  EXPECT_TRUE(ge.enabled());
}

TEST(FaultPlan, SlotEventsAreCheckedThenOrderedBySlot) {
  fault::SlotFaultPlan plan;
  plan.events = {{50, 1, FaultKind::kCrash},
                 {10, 2, FaultKind::kCrash},
                 {50, 0, FaultKind::kJoin},
                 {10, 0, FaultKind::kCrash}};
  plan.order_events(3);
  // By slot; declaration order kept within a slot.
  const std::vector<std::pair<std::uint64_t, std::size_t>> expected{
      {10, 2}, {10, 0}, {50, 1}, {50, 0}};
  ASSERT_EQ(plan.events.size(), expected.size());
  for (std::size_t e = 0; e < expected.size(); ++e) {
    EXPECT_EQ(plan.events[e].slot, expected[e].first) << e;
    EXPECT_EQ(plan.events[e].node, expected[e].second) << e;
  }
  EXPECT_EQ(plan.events[3].kind, FaultKind::kJoin);
  EXPECT_THROW(plan.order_events(2), std::invalid_argument);  // node 2
}

TEST(FaultInjector, RejectsOutOfRangeScriptedNode) {
  FaultPlan plan;
  plan.scripted.push_back({0, 5, FaultKind::kCrash});
  EXPECT_THROW(FaultInjector(plan, 4, 1), std::invalid_argument);
  EXPECT_NO_THROW(FaultInjector(plan, 6, 1));
}

TEST(FaultInjector, ScriptedCrashAndJoinToggleOnlineMask) {
  FaultPlan plan;
  plan.scripted.push_back({2, 1, FaultKind::kCrash});
  plan.scripted.push_back({5, 1, FaultKind::kJoin});
  FaultInjector injector(plan, 3, 7);
  for (int k = 0; k < 8; ++k) {
    injector.begin_stage(k);
    const bool expect_up = k < 2 || k >= 5;
    EXPECT_EQ(injector.online(1), expect_up) << "stage " << k;
    EXPECT_TRUE(injector.online(0));
    EXPECT_TRUE(injector.online(2));
    EXPECT_EQ(injector.online_count(), expect_up ? 3u : 2u);
  }
  EXPECT_EQ(injector.crash_events(), 1);
  EXPECT_EQ(injector.join_events(), 1);
  EXPECT_EQ(injector.last_fault_stage(), 5);
}

TEST(FaultInjector, RewindingStagesThrows) {
  FaultInjector injector(FaultPlan{}, 2, 1);
  injector.begin_stage(0);
  injector.begin_stage(1);
  EXPECT_THROW(injector.begin_stage(1), std::invalid_argument);
  EXPECT_THROW(injector.begin_stage(0), std::invalid_argument);
  EXPECT_NO_THROW(injector.begin_stage(3));  // skipping forward is allowed
}

TEST(FaultInjector, TrajectoryIsPureFunctionOfSeed) {
  FaultPlan plan;
  plan.churn.crash_rate = 0.1;
  plan.churn.recover_rate = 0.3;
  plan.channel.p_good_to_bad = 0.2;
  plan.channel.p_bad_to_good = 0.3;
  plan.channel.per_bad = 0.5;
  plan.observation.loss_probability = 0.2;
  plan.observation.noise_probability = 0.2;
  plan.observation.noise_magnitude = 3;

  FaultInjector a(plan, 5, 42);
  FaultInjector b(plan, 5, 42);
  FaultInjector c(plan, 5, 43);
  bool any_difference_from_c = false;
  for (int k = 0; k < 200; ++k) {
    a.begin_stage(k);
    b.begin_stage(k);
    c.begin_stage(k);
    ASSERT_EQ(a.online_mask(), b.online_mask()) << "stage " << k;
    ASSERT_EQ(a.channel_bad(), b.channel_bad()) << "stage " << k;
    const fault::Observation oa = a.observe_cw(32, 16);
    const fault::Observation ob = b.observe_cw(32, 16);
    ASSERT_EQ(oa.cw, ob.cw);
    ASSERT_EQ(oa.lost, ob.lost);
    ASSERT_EQ(oa.noisy, ob.noisy);
    if (a.online_mask() != c.online_mask() ||
        a.channel_bad() != c.channel_bad()) {
      any_difference_from_c = true;
    }
    (void)c.observe_cw(32, 16);
  }
  EXPECT_EQ(a.crash_events(), b.crash_events());
  EXPECT_EQ(a.lost_observations(), b.lost_observations());
  EXPECT_EQ(a.noisy_observations(), b.noisy_observations());
  EXPECT_TRUE(any_difference_from_c);  // different seed, different faults
}

TEST(FaultInjector, ObservationLossReturnsFallback) {
  FaultPlan plan;
  plan.observation.loss_probability = 1.0;
  FaultInjector injector(plan, 2, 9);
  injector.begin_stage(0);
  const fault::Observation obs = injector.observe_cw(64, 17);
  EXPECT_TRUE(obs.lost);
  EXPECT_EQ(obs.cw, 17);
  EXPECT_EQ(injector.lost_observations(), 1u);
  EXPECT_EQ(injector.noisy_observations(), 0u);
}

TEST(FaultInjector, ObservationNoiseStaysBoundedAndPositive) {
  FaultPlan plan;
  plan.observation.noise_probability = 1.0;
  plan.observation.noise_magnitude = 4;
  FaultInjector injector(plan, 2, 9);
  injector.begin_stage(0);
  std::uint64_t changed = 0;
  for (int i = 0; i < 200; ++i) {
    const fault::Observation obs = injector.observe_cw(3, 3);
    EXPECT_GE(obs.cw, 1);  // clamped: windows below 1 do not exist
    EXPECT_LE(obs.cw, 7);
    EXPECT_EQ(obs.noisy, obs.cw != 3);  // flag iff the value changed
    if (obs.noisy) ++changed;
  }
  EXPECT_GT(changed, 0u);
  EXPECT_EQ(injector.noisy_observations(), changed);
}

TEST(FaultInjector, DisabledObservationIsPassThrough) {
  FaultInjector injector(FaultPlan{}, 2, 9);
  injector.begin_stage(0);
  const fault::Observation obs = injector.observe_cw(64, 17);
  EXPECT_FALSE(obs.lost);
  EXPECT_FALSE(obs.noisy);
  EXPECT_EQ(obs.cw, 64);
  EXPECT_EQ(injector.lost_observations(), 0u);
}

TEST(GilbertElliottChannel, EffectivePerLayersOnBase) {
  fault::GilbertElliottConfig config;
  config.p_good_to_bad = 1.0;  // deterministic: Good -> Bad on first step
  config.p_bad_to_good = 0.0;
  config.per_bad = 0.5;
  fault::GilbertElliottChannel channel(config, util::Rng(1));
  EXPECT_FALSE(channel.bad());
  EXPECT_DOUBLE_EQ(channel.effective_per(0.2), 0.2);
  channel.step();
  EXPECT_TRUE(channel.bad());
  // PER_eff = 1 - (1 - 0.2)(1 - 0.5) = 0.6
  EXPECT_NEAR(channel.effective_per(0.2), 0.6, 1e-12);
}

TEST(GilbertElliottChannel, DisabledChainNeverLeavesGood) {
  fault::GilbertElliottChannel channel({}, util::Rng(1));
  for (int i = 0; i < 100; ++i) channel.step();
  EXPECT_FALSE(channel.bad());
  EXPECT_DOUBLE_EQ(channel.effective_per(0.3), 0.3);
}

}  // namespace
