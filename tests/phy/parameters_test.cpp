#include "phy/parameters.hpp"

#include <gtest/gtest.h>

#include <ostream>

namespace smac::phy {
namespace {

TEST(ParametersTest, TableIDefaults) {
  const Parameters p = Parameters::paper();
  EXPECT_DOUBLE_EQ(p.payload_bits, 8184.0);
  EXPECT_DOUBLE_EQ(p.mac_header_bits, 272.0);
  EXPECT_DOUBLE_EQ(p.phy_header_bits, 128.0);
  EXPECT_DOUBLE_EQ(p.ack_bits, 112.0);
  EXPECT_DOUBLE_EQ(p.rts_bits, 160.0);
  EXPECT_DOUBLE_EQ(p.cts_bits, 112.0);
  EXPECT_DOUBLE_EQ(p.bitrate_bps, 1.0e6);
  EXPECT_DOUBLE_EQ(p.sigma_us, 50.0);
  EXPECT_DOUBLE_EQ(p.sifs_us, 28.0);
  EXPECT_DOUBLE_EQ(p.difs_us, 128.0);
  EXPECT_DOUBLE_EQ(p.gain, 1.0);
  EXPECT_DOUBLE_EQ(p.cost, 0.01);
  EXPECT_DOUBLE_EQ(p.stage_duration_s, 10.0);
  EXPECT_DOUBLE_EQ(p.discount, 0.9999);
  EXPECT_NO_THROW(p.validate());
}

TEST(ParametersTest, AirtimesAt1Mbps) {
  const Parameters p = Parameters::paper();
  // At 1 Mbit/s, 1 bit = 1 µs.
  EXPECT_DOUBLE_EQ(p.header_us(), 400.0);   // 272 + 128
  EXPECT_DOUBLE_EQ(p.payload_us(), 8184.0);
  EXPECT_DOUBLE_EQ(p.ack_us(), 240.0);      // 112 + 128
  EXPECT_DOUBLE_EQ(p.rts_us(), 288.0);      // 160 + 128
  EXPECT_DOUBLE_EQ(p.cts_us(), 240.0);      // 112 + 128
}

TEST(ParametersTest, BasicSlotTimes) {
  const Parameters p = Parameters::paper();
  const SlotTimes t = p.slot_times(AccessMode::kBasic);
  // Ts = H + P + SIFS + ACK + DIFS = 400+8184+28+240+128.
  EXPECT_DOUBLE_EQ(t.ts_us, 8980.0);
  // Tc = H + P + SIFS (paper §III).
  EXPECT_DOUBLE_EQ(t.tc_us, 8612.0);
  EXPECT_DOUBLE_EQ(t.sigma_us, 50.0);
  // Basic access: collisions nearly as expensive as successes.
  EXPECT_GT(t.tc_us / t.ts_us, 0.9);
}

TEST(ParametersTest, RtsCtsSlotTimes) {
  const Parameters p = Parameters::paper();
  const SlotTimes t = p.slot_times(AccessMode::kRtsCts);
  // Ts' = RTS+SIFS+CTS+SIFS+H+P+SIFS+ACK+DIFS.
  EXPECT_DOUBLE_EQ(t.ts_us, 288 + 28 + 240 + 28 + 400 + 8184 + 28 + 240 + 128);
  // Tc' = RTS + DIFS.
  EXPECT_DOUBLE_EQ(t.tc_us, 416.0);
  // The whole point of RTS/CTS: collisions are cheap (Tc' << Ts').
  EXPECT_LT(t.tc_us / t.ts_us, 0.05);
}

TEST(ParametersTest, HigherBitrateShrinksAirtime) {
  Parameters p = Parameters::paper();
  p.bitrate_bps = 2.0e6;
  EXPECT_DOUBLE_EQ(p.payload_us(), 4092.0);
  const SlotTimes t = p.slot_times(AccessMode::kBasic);
  EXPECT_LT(t.ts_us, 8980.0);
}

TEST(ParametersTest, ToStringNames) {
  EXPECT_EQ(to_string(AccessMode::kBasic), "basic");
  EXPECT_EQ(to_string(AccessMode::kRtsCts), "rts-cts");
}

/// One invalid-field case: `mutate` breaks one field of the paper
/// defaults. PrintTo shows `name` as the parameter, so the ctest id reads
/// `RejectsInvalidField/<name>` and is the same in every build (gtest's
/// default printout of a callable is its bytes, heap addresses included).
struct InvalidField {
  const char* name;
  void (*mutate)(Parameters&);
};

void PrintTo(const InvalidField& field, std::ostream* os) { *os << field.name; }

class ParameterValidationTest : public ::testing::TestWithParam<InvalidField> {
};

TEST_P(ParameterValidationTest, RejectsInvalidField) {
  Parameters p = Parameters::paper();
  GetParam().mutate(p);
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(
    InvalidFields, ParameterValidationTest,
    ::testing::Values(
        InvalidField{"PayloadBitsZero",
                     [](Parameters& p) { p.payload_bits = 0.0; }},
        InvalidField{"BitrateNegative",
                     [](Parameters& p) { p.bitrate_bps = -1.0; }},
        InvalidField{"SigmaZero", [](Parameters& p) { p.sigma_us = 0.0; }},
        InvalidField{"SifsNegative", [](Parameters& p) { p.sifs_us = -5.0; }},
        InvalidField{"DifsZero", [](Parameters& p) { p.difs_us = 0.0; }},
        InvalidField{"StageDurationZero",
                     [](Parameters& p) { p.stage_duration_s = 0.0; }},
        InvalidField{"GainZero", [](Parameters& p) { p.gain = 0.0; }},
        InvalidField{"CostNegative", [](Parameters& p) { p.cost = -0.01; }},
        InvalidField{"MaxBackoffStageNegative",
                     [](Parameters& p) { p.max_backoff_stage = -1; }},
        InvalidField{"WMaxZero", [](Parameters& p) { p.w_max = 0; }},
        InvalidField{"DiscountOne", [](Parameters& p) { p.discount = 1.0; }},
        InvalidField{"DiscountZero",
                     [](Parameters& p) { p.discount = 0.0; }}));

}  // namespace
}  // namespace smac::phy
