// Command-line value parsers (common/flags.hpp): every malformed or
// out-of-range flag value must throw, never wrap or truncate into a
// different setting that still looks valid.
#include "common/flags.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>

namespace probft {
namespace {

TEST(Flags, UintAcceptsDecimalDigitsUpToTheDestinationMax) {
  EXPECT_EQ(parse_uint("0"), 0u);
  EXPECT_EQ(parse_uint("18446744073709551615"), UINT64_MAX);
  EXPECT_EQ(parse_uint<std::uint16_t>("65535"), 65535u);
  EXPECT_EQ(parse_uint<std::uint32_t>("4294967295"), 4294967295u);
  EXPECT_EQ(parse_uint<std::uint32_t>("1024", 1024), 1024u);
}

TEST(Flags, UintRejectsOverRangeValues) {
  // `--client-port 92437` used to listen on 92437 mod 2^16 = 26901, and
  // `--id 4294967297` ran as replica 1.
  EXPECT_THROW((void)parse_uint<std::uint16_t>("92437"), std::invalid_argument);
  EXPECT_THROW((void)parse_uint<std::uint16_t>("65536"), std::invalid_argument);
  EXPECT_THROW((void)parse_uint<std::uint32_t>("4294967297"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_uint("18446744073709551616"), std::invalid_argument);
  EXPECT_THROW((void)parse_uint<std::uint32_t>("1025", 1024),
               std::invalid_argument);
}

TEST(Flags, UintRejectsSignsWhitespaceAndTrailingGarbage) {
  for (const char* bad : {"", "-1", "-0", "+1", " 1", "1 ", "16abc", "0x10",
                          "1.5", "1e3", "abc"}) {
    EXPECT_THROW((void)parse_uint(bad), std::invalid_argument) << bad;
  }
}

TEST(Flags, MillisecondBoundKeepsTheMicrosecondConversionInRange) {
  EXPECT_EQ(kMaxFlagMs * 1000 / 1000, kMaxFlagMs);
  EXPECT_THROW((void)parse_uint(std::to_string(kMaxFlagMs + 1), kMaxFlagMs),
               std::invalid_argument);
}

TEST(Flags, FactorAcceptsFinitePositiveValuesUpTo100) {
  EXPECT_DOUBLE_EQ(parse_factor("1.7"), 1.7);
  EXPECT_DOUBLE_EQ(parse_factor("2"), 2.0);
  EXPECT_DOUBLE_EQ(parse_factor("100"), 100.0);
}

TEST(Flags, FactorRejectsNanInfinityRangeAndGarbage) {
  for (const char* bad : {"nan", "NaN", "inf", "-inf", "0", "-1.5", "100.5",
                          "1e999", "1.5x", " 1.5", "", "x"}) {
    EXPECT_THROW((void)parse_factor(bad), std::invalid_argument) << bad;
  }
}

TEST(Flags, FiniteRejectsNan) {
  EXPECT_DOUBLE_EQ(parse_finite("0.25"), 0.25);
  EXPECT_DOUBLE_EQ(parse_finite("-3"), -3.0);
  EXPECT_THROW((void)parse_finite("nan"), std::invalid_argument);
  EXPECT_THROW((void)parse_finite("0.5."), std::invalid_argument);
}

TEST(Flags, HostPortSplitsAtTheLastColon) {
  const HostPort hp = parse_host_port("127.0.0.1:9001");
  EXPECT_EQ(hp.host, "127.0.0.1");
  EXPECT_EQ(hp.port, 9001u);
  EXPECT_EQ(parse_host_port("::1:65535").host, "::1");
}

TEST(Flags, HostPortRejectsBadPorts) {
  for (const char* bad : {"host:70000", "host:0", "host:-1", "host:80x",
                          "host:", ":9001", "host", "host:+80"}) {
    EXPECT_THROW((void)parse_host_port(bad), std::invalid_argument) << bad;
  }
}

}  // namespace
}  // namespace probft
