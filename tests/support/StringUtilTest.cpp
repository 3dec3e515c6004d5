//===- tests/support/StringUtilTest.cpp - string helper tests ---*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/StringUtil.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "DoubleSamples.h"
#include "support/Format.h"

using namespace pf;

TEST(StringUtilTest, Split) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(split("x", ','), (std::vector<std::string>{"x"}));
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(join({"a", "b"}, "-"), "a-b");
  EXPECT_EQ(join({}, "-"), "");
  EXPECT_EQ(join({"solo"}, ","), "solo");
}

TEST(StringUtilTest, SplitJoinRoundTrip) {
  const std::string S = "one,two,three";
  EXPECT_EQ(join(split(S, ','), ","), S);
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim("x"), "x");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("\ta b\n"), "a b");
}

TEST(StringUtilTest, Prefixes) {
  EXPECT_TRUE(startsWith("conv2d_3", "conv"));
  EXPECT_FALSE(startsWith("conv", "conv2d"));
  EXPECT_TRUE(endsWith("a.out", ".out"));
  EXPECT_FALSE(endsWith("out", "a.out"));
}

TEST(StringUtilTest, ParseIntAcceptsStrictDecimals) {
  EXPECT_EQ(parseInt("0"), 0);
  EXPECT_EQ(parseInt("42"), 42);
  EXPECT_EQ(parseInt("-7"), -7);
  EXPECT_EQ(parseInt("+13"), 13);
  EXPECT_EQ(parseInt("9223372036854775807"), INT64_MAX);
  EXPECT_EQ(parseInt("-9223372036854775808"), INT64_MIN);
}

TEST(StringUtilTest, ParseIntRejectsJunk) {
  EXPECT_FALSE(parseInt(""));
  EXPECT_FALSE(parseInt("abc"));
  EXPECT_FALSE(parseInt("12x"));   // atoi would return 12.
  EXPECT_FALSE(parseInt("x12"));   // atoi would return 0.
  EXPECT_FALSE(parseInt(" 3"));    // No implicit whitespace skipping.
  EXPECT_FALSE(parseInt("3 "));
  EXPECT_FALSE(parseInt("+"));
  EXPECT_FALSE(parseInt("-"));
  EXPECT_FALSE(parseInt("+-3"));
  EXPECT_FALSE(parseInt("1.5"));
  EXPECT_FALSE(parseInt("0x10"));
}

TEST(StringUtilTest, ParseIntRejectsOverflow) {
  EXPECT_FALSE(parseInt("9223372036854775808"));  // INT64_MAX + 1.
  EXPECT_FALSE(parseInt("-9223372036854775809")); // INT64_MIN - 1.
  EXPECT_FALSE(parseInt("999999999999999999999999"));
}

TEST(StringUtilTest, ParseUintAcceptsFullRange) {
  EXPECT_EQ(parseUint("0"), 0u);
  EXPECT_EQ(parseUint("18446744073709551615"), UINT64_MAX);
}

TEST(StringUtilTest, ParseUintRejectsSignsAndJunk) {
  EXPECT_FALSE(parseUint("-1").has_value());
  EXPECT_FALSE(parseUint("+1").has_value());
  EXPECT_FALSE(parseUint("12x").has_value());
  EXPECT_FALSE(parseUint("").has_value());
  EXPECT_FALSE(parseUint("18446744073709551616").has_value()); // 2^64
}

TEST(StringUtilTest, ParseDoubleAcceptsDecimalForms) {
  EXPECT_EQ(parseDouble("1.5"), 1.5);
  EXPECT_EQ(parseDouble("+1.5"), 1.5);
  EXPECT_EQ(parseDouble("-2.5e-3"), -2.5e-3);
  EXPECT_EQ(parseDouble(".5"), 0.5);
  EXPECT_EQ(parseDouble("5."), 5.0);
  EXPECT_EQ(parseDouble("1E5"), 1e5);
  const std::optional<double> NegZero = parseDouble("-0");
  ASSERT_TRUE(NegZero);
  EXPECT_EQ(*NegZero, 0.0);
  EXPECT_TRUE(std::signbit(*NegZero));
  // %.17g prints subnormals; they must read back.
  EXPECT_EQ(parseDouble("1e-320"), std::strtod("1e-320", nullptr));
  EXPECT_EQ(parseDouble("4.9406564584124654e-324"),
            std::numeric_limits<double>::denorm_min());
}

TEST(StringUtilTest, ParseDoubleRejectsWhatParseIntWould) {
  // parseInt's discipline: the whole string, decimal only, no whitespace.
  EXPECT_FALSE(parseDouble(""));
  EXPECT_FALSE(parseDouble(" 1.5"));
  EXPECT_FALSE(parseDouble("1.5 "));
  EXPECT_FALSE(parseDouble("\t1.5"));
  EXPECT_FALSE(parseDouble("1.5x"));
  EXPECT_FALSE(parseDouble("0x1p3"));
  EXPECT_FALSE(parseDouble("0x10"));
  EXPECT_FALSE(parseDouble("+"));
  EXPECT_FALSE(parseDouble("-"));
  EXPECT_FALSE(parseDouble("+-1"));
  EXPECT_FALSE(parseDouble("++1"));
  EXPECT_FALSE(parseDouble("."));
  EXPECT_FALSE(parseDouble("e5"));
  // Not finite, or not representable.
  EXPECT_FALSE(parseDouble("nan"));
  EXPECT_FALSE(parseDouble("inf"));
  EXPECT_FALSE(parseDouble("-inf"));
  EXPECT_FALSE(parseDouble("infinity"));
  EXPECT_FALSE(parseDouble("1e400"));
  EXPECT_FALSE(parseDouble("-1e400"));
  EXPECT_FALSE(parseDouble("1e-400")); // Underflows to zero.
}

TEST(StringUtilTest, ParseDoubleMatchesStrtodBitForBit) {
  Rng R(0xD0B1E5);
  size_t Mismatches = 0;
  char Buf[64];
  for (int I = 0; I < 1'000'000; ++I) {
    const double D = sampleDouble(R);
    std::snprintf(Buf, sizeof(Buf), "%.17g", D);
    const std::optional<double> Parsed = parseDouble(Buf);
    const double Ref = std::strtod(Buf, nullptr);
    if (Parsed && std::memcmp(&*Parsed, &Ref, sizeof(double)) == 0)
      continue;
    if (++Mismatches <= 5)
      ADD_FAILURE() << Buf << " parsed to "
                    << (Parsed ? std::to_string(*Parsed) : "nothing");
  }
  EXPECT_EQ(Mismatches, 0u);
}

TEST(StringUtilTest, AppendIntMatchesPrintf) {
  for (int64_t V : {int64_t{0}, int64_t{-1}, int64_t{42}, INT64_MAX,
                    INT64_MIN}) {
    std::string S = "x";
    appendInt(S, V);
    EXPECT_EQ(S, formatStr("x%lld", static_cast<long long>(V)));
  }
  for (uint64_t V : {uint64_t{0}, uint64_t{7}, UINT64_MAX}) {
    std::string S;
    appendUint(S, V);
    EXPECT_EQ(S, formatStr("%llu", static_cast<unsigned long long>(V)));
  }
}

TEST(StringUtilTest, AppendDoubleMatchesPrintf) {
  // %.17g for artifacts and logs, %.9g for graph attributes, %.2f for the
  // profiler's MD-DP mode keys.
  Rng R(0xA99E7D);
  size_t Mismatches = 0;
  char Buf[400];
  auto Expect = [&](const std::string &Got, double D, const char *Fmt) {
    if (Got != Buf && ++Mismatches <= 5)
      ADD_FAILURE() << Fmt << " of " << D << ": got " << Got << ", printf "
                    << Buf;
  };
  for (int I = 0; I < 1'000'000; ++I) {
    const double D = sampleDouble(R);
    std::string S;
    appendDouble(S, D);
    std::snprintf(Buf, sizeof(Buf), "%.17g", D);
    Expect(S, D, "%.17g");
    if (I % 4 != 0)
      continue;
    S.clear();
    appendDouble(S, D, 9);
    std::snprintf(Buf, sizeof(Buf), "%.9g", D);
    Expect(S, D, "%.9g");
    S.clear();
    appendFixed(S, D, 2);
    std::snprintf(Buf, sizeof(Buf), "%.2f", D);
    Expect(S, D, "%.2f");
  }
  for (double D : {std::numeric_limits<double>::infinity(),
                   -std::numeric_limits<double>::infinity(), -0.0,
                   std::numeric_limits<double>::max()}) {
    std::string S;
    appendDouble(S, D);
    std::snprintf(Buf, sizeof(Buf), "%.17g", D);
    Expect(S, D, "%.17g");
    S.clear();
    appendFixed(S, D, 2);
    std::snprintf(Buf, sizeof(Buf), "%.2f", D);
    Expect(S, D, "%.2f");
  }
  EXPECT_EQ(Mismatches, 0u);
}

TEST(StringUtilTest, Fnv1a64HexKeepsItsDigests) {
  // The offset basis is 1469598103934665603, the published FNV-64 basis
  // without its last digit. Every artifact, plan cache name and profile
  // log carries digests under it, so it stays; these pin it and the
  // zero-padded lower-case rendering.
  EXPECT_EQ(fnv1a64Hex(""), "14650fb0739d0383");
  EXPECT_EQ(fnv1a64Hex("a"), "44bd8ad473cd9906");
  EXPECT_EQ(fnv1a64Hex("foobar"), "88fad7c0a8ff07f2");
}
