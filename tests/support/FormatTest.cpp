//===- tests/support/FormatTest.cpp - formatStr tests -----------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Format.h"

#include <gtest/gtest.h>

using namespace pf;

TEST(FormatTest, Basic) {
  EXPECT_EQ(formatStr("hello"), "hello");
  EXPECT_EQ(formatStr("%d", 42), "42");
  EXPECT_EQ(formatStr("%s=%d", "x", -7), "x=-7");
}

TEST(FormatTest, Floats) {
  EXPECT_EQ(formatStr("%.2f", 3.14159), "3.14");
  EXPECT_EQ(formatStr("%.0f%%", 99.6), "100%");
}

TEST(FormatTest, Empty) { EXPECT_EQ(formatStr("%s", ""), ""); }

TEST(FormatTest, LongOutput) {
  std::string Long(1000, 'x');
  EXPECT_EQ(formatStr("%s", Long.c_str()).size(), 1000u);
}

TEST(FormatTest, MixedArguments) {
  EXPECT_EQ(formatStr("%s/%d/%.1f", "a", 1, 2.5), "a/1/2.5");
}

namespace {

/// Formats text of exactly \p Size characters three ways.
void expectFormatsAt(size_t Size) {
  const std::string Text(Size, 'x');
  EXPECT_EQ(formatStr("%s", Text.c_str()), Text);
  // A conversion that straddles the end of the stack buffer.
  const std::string Head(Size - 3, 'y');
  EXPECT_EQ(formatStr("%s%d", Head.c_str(), 123), Head + "123");
  EXPECT_EQ(formatStr("%.*s|%s", 2, "abc", Head.c_str()), "ab|" + Head);
}

} // namespace

// One character short of the buffer fits with its terminator; from the
// buffer size on, the text is formatted again into the string.
TEST(FormatTest, OneShortOfTheStackBuffer) {
  expectFormatsAt(FormatStackBytes - 1);
}

TEST(FormatTest, StackBufferSize) { expectFormatsAt(FormatStackBytes); }

TEST(FormatTest, OnePastTheStackBuffer) {
  expectFormatsAt(FormatStackBytes + 1);
}
