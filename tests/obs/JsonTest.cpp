//===- tests/obs/JsonTest.cpp - JSON writer/parser tests --------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "obs/Json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

#include "../support/DoubleSamples.h"

using namespace pf;
using obs::JsonValue;
using obs::JsonWriter;

TEST(JsonWriterTest, NestedContainersAndCommas) {
  JsonWriter W;
  W.beginObject()
      .field("a", 1)
      .key("l")
      .beginArray()
      .value("x")
      .value(2)
      .value(true)
      .nullValue()
      .endArray()
      .key("o")
      .beginObject()
      .field("b", 2.5)
      .endObject()
      .endObject();
  EXPECT_EQ(W.take(), "{\"a\":1,\"l\":[\"x\",2,true,null],\"o\":{\"b\":2.5}}");
}

TEST(JsonWriterTest, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(obs::jsonEscape("a\"b\\c\n\t"), "a\\\"b\\\\c\\n\\t");
  EXPECT_EQ(obs::jsonEscape(std::string("\x01", 1)), "\\u0001");
}

TEST(JsonWriterTest, DoublesSurviveRoundTrip) {
  for (double D : {0.0, 1.5, -3.25, 1e-9, 123456789.123456, 1.0 / 3.0}) {
    JsonWriter W;
    W.beginArray().value(D).endArray();
    const auto Doc = JsonValue::parse(W.take());
    ASSERT_TRUE(Doc.has_value());
    ASSERT_EQ(Doc->Array.size(), 1u);
    EXPECT_EQ(Doc->Array[0].Number, D);
  }
}

namespace {

/// The writer's former number search, kept as the reference: the first of
/// %.1g .. %.16g that strtod parses back exactly, else %.17g.
std::string printfSearch(double D) {
  char Buf[32];
  for (int Prec = 1; Prec < 17; ++Prec) {
    std::snprintf(Buf, sizeof(Buf), "%.*g", Prec, D);
    if (std::strtod(Buf, nullptr) == D)
      return Buf;
  }
  std::snprintf(Buf, sizeof(Buf), "%.17g", D);
  return Buf;
}

} // namespace

TEST(JsonWriterTest, ShortestTextMatchesPrintfSearch) {
  size_t Checked = 0, Mismatches = 0;
  JsonWriter W;
  auto Check = [&](double D) {
    W.value(D);
    const std::string Got = W.take();
    ++Checked;
    if (Got != printfSearch(D) && ++Mismatches <= 5)
      ADD_FAILURE() << "got " << Got << ", printf search "
                    << printfSearch(D);
  };
  // Every power of two in +-1000: where the rounding interval is lopsided
  // and the shortest digits can round-trip while the nearest decimal of
  // as many digits does not.
  for (int E = -1000; E <= 1000; ++E) {
    Check(std::ldexp(1.0, E));
    Check(-std::ldexp(1.0, E));
  }
  pf::Rng R(0x15011);
  while (Checked < 1'000'000)
    Check(pf::sampleDouble(R));
  EXPECT_EQ(Mismatches, 0u) << "of " << Checked;
}

TEST(JsonParserTest, ParsesDocumentShapes) {
  const auto Doc = JsonValue::parse(
      R"({"s":"hi","n":-2.5e2,"b":false,"z":null,"a":[1,2],"o":{"k":"v"}})");
  ASSERT_TRUE(Doc.has_value());
  ASSERT_TRUE(Doc->isObject());
  EXPECT_EQ(Doc->find("s")->Str, "hi");
  EXPECT_EQ(Doc->find("n")->Number, -250.0);
  EXPECT_FALSE(Doc->find("b")->Boolean);
  EXPECT_EQ(Doc->find("z")->K, JsonValue::Kind::Null);
  ASSERT_EQ(Doc->find("a")->Array.size(), 2u);
  EXPECT_EQ(Doc->find("o")->find("k")->Str, "v");
  EXPECT_EQ(Doc->find("missing"), nullptr);
  EXPECT_EQ(Doc->numberOr("n", 7.0), -250.0);
  EXPECT_EQ(Doc->numberOr("s", 7.0), 7.0);
}

TEST(JsonParserTest, DecodesStringEscapes) {
  const auto Doc = JsonValue::parse(R"(["a\"b\\\nAé"])");
  ASSERT_TRUE(Doc.has_value());
  EXPECT_EQ(Doc->Array[0].Str, "a\"b\\\nA\xc3\xa9");
}

TEST(JsonParserTest, RejectsMalformedInput) {
  std::string Error;
  EXPECT_FALSE(JsonValue::parse("{", &Error).has_value());
  EXPECT_FALSE(Error.empty());
  EXPECT_FALSE(JsonValue::parse("[1,]").has_value());
  EXPECT_FALSE(JsonValue::parse("{\"a\" 1}").has_value());
  EXPECT_FALSE(JsonValue::parse("\"unterminated").has_value());
  EXPECT_FALSE(JsonValue::parse("tru").has_value());
  EXPECT_FALSE(JsonValue::parse("1 2").has_value()); // Trailing garbage.
  EXPECT_FALSE(JsonValue::parse("").has_value());
}

TEST(JsonFileTest, WriteReadRoundTrip) {
  const std::string Path = "pf_json_test_tmp.json";
  ASSERT_TRUE(obs::writeTextFile(Path, "{\"x\":1}"));
  const auto Text = obs::readTextFile(Path);
  ASSERT_TRUE(Text.has_value());
  EXPECT_EQ(*Text, "{\"x\":1}");
  std::remove(Path.c_str());
  EXPECT_FALSE(obs::readTextFile(Path).has_value());
}
