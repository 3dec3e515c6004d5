//===- tests/obs/TraceCheckTest.cpp - Trace validator tests -----*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// checkChromeTrace (obs/TraceCheck.h) is the gate behind pf_json_check
// --chrome and pf_trace_check, so its rejections matter as much as its
// acceptances: unbalanced or misnamed B/E spans, unresolved flow ids, and
// the original field-presence rules must all fail with an indexed error.
//
//===----------------------------------------------------------------------===//

#include <string>

#include <gtest/gtest.h>

#include "obs/Json.h"
#include "obs/TraceCheck.h"

using namespace pf;
using namespace pf::obs;

namespace {

/// Wraps \p Events (a JSON fragment) into a trace document and runs the
/// checker, returning the error (empty = clean).
std::string checkEvents(const std::string &Events,
                        TraceCheckSummary *Summary = nullptr) {
  const std::string Text = "{\"traceEvents\":[" + Events + "]}";
  std::string ParseError;
  const auto Doc = JsonValue::parse(Text, &ParseError);
  EXPECT_TRUE(Doc.has_value()) << ParseError;
  if (!Doc)
    return "unparseable";
  std::string Error;
  if (checkChromeTrace(*Doc, Error, Summary))
    return "";
  EXPECT_FALSE(Error.empty());
  return Error;
}

const char *kSpanPair =
    "{\"name\":\"a\",\"ph\":\"B\",\"pid\":1,\"tid\":1,\"ts\":0},"
    "{\"name\":\"a\",\"ph\":\"E\",\"pid\":1,\"tid\":1,\"ts\":5}";

TEST(TraceCheckTest, AcceptsBalancedSpansAndCountsThem) {
  TraceCheckSummary S;
  EXPECT_EQ(checkEvents(std::string(kSpanPair) +
                            ",{\"name\":\"x\",\"ph\":\"X\",\"pid\":1,"
                            "\"tid\":1,\"ts\":1,\"dur\":2}",
                        &S),
            "");
  EXPECT_EQ(S.Events, 3u);
  EXPECT_EQ(S.PairedSpans, 1u);
  EXPECT_EQ(S.CompleteSpans, 1u);
}

TEST(TraceCheckTest, AcceptsNestedAndZeroLengthSpans) {
  EXPECT_EQ(
      checkEvents(
          "{\"name\":\"outer\",\"ph\":\"B\",\"pid\":1,\"tid\":1,\"ts\":0},"
          "{\"name\":\"inner\",\"ph\":\"B\",\"pid\":1,\"tid\":1,\"ts\":0},"
          "{\"name\":\"inner\",\"ph\":\"E\",\"pid\":1,\"tid\":1,\"ts\":0},"
          "{\"name\":\"outer\",\"ph\":\"E\",\"pid\":1,\"tid\":1,\"ts\":4}"),
      "");
}

TEST(TraceCheckTest, RejectsUnclosedB) {
  const std::string Error = checkEvents(
      "{\"name\":\"a\",\"ph\":\"B\",\"pid\":1,\"tid\":1,\"ts\":0}");
  EXPECT_NE(Error.find("unclosed 'B'"), std::string::npos) << Error;
}

TEST(TraceCheckTest, RejectsEWithoutB) {
  const std::string Error = checkEvents(
      "{\"name\":\"a\",\"ph\":\"E\",\"pid\":1,\"tid\":1,\"ts\":0}");
  EXPECT_NE(Error.find("'E' with no open 'B'"), std::string::npos)
      << Error;
}

TEST(TraceCheckTest, RejectsCrossLaneClose) {
  // The second E is on another tid: its own lane has no open B, even
  // though an identically-named pair closed cleanly on tid 1.
  const std::string Error = checkEvents(
      "{\"name\":\"a\",\"ph\":\"B\",\"pid\":1,\"tid\":1,\"ts\":0},"
      "{\"name\":\"a\",\"ph\":\"E\",\"pid\":1,\"tid\":1,\"ts\":5},"
      "{\"name\":\"a\",\"ph\":\"E\",\"pid\":1,\"tid\":2,\"ts\":5}");
  EXPECT_NE(Error.find("'E' with no open 'B'"), std::string::npos)
      << Error;
}

TEST(TraceCheckTest, RejectsMismatchedSpanNames) {
  const std::string Error = checkEvents(
      "{\"name\":\"a\",\"ph\":\"B\",\"pid\":1,\"tid\":1,\"ts\":0},"
      "{\"name\":\"b\",\"ph\":\"E\",\"pid\":1,\"tid\":1,\"ts\":5}");
  EXPECT_NE(Error.find("does not close"), std::string::npos) << Error;
}

TEST(TraceCheckTest, ResolvesFlowPairsAndRejectsDanglers) {
  TraceCheckSummary S;
  EXPECT_EQ(
      checkEvents(std::string(kSpanPair) +
                      ",{\"name\":\"f\",\"ph\":\"s\",\"pid\":1,\"tid\":1,"
                      "\"ts\":0,\"id\":42}"
                      ",{\"name\":\"f\",\"ph\":\"f\",\"pid\":2,\"tid\":3,"
                      "\"ts\":1,\"id\":42,\"bp\":\"e\"}",
                  &S),
      "");
  EXPECT_EQ(S.FlowChains, 1u);

  std::string Error = checkEvents(
      std::string(kSpanPair) +
      ",{\"name\":\"f\",\"ph\":\"s\",\"pid\":1,\"tid\":1,\"ts\":0,"
      "\"id\":42}");
  EXPECT_NE(Error.find("no matching finish"), std::string::npos) << Error;

  Error = checkEvents(
      std::string(kSpanPair) +
      ",{\"name\":\"f\",\"ph\":\"f\",\"pid\":1,\"tid\":1,\"ts\":0,"
      "\"id\":42}");
  EXPECT_NE(Error.find("no matching start"), std::string::npos) << Error;
}

TEST(TraceCheckTest, MatchesFlowIdsByTypeAndValue) {
  // A string id resolves only against the same string.
  TraceCheckSummary S;
  EXPECT_EQ(
      checkEvents(std::string(kSpanPair) +
                      ",{\"name\":\"f\",\"ph\":\"s\",\"pid\":1,\"tid\":1,"
                      "\"ts\":0,\"id\":\"left\"}"
                      ",{\"name\":\"f\",\"ph\":\"f\",\"pid\":1,\"tid\":1,"
                      "\"ts\":1,\"id\":\"left\"}",
                  &S),
      "");
  EXPECT_EQ(S.FlowChains, 1u);

  std::string Error = checkEvents(
      std::string(kSpanPair) +
      ",{\"name\":\"f\",\"ph\":\"s\",\"pid\":1,\"tid\":1,\"ts\":0,"
      "\"id\":\"left\"}"
      ",{\"name\":\"f\",\"ph\":\"f\",\"pid\":1,\"tid\":1,\"ts\":1,"
      "\"id\":\"right\"}");
  EXPECT_NE(Error.find("flow finish id \"right\" has no matching start"),
            std::string::npos)
      << Error;

  // The number 7 and the string "7" are different ids.
  Error = checkEvents(
      std::string(kSpanPair) +
      ",{\"name\":\"f\",\"ph\":\"s\",\"pid\":1,\"tid\":1,\"ts\":0,"
      "\"id\":7}"
      ",{\"name\":\"f\",\"ph\":\"f\",\"pid\":1,\"tid\":1,\"ts\":1,"
      "\"id\":\"7\"}");
  EXPECT_NE(Error.find("flow finish id \"7\" has no matching start"),
            std::string::npos)
      << Error;
}

TEST(TraceCheckTest, KeepsTheFieldPresenceRules) {
  EXPECT_NE(checkEvents("{\"ph\":\"i\",\"tid\":1,\"ts\":0}").find(
                "missing numeric 'pid'"),
            std::string::npos);
  EXPECT_NE(checkEvents("{\"ph\":\"i\",\"pid\":1,\"tid\":1}").find(
                "missing numeric 'ts'"),
            std::string::npos);
  EXPECT_NE(checkEvents("{\"pid\":1,\"tid\":1,\"ts\":0}").find(
                "missing string 'ph'"),
            std::string::npos);
  EXPECT_NE(
      checkEvents("{\"ph\":\"i\",\"pid\":1,\"tid\":1,\"ts\":-1}").find(
          "negative 'ts'"),
      std::string::npos);
  EXPECT_NE(checkEvents("{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":0,"
                        "\"dur\":-2}")
                .find("negative 'dur'"),
            std::string::npos);
  // Metadata events need no timestamp.
  EXPECT_EQ(checkEvents("{\"name\":\"process_name\",\"ph\":\"M\","
                        "\"pid\":1,\"tid\":0,\"args\":{\"name\":\"p\"}}"),
            "");
}

TEST(TraceCheckTest, RejectsIdsThatAreNotExactIntegers) {
  // Events on pids 1e300 and 2e300 are distinct lanes, so they must not
  // convert to one long long: every id must be an integer within +-2^53,
  // where the conversion is exact.
  EXPECT_NE(
      checkEvents(
          "{\"name\":\"a\",\"ph\":\"B\",\"pid\":1e300,\"tid\":1,\"ts\":0},"
          "{\"name\":\"a\",\"ph\":\"E\",\"pid\":2e300,\"tid\":1,\"ts\":5}")
          .find("traceEvents[0]: 'pid' is not an integer"),
      std::string::npos);
  EXPECT_NE(checkEvents("{\"ph\":\"i\",\"pid\":1,\"tid\":1.5,\"ts\":0}")
                .find("'tid' is not an integer"),
            std::string::npos);
  EXPECT_NE(checkEvents("{\"ph\":\"i\",\"pid\":-9007199254740994,"
                        "\"tid\":1,\"ts\":0}")
                .find("'pid' is not an integer"),
            std::string::npos);
  EXPECT_NE(checkEvents(std::string(kSpanPair) +
                        ",{\"name\":\"f\",\"ph\":\"s\",\"pid\":1,"
                        "\"tid\":1,\"ts\":0,\"id\":1e19}")
                .find("traceEvents[2]: flow event ('s') 'id' is not an "
                      "integer"),
            std::string::npos);
  // The bounds themselves are exact, so they pass.
  EXPECT_EQ(checkEvents("{\"ph\":\"i\",\"pid\":9007199254740992,"
                        "\"tid\":-9007199254740992,\"ts\":0}"),
            "");
}

TEST(TraceCheckTest, RejectsEmptyDocuments) {
  std::string ParseError;
  const auto Doc = JsonValue::parse("{\"traceEvents\":[]}", &ParseError);
  ASSERT_TRUE(Doc.has_value()) << ParseError;
  std::string Error;
  EXPECT_FALSE(checkChromeTrace(*Doc, Error));
  EXPECT_NE(Error.find("traceEvents"), std::string::npos);
}

} // namespace
