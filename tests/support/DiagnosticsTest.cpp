//===- tests/support/DiagnosticsTest.cpp - Diagnostics engine ---*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include "support/Diagnostics.h"

using namespace pf;

TEST(DiagnosticsTest, CodesRenderAsDottedSlugs) {
  EXPECT_STREQ(diagCodeName(DiagCode::BadOption), "cli.bad-option");
  EXPECT_STREQ(diagCodeName(DiagCode::VerifyUseBeforeDef),
               "verify.use-before-def");
  EXPECT_STREQ(diagCodeName(DiagCode::VerifyPieceOverlap),
               "verify.piece-overlap");
  EXPECT_STREQ(diagCodeName(DiagCode::ParseRecord), "parse.record");
}

TEST(DiagnosticsTest, RenderIncludesSeverityCodeContextMessage) {
  Diagnostic D;
  D.Severity = DiagSeverity::Error;
  D.Code = DiagCode::VerifyUseBeforeDef;
  D.Context = "node 'conv1'";
  D.Message = "consumes value 'x' with no producer";
  EXPECT_EQ(D.render(), "error[verify.use-before-def] node 'conv1': "
                        "consumes value 'x' with no producer");
}

TEST(DiagnosticsTest, RenderWithoutContextOmitsTheColon) {
  Diagnostic D;
  D.Code = DiagCode::ParseHeader;
  D.Message = "missing header";
  EXPECT_EQ(D.render(), "error[parse.header] missing header");
}

TEST(DiagnosticsTest, CollectsInsteadOfThrowing) {
  DiagnosticEngine DE;
  EXPECT_FALSE(DE.hasErrors());
  DE.error(DiagCode::VerifyCycle, "node 'a'", "cycle");
  DE.warning(DiagCode::VerifyBadName, "node 'b'", "odd name");
  EXPECT_TRUE(DE.hasErrors());
  EXPECT_EQ(DE.errorCount(), 1u); // Warnings do not count as errors.
  ASSERT_EQ(DE.diagnostics().size(), 2u);
  EXPECT_EQ(DE.diagnostics()[0].Severity, DiagSeverity::Error);
  EXPECT_EQ(DE.diagnostics()[1].Severity, DiagSeverity::Warning);
}

TEST(DiagnosticsTest, HasCodeFindsCollectedCodes) {
  DiagnosticEngine DE;
  DE.error(DiagCode::VerifyStaleShape, "value 'v'", "stale");
  EXPECT_TRUE(DE.hasCode(DiagCode::VerifyStaleShape));
  EXPECT_FALSE(DE.hasCode(DiagCode::VerifyCycle));
}

TEST(DiagnosticsTest, CapSuppressesButKeepsCounting) {
  DiagnosticEngine DE(/*MaxErrors=*/3);
  for (int I = 0; I < 10; ++I)
    DE.error(DiagCode::ParseRecord, "line 1", "bad");
  EXPECT_EQ(DE.diagnostics().size(), 3u);
  EXPECT_EQ(DE.errorCount(), 10u);
  EXPECT_TRUE(DE.atLimit());
  const std::string Out = DE.render();
  EXPECT_NE(Out.find("7 more diagnostic(s) suppressed"), std::string::npos);
}

TEST(DiagnosticsTest, NoSuppressionTrailerUnderTheCap) {
  DiagnosticEngine DE(/*MaxErrors=*/3);
  DE.error(DiagCode::ParseRecord, "line 2", "bad");
  EXPECT_EQ(DE.render().find("suppressed"), std::string::npos);
  EXPECT_FALSE(DE.atLimit());
}

TEST(DiagnosticsTest, CapClampsToAtLeastOne) {
  DiagnosticEngine DE(/*MaxErrors=*/-5);
  DE.error(DiagCode::BadOption, "--max-queue", "bad");
  DE.error(DiagCode::BadOption, "--stages", "bad");
  EXPECT_EQ(DE.diagnostics().size(), 1u);
  EXPECT_EQ(DE.errorCount(), 2u);
}

TEST(DiagnosticsTest, RenderOnePerLine) {
  DiagnosticEngine DE;
  DE.error(DiagCode::BadOption, "--a", "x");
  DE.error(DiagCode::BadOption, "--b", "y");
  const std::string Out = DE.render();
  EXPECT_EQ(std::count(Out.begin(), Out.end(), '\n'), 2);
}
