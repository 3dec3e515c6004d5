//===- tests/search/PlanCorruptionTest.cpp - artifact fuzzing ---*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Seed-driven fuzzing of the plan-artifact parser, in the tests/chaos
/// style: truncations, single-bit flips, version skew, forged headers, and
/// record-level mutations re-headered with an honest byte count and
/// checksum, so they reach the record parser itself.
/// The contract under attack is the replay failure discipline — a damaged
/// artifact must produce a `plan.corrupt` / `plan.version` diagnostic, a
/// key forgery must produce `plan.mismatch`, and under no input may the
/// parser crash, hand back a wrong plan, or let a caller silently re-run
/// the search it was asked to skip.
///
//===----------------------------------------------------------------------===//

#include "plan/PlanArtifact.h"

#include <gtest/gtest.h>

#include "PlanFingerprint.h"
#include "core/PimFlow.h"
#include "models/Zoo.h"
#include "support/Format.h"
#include "support/Random.h"

using namespace pf;

namespace {

/// The serialized PIMFlow artifact of \p Model.
std::string compileArtifactText(const std::string &Model) {
  const Graph G = buildModel(Model);
  Profiler P(systemConfigFor(OffloadPolicy::PimFlow, {}));
  const SearchOptions S = searchOptionsFor(OffloadPolicy::PimFlow, {});
  PlanArtifact A;
  A.Key = makePlanKey(G, systemConfigFor(OffloadPolicy::PimFlow, {}), S,
                      /*FaultFloor=*/1);
  A.Plan = SearchEngine(P, S).search(G);
  return serializePlanArtifact(A);
}

/// One serialized toy artifact, computed once for the whole suite.
const std::string &artifactText() {
  static const std::string Text = compileArtifactText("toy");
  return Text;
}

/// Every rejection must carry one of the plan-artifact codes — anything
/// else (or a crash, which gtest turns into a process failure) means the
/// parser guessed instead of diagnosing.
void expectRejected(const std::string &Mutated, const char *What) {
  DiagnosticEngine DE;
  const auto Parsed = parsePlanArtifact(Mutated, DE);
  EXPECT_FALSE(Parsed) << What << ": mutated artifact parsed successfully";
  EXPECT_TRUE(DE.hasErrors()) << What;
  EXPECT_TRUE(DE.hasCode(DiagCode::PlanCorrupt) ||
              DE.hasCode(DiagCode::PlanVersion))
      << What << ": rejected with the wrong code:\n"
      << DE.render();
}

} // namespace

TEST(PlanCorruption, EveryTruncationIsRejected) {
  const std::string &Text = artifactText();
  // The exact byte count in the header makes any proper prefix detectable.
  // Sweep a deterministic sample of cut points plus every boundary near
  // the header and the tail.
  for (size_t Cut : {size_t{0}, size_t{1}, Text.size() - 1}) {
    expectRejected(Text.substr(0, Cut), "boundary truncation");
  }
  Rng Rand(0xA47EFAC7);
  for (int I = 0; I < 64; ++I) {
    const size_t Cut = Rand.nextBelow(Text.size());
    expectRejected(Text.substr(0, Cut), "random truncation");
  }
}

TEST(PlanCorruption, EverySingleBitFlipIsRejected) {
  const std::string &Text = artifactText();
  Rng Rand(0xB17F11B5);
  for (int I = 0; I < 128; ++I) {
    std::string Mutated = Text;
    const size_t Pos = Rand.nextBelow(Mutated.size());
    Mutated[Pos] = static_cast<char>(
        Mutated[Pos] ^ static_cast<char>(1u << Rand.nextBelow(8)));
    expectRejected(Mutated, "single-bit flip");
  }
}

TEST(PlanCorruption, RandomGarbageIsRejected) {
  Rng Rand(0x6A4BA6E);
  for (int I = 0; I < 32; ++I) {
    std::string Garbage(Rand.nextBelow(4096), '\0');
    for (char &C : Garbage)
      C = static_cast<char>(Rand.next() & 0xFF);
    expectRejected(Garbage, "random garbage");
  }
  expectRejected("", "empty input");
  expectRejected("pimflow-plan", "bare magic");
}

TEST(PlanCorruption, VersionSkewIsPlanVersionNotCorrupt) {
  std::string Mutated = artifactText();
  const size_t Pos = Mutated.find(" v1 ");
  ASSERT_NE(Pos, std::string::npos);
  Mutated.replace(Pos, 4, " v9 ");
  DiagnosticEngine DE;
  EXPECT_FALSE(parsePlanArtifact(Mutated, DE));
  EXPECT_TRUE(DE.hasCode(DiagCode::PlanVersion)) << DE.render();
  EXPECT_FALSE(DE.hasCode(DiagCode::PlanCorrupt))
      << "version skew misreported as corruption:\n"
      << DE.render();
}

TEST(PlanCorruption, WrongMagicIsRejected) {
  std::string Mutated = artifactText();
  Mutated.replace(0, std::string("pimflow-plan").size(), "pimflow-graph");
  expectRejected(Mutated, "wrong magic");
}

TEST(PlanCorruption, ForgedKeyParsesButFailsValidation) {
  // A forgery that keeps the checksum honest: parse, swap the graph hash,
  // re-serialize. The artifact is structurally valid — only the replay
  // gate can (and must) catch it, with plan.mismatch.
  DiagnosticEngine DE;
  auto A = parsePlanArtifact(artifactText(), DE);
  ASSERT_TRUE(A) << DE.render();
  const PlanKey Live = A->Key;
  A->Key.GraphHash = "0000000000000000";

  DiagnosticEngine DE2;
  const auto Reparsed = parsePlanArtifact(serializePlanArtifact(*A), DE2);
  ASSERT_TRUE(Reparsed) << DE2.render();
  DiagnosticEngine DE3;
  EXPECT_FALSE(validatePlanKey(Reparsed->Key, Live, DE3));
  EXPECT_TRUE(DE3.hasCode(DiagCode::PlanMismatch)) << DE3.render();
  EXPECT_FALSE(DE3.hasCode(DiagCode::PlanCorrupt));
}

TEST(PlanCorruption, MismatchDiagnosticsNameEachDisagreeingField) {
  DiagnosticEngine DE;
  auto A = parsePlanArtifact(artifactText(), DE);
  ASSERT_TRUE(A) << DE.render();
  const PlanKey Live = A->Key;

  struct Case {
    const char *Field;
    PlanKey Forged;
  };
  PlanKey G = Live, C = Live, S = Live, F = Live;
  G.GraphHash += "x";
  C.ConfigSig += "x";
  S.SearchSig += "x";
  F.FaultFloor += 1;
  for (const Case &K : {Case{"graph", G}, Case{"config", C},
                        Case{"search", S}, Case{"fault floor", F}}) {
    DiagnosticEngine DM;
    EXPECT_FALSE(validatePlanKey(K.Forged, Live, DM)) << K.Field;
    EXPECT_TRUE(DM.hasCode(DiagCode::PlanMismatch)) << K.Field;
    EXPECT_EQ(DM.errorCount(), 1u)
        << K.Field << " forgery produced extra diagnostics:\n"
        << DM.render();
  }
}

TEST(PlanCorruption, ConcatenatedArtifactsAreRejected) {
  // Appending anything (even a second valid artifact) breaks the declared
  // byte count — a spliced file never half-parses.
  expectRejected(artifactText() + artifactText(), "self-concatenation");
  expectRejected(artifactText() + "\n", "trailing newline");
  expectRejected(artifactText() + "junk", "trailing junk");
}

namespace {

/// Re-headers \p Body with its true byte count and checksum, so a mutation
/// below the header reaches the record parser instead of the payload guard.
std::string reheader(const std::string &Body) {
  return formatStr("pimflow-plan v1 bytes %zu checksum %s\n", Body.size(),
                   fnv1a64Hex(Body).c_str()) +
         Body;
}

/// One seeded record-level mutation of an artifact body: a digit changed,
/// a token dropped, duplicated or swapped, an extra ':' in a candidate
/// option, an inserted empty line or second 'end', or a line cut short.
std::string mutateBody(const std::string &Body, Rng &R) {
  std::vector<std::string> Lines = split(Body, '\n');
  Lines.pop_back(); // The body ends in a newline.
  const size_t L = R.nextBelow(Lines.size());
  std::string &Line = Lines[L];
  std::vector<std::string> W = split(Line, ' ');
  switch (R.nextBelow(8)) {
  case 0: { // A digit becomes a letter or another digit.
    std::vector<size_t> Digits;
    for (size_t I = 0; I < Line.size(); ++I)
      if (Line[I] >= '0' && Line[I] <= '9')
        Digits.push_back(I);
    if (Digits.empty())
      break;
    const size_t Pos = Digits[R.nextBelow(Digits.size())];
    static const char Repl[] = "0123456789aefinxEX";
    char C;
    do
      C = Repl[R.nextBelow(sizeof(Repl) - 1)];
    while (C == Line[Pos]);
    Line[Pos] = C;
    break;
  }
  case 1: // A token dropped.
    W.erase(W.begin() + static_cast<long>(R.nextBelow(W.size())));
    Line = join(W, " ");
    break;
  case 2: { // A token duplicated in place.
    const size_t I = R.nextBelow(W.size());
    W.insert(W.begin() + static_cast<long>(I), W[I]);
    Line = join(W, " ");
    break;
  }
  case 3: // Two tokens swapped.
    std::swap(W[R.nextBelow(W.size())], W[R.nextBelow(W.size())]);
    Line = join(W, " ");
    break;
  case 4: { // An extra ':' in a candidate option (any token on a line
            // without options).
    std::vector<size_t> Options;
    for (size_t I = 0; I < W.size(); ++I)
      if (W[I].find(':') != std::string::npos)
        Options.push_back(I);
    const size_t I = Options.empty() ? R.nextBelow(W.size())
                                     : Options[R.nextBelow(Options.size())];
    W[I].insert(R.nextBelow(W[I].size() + 1), ":");
    Line = join(W, " ");
    break;
  }
  case 5: // An empty line.
    Lines.insert(Lines.begin() + static_cast<long>(L), "");
    break;
  case 6: // A second 'end'.
    Lines.insert(Lines.begin() + static_cast<long>(L), "end");
    break;
  default: // A line cut short.
    Line.resize(R.nextBelow(Line.size() + 1));
    break;
  }
  return join(Lines, "\n") + "\n";
}

} // namespace

TEST(PlanCorruption, RechecksummedMutationsMatchTheParent) {
  // The digest below was recorded from the printf/strtod-based reader this
  // parser replaced: every mutation must be accepted or rejected exactly as
  // it was, and every accepted one must yield the same key and plan.
  const std::string Texts[] = {artifactText(),
                               compileArtifactText("squeezenet-1.1")};
  Rng R(0x5EC0DE11);
  std::string Record;
  size_t Accepted = 0, Rejected = 0;
  for (const std::string &Text : Texts) {
    const std::string Body = Text.substr(Text.find('\n') + 1);
    for (int I = 0; I < 1100; ++I) {
      DiagnosticEngine DE;
      const auto A = parsePlanArtifact(reheader(mutateBody(Body, R)), DE);
      if (!A) {
        ++Rejected;
        EXPECT_TRUE(DE.hasCode(DiagCode::PlanCorrupt))
            << "mutation " << I << " rejected without plan.corrupt:\n"
            << DE.render();
        Record += "0\n";
        continue;
      }
      ++Accepted;
      Record += formatStr("1 %s %s %s %d ", A->Key.GraphHash.c_str(),
                          A->Key.ConfigSig.c_str(), A->Key.SearchSig.c_str(),
                          A->Key.FaultFloor) +
                planFingerprint(A->Plan) + "\n";
    }
  }
  // Both outcomes occur, so the digest pins accept-set and values alike.
  EXPECT_GT(Accepted, 100u);
  EXPECT_GT(Rejected, 100u);
  EXPECT_EQ(fnv1a64Hex(Record), "300ca34017c042bd")
      << Accepted << " accepted, " << Rejected << " rejected";
}
