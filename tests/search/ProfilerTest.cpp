//===- tests/search/ProfilerTest.cpp - profiler tests -----------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "search/Profiler.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <gtest/gtest.h>

#include "ir/Builder.h"
#include "models/Zoo.h"
#include "support/StringUtil.h"

using namespace pf;

namespace {

Graph pointwisePair() {
  GraphBuilder B("t");
  ValueId X = B.input("x", TensorShape{1, 28, 28, 32});
  ValueId V = B.conv2d(X, 192, 1, 1, 0);
  V = B.relu6(V);
  V = B.conv2d(V, 32, 1, 1, 0);
  B.output(V);
  return B.take();
}

NodeId firstConv(const Graph &G) {
  for (NodeId Id : G.topoOrder())
    if (G.node(Id).Kind == OpKind::Conv2d)
      return Id;
  return InvalidNode;
}

} // namespace

TEST(ProfilerTest, MeasurementsArePositiveAndDeterministic) {
  Graph G = pointwisePair();
  Profiler P(SystemConfig::dual());
  NodeId Conv = firstConv(G);
  const double Gpu1 = P.gpuNodeNs(G, Conv);
  const double Pim1 = P.pimNodeNs(G, Conv);
  EXPECT_GT(Gpu1, 0.0);
  EXPECT_GT(Pim1, 0.0);
  Profiler Q(SystemConfig::dual());
  EXPECT_EQ(Q.gpuNodeNs(G, Conv), Gpu1);
  EXPECT_EQ(Q.pimNodeNs(G, Conv), Pim1);
}

TEST(ProfilerTest, RatioEndpointsMatchDedicatedSamples) {
  Graph G = pointwisePair();
  Profiler P(SystemConfig::dual());
  NodeId Conv = firstConv(G);
  EXPECT_EQ(P.mdDpNs(G, Conv, 0.0), P.pimNodeNs(G, Conv));
  EXPECT_EQ(P.mdDpNs(G, Conv, 1.0), P.gpuNodeNs(G, Conv));
}

TEST(ProfilerTest, SplitBeatsWorseDevice) {
  // An optimal interior split can never be (much) worse than both
  // endpoints.
  Graph G = pointwisePair();
  Profiler P(SystemConfig::dual());
  NodeId Conv = firstConv(G);
  double Best = 1e300;
  for (double R = 0.1; R < 1.0; R += 0.1)
    Best = std::min(Best, P.mdDpNs(G, Conv, R));
  EXPECT_LT(Best,
            std::max(P.gpuNodeNs(G, Conv), P.pimNodeNs(G, Conv)) * 1.05);
}

TEST(ProfilerTest, CacheDeduplicatesIdenticalLayers) {
  // MobileNetV2 repeats identical blocks: profiling every conv must hit
  // the cache often.
  Graph G = buildMobileNetV2();
  Profiler P(SystemConfig::dual());
  for (NodeId Id : G.topoOrder())
    if (isPimCandidate(G.node(Id)))
      P.gpuNodeNs(G, Id);
  EXPECT_GT(P.cacheHits(), 10u);
  EXPECT_LT(P.cacheMisses(), 30u);
}

TEST(ProfilerTest, CacheSaveLoadRoundTrip) {
  Graph G = pointwisePair();
  const std::string Path = ::testing::TempDir() + "pf_profile_cache.tsv";
  double Gpu, Pim;
  {
    Profiler P(SystemConfig::dual());
    Gpu = P.gpuNodeNs(G, firstConv(G));
    Pim = P.pimNodeNs(G, firstConv(G));
    ASSERT_TRUE(P.saveCache(Path));
  }
  {
    Profiler P(SystemConfig::dual());
    ASSERT_TRUE(P.loadCache(Path));
    EXPECT_NEAR(P.gpuNodeNs(G, firstConv(G)), Gpu, 1e-3);
    EXPECT_NEAR(P.pimNodeNs(G, firstConv(G)), Pim, 1e-3);
    EXPECT_EQ(P.cacheMisses(), 0u);
  }
  std::remove(Path.c_str());
}

namespace {

/// A temp file path private to the running test: ctest runs each test as
/// its own process, in parallel.
std::string testTempPath(const std::string &Suffix) {
  return ::testing::TempDir() + "pf_" +
         ::testing::UnitTest::GetInstance()->current_test_info()->name() +
         Suffix;
}

std::string readText(const std::string &Path) {
  std::ifstream In(Path);
  std::ostringstream Out;
  Out << In.rdbuf();
  return Out.str();
}

/// The cache file a profiler writes after sampling pointwisePair()'s
/// first conv on the GPU.
std::string firstConvCacheText() {
  Graph G = pointwisePair();
  Profiler P(SystemConfig::dual());
  P.gpuNodeNs(G, firstConv(G));
  const std::string Path = testTempPath(".good.tsv");
  EXPECT_TRUE(P.saveCache(Path));
  const std::string Text = readText(Path);
  std::remove(Path.c_str());
  return Text;
}

/// \p Body under the profile log's header, as saveCache writes it.
std::string withHeader(const std::string &Body) {
  return "pimflow-profile v1 bytes " + std::to_string(Body.size()) +
         " checksum " + fnv1a64Hex(Body) + "\n" + Body;
}

/// The rows of a saved profile log: everything after its header line.
std::string bodyOf(const std::string &Text) {
  return Text.substr(Text.find('\n') + 1);
}

/// Loads \p Text as a profile cache into \p P; returns loadCache's verdict.
bool loadCacheText(Profiler &P, const std::string &Text) {
  const std::string Path = testTempPath(".loaded.tsv");
  std::ofstream(Path) << Text;
  const bool Ok = P.loadCache(Path);
  std::remove(Path.c_str());
  return Ok;
}

/// Whether sampling pointwisePair()'s first conv on the GPU hits the
/// cache \p P loaded.
bool firstConvIsCached(Profiler &P) {
  Graph G = pointwisePair();
  P.gpuNodeNs(G, firstConv(G));
  return P.cacheMisses() == 0;
}

} // namespace

TEST(ProfilerTest, DamagedCacheLoadsNothing) {
  // One damaged row among good ones makes the whole file a miss, good
  // rows included: a garbage time (std::atof read "12abc" as 12), a row
  // truncated after its tab, a non-finite time, a row without a tab.
  const std::string Good = bodyOf(firstConvCacheText());
  ASSERT_FALSE(Good.empty());
  for (const char *Damage :
       {"gpu|x\t12abc\n", "gpu|x\t", "gpu|x\tnan\n", "gpu|x 12\n"}) {
    Profiler P(SystemConfig::dual());
    EXPECT_FALSE(loadCacheText(P, withHeader(Good + Damage))) << Damage;
    EXPECT_FALSE(firstConvIsCached(P)) << Damage;
  }
}

TEST(ProfilerTest, FlippedDigitInASavedTimeLoadsNothing) {
  // A flipped digit still parses as a time; only the checksum notices.
  std::string Text = firstConvCacheText();
  const size_t Digit = Text.find_first_of("0123456789", Text.rfind('\t'));
  ASSERT_NE(Digit, std::string::npos);
  Text[Digit] = Text[Digit] == '1' ? '2' : '1';
  Profiler P(SystemConfig::dual());
  EXPECT_FALSE(loadCacheText(P, Text));
  EXPECT_FALSE(firstConvIsCached(P));

  // Rows without the header are rejected too.
  Profiler Headless(SystemConfig::dual());
  EXPECT_FALSE(loadCacheText(Headless, bodyOf(firstConvCacheText())));
  EXPECT_FALSE(firstConvIsCached(Headless));
}

TEST(ProfilerTest, CacheKeyLongerThanFourKilobytesRoundTrips) {
  // A fixed 4 KB line buffer used to split such a row into a bogus key
  // and a stray fragment. The -1 failed-pipeline sentinel stays legal.
  const std::string Text = withHeader("gpu|" + std::string(5000, 'k') +
                                      "\t1234.5\npipe2|x\t-1\n");
  Profiler P(SystemConfig::dual());
  ASSERT_TRUE(loadCacheText(P, Text));
  const std::string Path = testTempPath(".saved.tsv");
  ASSERT_TRUE(P.saveCache(Path));
  EXPECT_EQ(readText(Path), Text);
  std::remove(Path.c_str());
}

TEST(ProfilerTest, DifferentConfigsDifferentCacheKeys) {
  Graph G = pointwisePair();
  Profiler P8(SystemConfig::dual(8));
  Profiler P16(SystemConfig::dual(16));
  // More PIM channels -> faster PIM sample.
  EXPECT_LT(P16.pimNodeNs(G, firstConv(G)),
            P8.pimNodeNs(G, firstConv(G)) * 1.01);
}

TEST(ProfilerTest, PipelineProfileOfValidChain) {
  Graph G = pointwisePair();
  Profiler P(SystemConfig::dual());
  const double Ns = P.pipelineNs(G, G.topoOrder(), 2);
  EXPECT_GT(Ns, 0.0);
}

TEST(ProfilerTest, PipelineProfileOfImpossibleStageCount) {
  GraphBuilder B("tiny");
  ValueId X = B.input("x", TensorShape{1, 3, 3, 2});
  ValueId V = B.conv2d(X, 4, 1, 1, 0);
  V = B.dwConv(V, 3, 1, 1);
  B.output(V);
  Graph G = B.take();
  Profiler P(SystemConfig::dual());
  EXPECT_LT(P.pipelineNs(G, G.topoOrder(), 8), 0.0);
}
