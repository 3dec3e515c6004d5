//===- tests/search/ProfilerTest.cpp - profiler tests -----------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "search/Profiler.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <set>
#include <sstream>
#include <gtest/gtest.h>

#include "core/PimFlow.h"
#include "ir/Builder.h"
#include "ir/ShapeInference.h"
#include "models/Zoo.h"
#include "search/LayerExtract.h"
#include "search/SearchEngine.h"
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

/// The log \p P saves.
std::string savedText(const Profiler &P) {
  const std::string Path = testTempPath(".saved.tsv");
  EXPECT_TRUE(P.saveCache(Path));
  std::string Text = readText(Path);
  std::remove(Path.c_str());
  return Text;
}

/// The cache file a profiler writes after sampling pointwisePair()'s
/// first conv on the GPU.
std::string firstConvCacheText() {
  Graph G = pointwisePair();
  Profiler P(SystemConfig::dual());
  P.gpuNodeNs(G, firstConv(G));
  return savedText(P);
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

namespace {

/// A sample's row name after the configuration: the mode, then per chain
/// node its kind, a Conv2d's or pool's window and its input and output
/// shapes.
std::string rowText(const Graph &G, const std::vector<NodeId> &Chain,
                    const std::string &Mode) {
  std::string Row = Mode + '|';
  // [k<h>.<w> s<h>.<w> p<top>.<bottom>.<left>.<right> g<groups>], a pool's
  // without the groups.
  auto Window = [&Row](std::initializer_list<int64_t> Fields) {
    const char *Labels[] = {"[k", ".", " s", ".", " p", ".", ".", ".", " g"};
    size_t I = 0;
    for (int64_t F : Fields)
      Row += Labels[I++] + std::to_string(F);
    Row += ']';
  };
  for (NodeId Id : Chain) {
    const Node &N = G.node(Id);
    Row += opKindName(N.Kind);
    if (N.Kind == OpKind::Conv2d) {
      const Conv2dAttrs &A = N.conv();
      Window({A.KernelH, A.KernelW, A.StrideH, A.StrideW, A.PadTop,
              A.PadBottom, A.PadLeft, A.PadRight, A.Groups});
    } else if (N.Kind == OpKind::MaxPool || N.Kind == OpKind::AvgPool) {
      const PoolAttrs &A = std::get<PoolAttrs>(N.Attrs);
      Window({A.KernelH, A.KernelW, A.StrideH, A.StrideW, A.PadTop,
              A.PadBottom, A.PadLeft, A.PadRight});
    }
    for (ValueId In : N.Inputs)
      Row += G.value(In).Shape.toString();
    Row += "->" + G.value(N.Outputs[0]).Shape.toString() + ';';
  }
  return Row;
}

/// Forwards every sample to a Profiler and records each one that hit or
/// missed its memo otherwise than its row says: a sample must miss exactly
/// when no earlier sample printed the same row.
class RowOracle : public CostProvider {
public:
  explicit RowOracle(Profiler &P) : P(P) {}

  const SystemConfig &config() const override { return P.config(); }

  double gpuNodeNs(const Graph &G, NodeId Id) override {
    return sample(rowText(G, sampleChain(G, Id), "gpu"),
                  [&] { return P.gpuNodeNs(G, Id); });
  }
  double pimNodeNs(const Graph &G, NodeId Id) override {
    return sample(rowText(G, sampleChain(G, Id), "pim"),
                  [&] { return P.pimNodeNs(G, Id); });
  }
  double mdDpNs(const Graph &G, NodeId Id, double RatioGpu) override {
    std::string Mode = "mddp";
    appendFixed(Mode, RatioGpu, 2);
    if (RatioGpu <= 0.0)
      Mode = "pim";
    else if (RatioGpu >= 1.0)
      Mode = "gpu";
    return sample(rowText(G, sampleChain(G, Id), Mode),
                  [&] { return P.mdDpNs(G, Id, RatioGpu); });
  }
  double pipelineNs(const Graph &G, const std::vector<NodeId> &Chain,
                    int Stages) override {
    return sample(rowText(G, Chain, "pipe" + std::to_string(Stages)),
                  [&] { return P.pipelineNs(G, Chain, Stages); });
  }

  /// Every row sampled.
  std::set<std::string> Rows;
  size_t Samples = 0;
  /// The samples that hit a row never sampled before or missed one that
  /// was.
  std::vector<std::string> Wrong;

private:
  template <typename Fn> double sample(const std::string &Row, const Fn &F) {
    const size_t Misses = P.cacheMisses();
    const double Ns = F();
    const bool Missed = P.cacheMisses() != Misses;
    ++Samples;
    if (Missed != Rows.insert(Row).second)
      Wrong.push_back((Missed ? "missed " : "hit ") + Row);
    return Ns;
  }

  Profiler &P;
};

/// The lines of \p Body.
std::vector<std::string> linesOf(const std::string &Body) {
  std::vector<std::string> Lines;
  std::istringstream In(Body);
  for (std::string L; std::getline(In, L);)
    Lines.push_back(L);
  return Lines;
}

/// The row names of \p P's saved log, each without its configuration
/// part, which must be \p Config.
std::set<std::string> savedRows(const Profiler &P, const std::string &Config) {
  std::set<std::string> Rows;
  for (const std::string &L : linesOf(bodyOf(savedText(P)))) {
    EXPECT_EQ(L.substr(0, L.find('|') + 1), Config + '|') << L;
    Rows.insert(L.substr(L.find('|') + 1, L.rfind('\t') - L.find('|') - 1));
  }
  return Rows;
}

/// The first element of \p A or \p B missing from the other, or "".
std::string firstDifference(const std::set<std::string> &A,
                            const std::set<std::string> &B) {
  for (const std::string &S : A)
    if (!B.count(S))
      return "only sampled: " + S;
  for (const std::string &S : B)
    if (!A.count(S))
      return "only saved: " + S;
  return "";
}

/// The configuration part of the rows a profiler of \p Config writes.
std::string configOf(const SystemConfig &Config) {
  Profiler P(Config);
  Graph G = pointwisePair();
  P.gpuNodeNs(G, firstConv(G));
  const std::string Body = bodyOf(savedText(P));
  return Body.substr(0, Body.find('|'));
}

/// Convolutions and pools whose shapes are equal and whose windows differ
/// in single fields (every pad, every stride, a pool's kernel sides), so
/// only their windows keep their samples apart.
Graph windowCorners() {
  GraphBuilder B("corners");
  const ValueId X = B.input("x", TensorShape{1, 8, 8, 16});
  const ValueId Tiny = B.input("tiny", TensorShape{1, 2, 2, 16});
  // Kind, input, then k<h>.<w> s<h>.<w> p<top>.<bottom>.<left>.<right>.
  struct Window {
    OpKind Kind;
    ValueId In;
    int64_t F[8];
  };
  const Window Windows[] = {
      {OpKind::Conv2d, X, {3, 3, 2, 2, 1, 1, 1, 1}},
      {OpKind::Conv2d, X, {3, 3, 2, 2, 0, 1, 1, 1}},
      {OpKind::Conv2d, X, {3, 3, 2, 2, 1, 0, 1, 1}},
      {OpKind::Conv2d, X, {3, 3, 2, 2, 1, 1, 0, 1}},
      {OpKind::Conv2d, X, {3, 3, 2, 2, 1, 1, 1, 0}},
      {OpKind::Conv2d, Tiny, {3, 3, 2, 2, 1, 1, 1, 1}},
      {OpKind::Conv2d, Tiny, {3, 3, 3, 2, 1, 1, 1, 1}},
      {OpKind::Conv2d, Tiny, {3, 3, 2, 3, 1, 1, 1, 1}},
      {OpKind::MaxPool, X, {2, 2, 2, 2, 0, 0, 0, 0}},
      {OpKind::MaxPool, X, {2, 2, 2, 2, 1, 0, 0, 0}},
      {OpKind::MaxPool, X, {2, 2, 2, 2, 0, 1, 0, 0}},
      {OpKind::MaxPool, X, {2, 2, 2, 2, 0, 0, 1, 0}},
      {OpKind::MaxPool, X, {2, 2, 2, 2, 0, 0, 0, 1}},
      {OpKind::MaxPool, X, {3, 2, 2, 2, 1, 0, 0, 0}},
      {OpKind::MaxPool, X, {2, 3, 2, 2, 0, 0, 1, 0}},
      {OpKind::MaxPool, Tiny, {2, 2, 2, 2, 0, 0, 0, 0}},
      {OpKind::MaxPool, Tiny, {2, 2, 3, 2, 0, 0, 0, 0}},
      {OpKind::MaxPool, Tiny, {2, 2, 2, 3, 0, 0, 0, 0}},
      {OpKind::AvgPool, X, {2, 2, 2, 2, 0, 0, 0, 0}},
      {OpKind::AvgPool, X, {2, 2, 2, 2, 1, 0, 0, 0}},
  };
  for (const Window &W : Windows)
    B.output(W.Kind == OpKind::Conv2d ? B.conv2d(W.In, 16, 3, 2, 1)
             : W.Kind == OpKind::MaxPool ? B.maxPool(W.In, 2, 2)
                                         : B.avgPool(W.In, 2, 2));
  Graph G = B.take();
  const std::vector<NodeId> Order = G.topoOrder();
  size_t I = 0;
  for (NodeId Id : Order) {
    Node &N = G.node(Id);
    if (N.Kind != OpKind::Conv2d && N.Kind != OpKind::MaxPool &&
        N.Kind != OpKind::AvgPool)
      continue;
    const int64_t *F = Windows[I++].F;
    if (N.Kind == OpKind::Conv2d)
      N.Attrs = Conv2dAttrs{F[0], F[1], F[2], F[3], F[4], F[5], F[6], F[7], 1};
    else
      N.Attrs = PoolAttrs{F[0], F[1], F[2], F[3], F[4], F[5], F[6], F[7]};
  }
  EXPECT_EQ(I, std::size(Windows));
  // Each variant keeps its base's shapes.
  for (NodeId Id : Order) {
    const TensorShape Before = G.value(G.node(Id).Outputs[0]).Shape;
    EXPECT_FALSE(inferNodeShapes(G, Id).has_value());
    EXPECT_EQ(G.value(G.node(Id).Outputs[0]).Shape, Before);
  }
  return G;
}

} // namespace

TEST(ProfilerTest, WindowsKeepOtherwiseEqualSamplesApart) {
  // Every window field that shapes do not reveal keeps two samples apart,
  // on the GPU and, for a convolution, split and fully offloaded.
  const Graph G = windowCorners();
  const SystemConfig Config = systemConfigFor(OffloadPolicy::PimFlow, {});
  Profiler P(Config);
  RowOracle Oracle(P);
  for (NodeId Id : G.topoOrder()) {
    Oracle.gpuNodeNs(G, Id);
    if (G.node(Id).Kind == OpKind::Conv2d) {
      Oracle.pimNodeNs(G, Id);
      Oracle.mdDpNs(G, Id, 0.5);
    }
  }
  EXPECT_TRUE(Oracle.Wrong.empty())
      << Oracle.Wrong.size() << " wrong, first " << Oracle.Wrong.front();
  EXPECT_EQ(Oracle.Rows.size(), Oracle.Samples);
  EXPECT_EQ(firstDifference(Oracle.Rows, savedRows(P, configOf(Config))), "");
}

TEST(ProfilerTest, SamplesShareAnEntryExactlyWhenTheirRowsAreEqual) {
  // Every sample of cold searches over nine zoo models, under PIMFlow's
  // defaults and under Newton+ on four channels: a sample misses exactly
  // when its row is new, and the log holds exactly the rows sampled.
  const std::pair<OffloadPolicy, int> Configs[] = {
      {OffloadPolicy::PimFlow, 16}, {OffloadPolicy::NewtonPlus, 4}};
  size_t Hits = 0;
  for (const auto &[Policy, Channels] : Configs) {
    PimFlowOptions O;
    O.PimChannels = Channels;
    const std::string Config = configOf(systemConfigFor(Policy, O));
    for (const char *Model :
         {"efficientnet-v1-b0", "mobilenet-v2", "mnasnet-1.0", "resnet-50",
          "vgg-16", "resnet-18", "squeezenet-1.1", "bert", "toy"}) {
      Profiler P(systemConfigFor(Policy, O));
      RowOracle Oracle(P);
      SearchEngine(Oracle, searchOptionsFor(Policy, O))
          .search(buildModel(Model));
      const std::string Where = Config + " " + Model;
      Hits += P.cacheHits();
      EXPECT_TRUE(Oracle.Wrong.empty())
          << Where << ": " << Oracle.Wrong.size() << " of " << Oracle.Samples
          << " samples, first " << Oracle.Wrong.front();
      EXPECT_EQ(P.cacheMisses(), Oracle.Rows.size()) << Where;
      EXPECT_EQ(firstDifference(Oracle.Rows, savedRows(P, Config)), "")
          << Where;
    }
  }
  EXPECT_GT(Hits, 1000u);
}

TEST(ProfilerTest, RatiosShareAnEntryExactlyWhenTheyPrintAlike) {
  // A GPU share is keyed at the two decimals its row prints: its exact
  // binary value rounded to the nearest hundredth, ties to even. The
  // search's grid accumulates 0.1 (its third point is 0.30000000000000004)
  // and the dyadic 0.125 is an exact tie that prints 0.12.
  std::vector<double> Ratios;
  for (double R = 0.1; R < 1.0 - 1e-9; R += 0.1)
    Ratios.push_back(R);
  for (double R : {0.3, 0.8, 0.9, 0.125, 0.375, 0.625, 0.875, 0.005, 0.015,
                   0.995, 0.32, 0.3 + 0.02, 0.4 - 0.08, 1e-300,
                   std::numeric_limits<double>::denorm_min()}) {
    Ratios.push_back(R);
    Ratios.push_back(std::nextafter(R, 0.0));
    Ratios.push_back(std::nextafter(R, 1.0));
  }
  Graph G = pointwisePair();
  Profiler P(SystemConfig::dual());
  RowOracle Oracle(P);
  for (double R : Ratios)
    Oracle.mdDpNs(G, firstConv(G), R);
  EXPECT_TRUE(Oracle.Wrong.empty())
      << Oracle.Wrong.size() << " wrong, first " << Oracle.Wrong.front();
  EXPECT_LT(Oracle.Rows.size(), Ratios.size() / 2);
  EXPECT_EQ(firstDifference(Oracle.Rows,
                            savedRows(P, configOf(SystemConfig::dual()))),
            "");
}

TEST(ProfilerTest, RowsPrintAsTheTextSignatureDid) {
  // Rows of a cold mobilenet-v2 search under PIMFlow's defaults, recorded
  // when the memo was keyed by the row text itself; the configuration
  // prefix is the plan key's (the artifact's `config` line).
  PimFlow Flow(OffloadPolicy::PimFlow);
  Flow.plan(buildModel("mobilenet-v2"));
  const std::string Log = savedText(Flow.profiler());
  const std::string Config =
      "tc32/gmc16/gbw14/gclk1.68/gf166/gsm30/glan64/gco1.028/pc16/pb16/pm16/"
      "pgb4096/prl16/pclk2/pfs200/ngb4/lh1/sg1/gr2/mo1/xb100/sy300/mc0/"
      "cf0.003|";
  EXPECT_EQ(Config, systemConfigPlanSig(Flow.config()) + "|");
  for (const char *Row : {
           "mddp0.30|conv2d[k1.1 s1.1 p0.0.0.0 g1][1x112x112x16][1x1x16x96]"
           "->[1x112x112x96];relu6[1x112x112x96]->[1x112x112x96];\t9508",
           "pim|gemm[1x1280][1280x1000][1000]->[1x1000];\t1005",
           "pipe2|conv2d[k1.1 s1.1 p0.0.0.0 g1][1x112x112x16][1x1x16x96]"
           "->[1x112x112x96];relu6[1x112x112x96]->[1x112x112x96];"
           "conv2d[k3.3 s2.2 p1.1.1.1 g96][1x112x112x96][3x3x1x96]"
           "->[1x56x56x96];\t25993.498857142858",
           "gpu|conv2d[k3.3 s1.1 p1.1.1.1 g32][1x112x112x32][3x3x1x32]"
           "->[1x112x112x32];relu6[1x112x112x32]->[1x112x112x32];"
           "\t9977.049542857143",
       })
    EXPECT_NE(Log.find('\n' + Config + Row + '\n'), std::string::npos)
        << Row;
}

TEST(ProfilerTest, ContentionRowsNeverServeAnotherConfiguration) {
  // The contention model reschedules an MD-DP sample, so a log written
  // without it must not answer a profiler with it: every field of the
  // plan key's configuration prints in the row prefix.
  const Graph G = buildToy();
  const NodeId Conv = firstConv(G);
  SystemConfig Plain = systemConfigFor(OffloadPolicy::PimFlow, {});
  SystemConfig Contended = Plain;
  Contended.ModelContention = true;
  Profiler Without(Plain);
  Profiler With(Contended);
  const double Off = Without.mdDpNs(G, Conv, 0.5);
  const double On = With.mdDpNs(G, Conv, 0.5);
  ASSERT_NE(On, Off);

  Profiler Loaded(Contended);
  ASSERT_TRUE(loadCacheText(Loaded, savedText(Without)));
  EXPECT_EQ(Loaded.mdDpNs(G, Conv, 0.5), On);
  EXPECT_EQ(Loaded.cacheHits(), 0u);
  EXPECT_EQ(Loaded.cacheMisses(), 1u);
}

TEST(ProfilerTest, LoadedRowsOfOtherConfigurationsSaveBackUnchanged) {
  // A log holding Newton+'s rows, rows no profiler prints and every other
  // row of a cold PIMFlow search, loaded before a PIMFlow search: the
  // search hits exactly the loaded PIMFlow rows and its own repeats, and
  // the log it saves is the loaded rows plus the cold search's.
  const Graph G = buildModel("mobilenet-v2");
  const PimFlowOptions O;
  auto SearchedBy = [&](OffloadPolicy Policy) {
    auto P = std::make_unique<Profiler>(systemConfigFor(Policy, O));
    SearchEngine(*P, searchOptionsFor(Policy, O)).search(G);
    return P;
  };
  const auto Newton = SearchedBy(OffloadPolicy::NewtonPlus);
  const auto Cold = SearchedBy(OffloadPolicy::PimFlow);
  const std::vector<std::string> ColdRows = linesOf(bodyOf(savedText(*Cold)));
  std::vector<std::string> Loaded = linesOf(bodyOf(savedText(*Newton)));
  for (const char *Row :
       {"any text at all\t1.5", "gpu|x\t-1", "a\tname with a tab\t7",
        "gc16/bw14.0/pc16/gb4/lh1/sg1/gr2/mo1|mddp0.305|conv2d;\t2"})
    Loaded.push_back(Row);
  for (size_t I = 0; I < ColdRows.size(); I += 2)
    Loaded.push_back(ColdRows[I]);
  std::string Body;
  for (const std::string &Row : Loaded)
    Body += Row + '\n';

  Profiler Warm(systemConfigFor(OffloadPolicy::PimFlow, O));
  ASSERT_TRUE(loadCacheText(Warm, withHeader(Body)));
  SearchEngine(Warm, searchOptionsFor(OffloadPolicy::PimFlow, O)).search(G);
  // 509 samples print 292 rows, 146 of them loaded: the other 146 miss.
  EXPECT_EQ(ColdRows.size(), 292u);
  EXPECT_EQ(Warm.cacheHits(), 363u);
  EXPECT_EQ(Warm.cacheMisses(), 146u);

  std::set<std::string> Expected(Loaded.begin(), Loaded.end());
  Expected.insert(ColdRows.begin(), ColdRows.end());
  const std::vector<std::string> Saved = linesOf(bodyOf(savedText(Warm)));
  EXPECT_EQ(std::set<std::string>(Saved.begin(), Saved.end()), Expected);
  EXPECT_EQ(Saved.size(), Expected.size());
}

TEST(ProfilerTest, LoadedRowReplacesAMeasuredTime) {
  // Loading a log into a profiler that already measured one of its rows
  // takes the log's time, and the saved log holds that row once.
  Graph G = pointwisePair();
  Profiler P(SystemConfig::dual());
  const double Measured = P.gpuNodeNs(G, firstConv(G));
  const std::string Row = bodyOf(savedText(P));
  const std::string Name = Row.substr(0, Row.find('\t'));
  ASSERT_TRUE(loadCacheText(P, withHeader(Name + "\t12.5\n")));
  EXPECT_NE(Measured, 12.5);
  EXPECT_EQ(P.gpuNodeNs(G, firstConv(G)), 12.5);
  EXPECT_EQ(P.cacheMisses(), 1u);
  EXPECT_EQ(bodyOf(savedText(P)), Name + "\t12.5\n");
}

TEST(ProfilerTest, PoolWindowsKeySeparateSamples) {
  // ir/Metrics prices a pool by OutElems x KernelH x KernelW, so two pools
  // with equal shapes and different windows are two samples, and each
  // row prints its window in the Conv2d bracket style.
  GraphBuilder B("pools");
  const ValueId X = B.input("x", TensorShape{1, 8, 8, 256});
  B.output(B.maxPool(X, 3, 1, 1));
  B.output(B.maxPool(X, 7, 1, 3));
  const Graph G = B.take();
  std::vector<NodeId> Pools;
  for (NodeId Id : G.topoOrder())
    if (G.node(Id).Kind == OpKind::MaxPool)
      Pools.push_back(Id);
  ASSERT_EQ(Pools.size(), 2u);

  const SystemConfig Config = systemConfigFor(OffloadPolicy::PimFlow, {});
  Profiler P(Config);
  const double Small = P.gpuNodeNs(G, Pools[0]);
  const double Large = P.gpuNodeNs(G, Pools[1]);
  EXPECT_EQ(P.cacheMisses(), 2u);
  EXPECT_EQ(Small, Profiler(Config).gpuNodeNs(G, Pools[0]));
  EXPECT_EQ(Large, Profiler(Config).gpuNodeNs(G, Pools[1]));
  EXPECT_LT(Small, Large);
  EXPECT_EQ(savedRows(P, configOf(Config)),
            (std::set<std::string>{
                "gpu|maxpool[k3.3 s1.1 p1.1.1.1][1x8x8x256]->[1x8x8x256];",
                "gpu|maxpool[k7.7 s1.1 p3.3.3.3][1x8x8x256]->[1x8x8x256];"}));
}
