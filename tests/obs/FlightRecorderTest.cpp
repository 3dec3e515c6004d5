//===- tests/obs/FlightRecorderTest.cpp - Flight-recorder tests -*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/FlightRecorder.h"
#include "support/Ring.h"

using namespace pf;
using namespace pf::obs;

namespace {

// The recorder is a process-wide singleton shared with every other suite in
// this binary (engine tests record real events), so each test starts from a
// cleared state.
class FlightRecorderTest : public ::testing::Test {
protected:
  void SetUp() override { FlightRecorder::instance().clear(); }
  void TearDown() override { FlightRecorder::instance().clear(); }
};

TEST(BoundedRing, KeepsLastNInPushOrder) {
  BoundedRing<int, 4> R;
  for (int I = 0; I < 10; ++I)
    R.push(I);
  EXPECT_EQ(R.size(), 4u);
  EXPECT_EQ(R.pushed(), 10u);
  std::vector<int> Seen;
  R.forEach([&](const int &V) { Seen.push_back(V); });
  EXPECT_EQ(Seen, (std::vector<int>{6, 7, 8, 9}));
}

TEST_F(FlightRecorderTest, WraparoundRetainsLastRingCapacity) {
  FlightRecorder &FR = FlightRecorder::instance();
  const size_t Extra = 50;
  for (size_t I = 0; I < FlightRecorder::RingCapacity + Extra; ++I)
    FR.record(FlightEventKind::CacheHit, static_cast<int64_t>(I));
  const auto Events = FR.merged();
  ASSERT_EQ(Events.size(), FlightRecorder::RingCapacity);
  // The oldest Extra events were overwritten: sequences start at Extra and
  // run contiguously to the last push.
  EXPECT_EQ(Events.front().Seq, Extra);
  for (size_t I = 1; I < Events.size(); ++I)
    EXPECT_EQ(Events[I].Seq, Events[I - 1].Seq + 1);
}

TEST_F(FlightRecorderTest, MergedIsSeqSortedAcrossThreads) {
  FlightRecorder &FR = FlightRecorder::instance();
  const size_t N = 1000;
  std::vector<std::thread> Writers;
  for (size_t T = 0; T < 4; ++T)
    Writers.emplace_back([&FR, T, N] {
      for (size_t I = T; I < N; I += 4)
        FR.record(FlightEventKind::RetryIssued, static_cast<int64_t>(I),
                  static_cast<int32_t>(I % 16));
    });
  for (std::thread &W : Writers)
    W.join();
  const auto Events = FR.merged();
  ASSERT_FALSE(Events.empty());
  EXPECT_LE(Events.size(), N);
  for (size_t I = 1; I < Events.size(); ++I)
    EXPECT_LT(Events[I - 1].Seq, Events[I].Seq) << "merge order broken";
}

TEST_F(FlightRecorderTest, RenderTextNamesReasonAndEvents) {
  FlightRecorder &FR = FlightRecorder::instance();
  FR.record(FlightEventKind::ChannelRemap, 42, 3, 9, 2.0, "unit");
  FR.record(FlightEventKind::FloorFallback, 43, 1, 1);
  const std::string Text = FR.renderText("unit-test reason");
  EXPECT_NE(Text.find("# pimflow flight recorder dump"), std::string::npos);
  EXPECT_NE(Text.find("# reason: unit-test reason"), std::string::npos);
  EXPECT_NE(Text.find("kind=channel-remap"), std::string::npos);
  EXPECT_NE(Text.find("kind=floor-fallback"), std::string::npos);
  EXPECT_NE(Text.find("note=unit"), std::string::npos);
}

TEST_F(FlightRecorderTest, ClearEmptiesAndRestartsSequence) {
  FlightRecorder &FR = FlightRecorder::instance();
  FR.record(FlightEventKind::CacheMiss, 1);
  ASSERT_FALSE(FR.merged().empty());
  FR.clear();
  EXPECT_TRUE(FR.merged().empty());
  FR.record(FlightEventKind::CacheMiss, 2);
  const auto Events = FR.merged();
  ASSERT_EQ(Events.size(), 1u);
  EXPECT_EQ(Events[0].Seq, 0u);
}

TEST_F(FlightRecorderTest, DisabledRecordingIsDropped) {
  FlightRecorder &FR = FlightRecorder::instance();
  FR.setEnabled(false);
  flightEvent(FlightEventKind::CacheHit, 1);
  FR.setEnabled(true);
  EXPECT_TRUE(FR.merged().empty());
}

TEST_F(FlightRecorderTest, AutoDumpWithoutPathIsANoop) {
  FlightRecorder &FR = FlightRecorder::instance();
  FR.setAutoDumpPath("");
  FR.record(FlightEventKind::WatchdogTrip, 7);
  FR.autoDump("should not write anywhere"); // must not crash or write
  EXPECT_TRUE(FR.autoDumpPath().empty());
}

TEST_F(FlightRecorderTest, DumpWritesMergedTrace) {
  FlightRecorder &FR = FlightRecorder::instance();
  FR.record(FlightEventKind::ChannelDead, 5, 2);
  const std::string Path =
      ::testing::TempDir() + "/pf_flight_recorder_test.txt";
  ASSERT_TRUE(FR.dump(Path, "dump test"));
  FILE *F = std::fopen(Path.c_str(), "r");
  ASSERT_NE(F, nullptr);
  char Buf[256] = {};
  ASSERT_NE(std::fgets(Buf, sizeof(Buf), F), nullptr);
  std::fclose(F);
  std::remove(Path.c_str());
  EXPECT_EQ(std::string(Buf), "# pimflow flight recorder dump\n");
}

} // namespace
