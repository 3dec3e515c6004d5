//===- tests/serve/ChannelPressureTest.cpp - Seeded pressure matrix -*-C++-*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Channel-pressure coverage: across a seeded matrix of pool sizes,
// floors, and admission bounds, a request that cannot get its planned
// channels deterministically degrades (>= floor) or falls back to the
// GPU floor — and no session ever executes on a channel it does not own:
// any two sessions whose service intervals overlap in virtual time hold
// disjoint channel sets.
//
//===----------------------------------------------------------------------===//

#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "models/Zoo.h"
#include "serve/Server.h"

using namespace pf;
using namespace pf::serve;

namespace {

struct Pressure {
  int Pool;
  int Floor;
  int MaxInflight;
  int MaxQueue;
  uint64_t Seed;
};

ServeResult runPressure(const Pressure &P) {
  ServerOptions SO;
  SO.Flow.PimChannels = 8;
  SO.Flow.PimFloor = P.Floor;
  SO.PoolChannels = P.Pool;
  SO.MaxInflight = P.MaxInflight;
  SO.MaxQueue = P.MaxQueue;

  LoadSpec Spec;
  Spec.Count = 24;
  Spec.Seed = P.Seed;
  Spec.MeanGapUs = 3.0;
  Spec.Batches = {1, 2};

  std::vector<std::pair<std::string, Graph>> Models;
  Models.emplace_back("toy", buildToy());
  Server S(std::move(Models), SO);
  return S.run(Spec);
}

TEST(ChannelPressureTest, MatrixDegradesOrFallsBackDeterministically) {
  const std::vector<Pressure> Matrix = {
      {8, 1, 2, 4, 1},  // pool == planned: grants are all-or-floor
      {12, 2, 3, 1, 2}, // 1.5x pool: partial remainders -> degraded
      {12, 2, 3, 1, 3}, // same shape, different arrival stream
      {20, 4, 4, 0, 4}, // 2.5x pool, no queue: immediate decisions only
      {6, 1, 3, 2, 5},  // pool *below* planned: nothing can be served full
  };

  for (const Pressure &P : Matrix) {
    SCOPED_TRACE(testing::Message()
                 << "pool=" << P.Pool << " floor=" << P.Floor
                 << " inflight=" << P.MaxInflight << " queue=" << P.MaxQueue
                 << " seed=" << P.Seed);
    const ServeResult R = runPressure(P);
    EXPECT_EQ(R.Served + R.Degraded + R.FloorFallbacks + R.Shed, 24);

    for (const auto &SP : R.Sessions) {
      const Session &S = *SP;
      // A grant never exceeds the want or the pool, and every granted id
      // is a real channel of the pool.
      EXPECT_LE(S.channelsGranted(), S.ChannelsWanted);
      EXPECT_LE(S.channelsGranted(), P.Pool);
      for (int C : S.Channels) {
        EXPECT_GE(C, 0);
        EXPECT_LT(C, P.Pool);
      }
      switch (S.Outcome) {
      case RequestOutcome::Served:
        EXPECT_EQ(S.channelsGranted(), S.ChannelsWanted);
        break;
      case RequestOutcome::Degraded:
        EXPECT_GE(S.channelsGranted(), P.Floor);
        EXPECT_LT(S.channelsGranted(), S.ChannelsWanted);
        break;
      case RequestOutcome::FloorFallback:
      case RequestOutcome::Shed:
        EXPECT_TRUE(S.Channels.empty());
        break;
      }
    }

    // Pool below planned: a full grant is impossible by construction.
    if (P.Pool < 8) {
      EXPECT_EQ(R.Served, 0);
    }

    // Exclusivity: overlapping service intervals => disjoint channels.
    for (size_t I = 0; I < R.Sessions.size(); ++I) {
      const Session &A = *R.Sessions[I];
      if (!A.ran() || A.Channels.empty())
        continue;
      for (size_t J = I + 1; J < R.Sessions.size(); ++J) {
        const Session &B = *R.Sessions[J];
        if (!B.ran() || B.Channels.empty())
          continue;
        const bool Overlap = A.StartNs < B.EndNs && B.StartNs < A.EndNs;
        if (!Overlap)
          continue;
        std::set<int> Union(A.Channels.begin(), A.Channels.end());
        for (int C : B.Channels)
          EXPECT_TRUE(Union.insert(C).second)
              << "sessions " << A.Req.Id << " and " << B.Req.Id
              << " both executed on channel " << C;
      }
    }
  }
}

TEST(ChannelPressureTest, RerunsAreByteIdentical) {
  const Pressure P = {12, 2, 3, 1, 7};
  const std::string First = renderServeSummary(runPressure(P));
  const std::string Second = renderServeSummary(runPressure(P));
  EXPECT_EQ(First, Second);
  EXPECT_NE(First.find("outcome=degraded"), std::string::npos);
}

} // namespace
