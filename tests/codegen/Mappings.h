//===- tests/codegen/Mappings.h - enumerated mappings and sweep -*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the codegen suites share: the (Cm, Cv, Ck) mappings the
/// command-scheduling pass enumerates, in its order, the closed-form
/// lower bound it gives each, and the seeded (config, spec) sweep that
/// PinnedPlans pins.
///
//===----------------------------------------------------------------------===//

#ifndef PIMFLOW_TESTS_CODEGEN_MAPPINGS_H
#define PIMFLOW_TESTS_CODEGEN_MAPPINGS_H

#include <algorithm>
#include <iterator>
#include <optional>
#include <tuple>
#include <vector>

#include "codegen/CommandGenerator.h"
#include "support/Random.h"

namespace pf {

/// Passes over all of \p S's vectors before a vector split: a pass fills
/// 1, 2 or 4 buffers, so three buffered vectors make a pass of two.
inline int64_t vectorPasses(const PimConfig &C, const PimKernelSpec &S) {
  int64_t B = std::min<int64_t>(C.NumGlobalBuffers, S.NumVectors);
  if (B == 3)
    B = 2;
  return (S.NumVectors + B - 1) / B;
}

inline std::vector<int> divisors(int N) {
  std::vector<int> Out;
  for (int D = 1; D <= N; ++D)
    if (N % D == 0)
      Out.push_back(D);
  return Out;
}

/// Every (Cm, Cv, Ck) mapping the command-scheduling pass may enumerate
/// for \p S, in its lexicographic order: divisors of the channels left,
/// the granularity ceiling, Cm <= M, Cv <= the vector passes, and
/// Ck * elementsPerComp <= K.
inline std::vector<std::tuple<int, int, int>>
enumerableMappings(const PimConfig &C, const CodegenOptions &O,
                   const PimKernelSpec &S) {
  const int64_t Passes = vectorPasses(C, S);
  std::vector<std::tuple<int, int, int>> Out;
  for (int Cm : divisors(C.Channels)) {
    if (Cm > S.M)
      continue;
    for (int Cv : divisors(C.Channels / Cm)) {
      if (Cv > 1 && O.MaxGranularity == ScheduleGranularity::GAct)
        break;
      if (Cv > Passes)
        break;
      for (int Ck : divisors(C.Channels / (Cm * Cv))) {
        if (Ck > 1 && O.MaxGranularity != ScheduleGranularity::Comp)
          break;
        if (Ck > 1 && static_cast<int64_t>(Ck) * C.elementsPerComp() > S.K)
          break;
        Out.emplace_back(Cm, Cv, Ck);
      }
    }
  }
  return Out;
}

/// The lower bound the search gives mapping (Cm, Cv, Ck) of \p S: its
/// price with the channel's cycles replaced by the per-pass busy cycles
/// times the passes (the larger engine's under GWRITE latency hiding,
/// their sum without).
inline double mappingBoundNs(const PimCommandGenerator &Gen,
                             const PimKernelSpec &S, int Cm, int Cv, int Ck) {
  const PimConfig &C = Gen.config();
  const PassCost Cost = Gen.passCost(S, Cm, Ck);
  const int64_t Passes = (vectorPasses(C, S) + Cv - 1) / Cv;
  const ChannelPhaseCycles &Pass = Cost.Phases;
  const int64_t Floor = C.GwriteLatencyHiding
                            ? std::max(Passes * Pass.GwriteCycles,
                                       Passes * Pass.bankBusyCycles())
                            : Passes * Pass.busyCycles();
  return std::max(C.cyclesToNs(Floor),
                  C.fetchFloorNs(Cm * Cv * Ck * (Passes * Cost.GwriteBursts))) +
         Cost.MergeNs;
}

/// The seeded sweep PinnedPlans pins: SweepPairs pairs drawn from an Rng
/// seeded with SweepSeed.
inline constexpr uint64_t SweepSeed = 20231017;
inline constexpr int SweepPairs = 2400;

struct SweepPair {
  PimConfig Config;
  CodegenOptions Options;
  PimKernelSpec Spec;
};

/// A log-uniform integer in [1, 2^(Log2Max + 1)): a uniform octave, then
/// a uniform value inside it.
inline int64_t logUniform(Rng &R, int Log2Max) {
  const int64_t Lo = int64_t{1}
                     << R.nextBelow(static_cast<uint64_t>(Log2Max) + 1);
  return Lo + static_cast<int64_t>(R.nextBelow(static_cast<uint64_t>(Lo)));
}

/// The next pair of the seeded sweep, or nothing when the draw falls on
/// the excluded min(buffers, vectors) == 3 case.
inline std::optional<SweepPair> drawSweepPair(Rng &R) {
  constexpr int ChannelCounts[] = {4, 6, 8, 12, 16, 24, 28, 32, 64};
  constexpr int Buffers[] = {1, 2, 4};
  constexpr ScheduleGranularity Ceilings[] = {ScheduleGranularity::GAct,
                                              ScheduleGranularity::ReadRes,
                                              ScheduleGranularity::Comp};
  SweepPair P;
  P.Config = PimConfig::newtonPlusPlus();
  P.Config.Channels = ChannelCounts[R.nextBelow(std::size(ChannelCounts))];
  P.Config.NumGlobalBuffers = Buffers[R.nextBelow(std::size(Buffers))];
  P.Config.GwriteLatencyHiding = R.nextBelow(2) == 1;
  P.Options.StridedGwrite = R.nextBelow(2) == 1;
  P.Options.MaxGranularity = Ceilings[R.nextBelow(std::size(Ceilings))];
  P.Spec.M = logUniform(R, 12);
  P.Spec.K = logUniform(R, 13);
  P.Spec.NumVectors = logUniform(R, 12);
  P.Spec.GwriteSegments = 1 + 2 * static_cast<int64_t>(R.nextBelow(4));
  if (std::min<int64_t>(P.Config.NumGlobalBuffers, P.Spec.NumVectors) == 3)
    return std::nullopt;
  return P;
}

} // namespace pf

#endif // PIMFLOW_TESTS_CODEGEN_MAPPINGS_H
