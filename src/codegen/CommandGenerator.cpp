//===- codegen/CommandGenerator.cpp - PIM command generation ----*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "codegen/CommandGenerator.h"

#include <algorithm>
#include <utility>

#include "obs/Counters.h"
#include "support/Format.h"

using namespace pf;

const char *pf::granularityName(ScheduleGranularity G) {
  switch (G) {
  case ScheduleGranularity::GAct:
    return "g_act";
  case ScheduleGranularity::ReadRes:
    return "readres";
  case ScheduleGranularity::Comp:
    return "comp";
  }
  pf_unreachable("unknown granularity");
}

std::string ChannelMapping::describeMapping() const {
  return formatStr("m%d.v%d.k%d@%s", ChannelsForM, ChannelsForV,
                   ChannelsForK, granularityName(Granularity));
}

namespace {

int64_t ceilDiv(int64_t A, int64_t B) {
  PF_ASSERT(B > 0, "ceilDiv by non-positive");
  return (A + B - 1) / B;
}

/// All divisors of \p N in increasing order.
std::vector<int> divisorsOf(int N) {
  std::vector<int> Out;
  for (int D = 1; D <= N; ++D)
    if (N % D == 0)
      Out.push_back(D);
  return Out;
}

/// The Fig. 6 granularity a mapping with \p Cv vector partitions and
/// \p Ck K-partitions needs.
ScheduleGranularity granularityOf(int Cv, int Ck) {
  return Ck > 1   ? ScheduleGranularity::Comp
         : Cv > 1 ? ScheduleGranularity::ReadRes
                  : ScheduleGranularity::GAct;
}

} // namespace

PimKernelRecord pf::recordOf(NodeId Id, const PimKernelPlan &Plan) {
  PF_ASSERT(!Plan.Stats.ChannelPhases.empty(), "PIM plan uses no channel");
  PimKernelRecord R;
  static_cast<ChannelMapping &>(R) = Plan;
  R.Id = Id;
  R.GwriteBursts = Plan.Stats.GwriteBursts;
  R.GActs = Plan.Stats.GActs;
  R.CompColumns = Plan.Stats.CompColumns;
  R.ReadResCmds = Plan.Stats.ReadResCmds;
  R.ChannelPhases = Plan.Stats.ChannelPhases.front();
  return R;
}

PimCommandGenerator::MappingExtras
PimCommandGenerator::emitChannel(const PimKernelSpec &Spec,
                                 const ChannelMapping &Map,
                                 ChannelTrace &Channel) const {
  PF_ASSERT(Map.ChannelsForM >= 1 && Map.ChannelsForV >= 1 &&
                Map.ChannelsForK >= 1,
            "channel partition factors must be positive");
  PF_ASSERT(Map.usedChannels() <= Config.Channels,
            "channel partition exceeds the PIM channel count");

  const int64_t Banks = Config.BanksPerChannel;
  const int64_t ElemsPerComp = Config.elementsPerComp();
  const int64_t BufElems = Config.bufferElements();

  // Work shares of one channel (ceil everywhere: every channel is priced as
  // the worst-case channel, keeping the estimate conservative).
  const int64_t RowsPerPart = ceilDiv(Spec.M, Map.ChannelsForM);
  // Matrix rows are interleaved across the channel's banks; the weight
  // layout packs each bank's share densely, so one activated DRAM row
  // serves ColumnIOsPerRow consecutive column computes regardless of how
  // short the individual dot products are.
  const int64_t RowsPerBank = ceilDiv(RowsPerPart, Banks);
  // Buffers used per pass: the largest supported GWRITE width (1/2/4) that
  // the vector count can fill.
  int64_t B = std::min<int64_t>(Config.NumGlobalBuffers, Spec.NumVectors);
  if (B == 3)
    B = 2;
  const int64_t PassesTotal = ceilDiv(Spec.NumVectors, B);
  const int64_t PassesPerPart = ceilDiv(PassesTotal, Map.ChannelsForV);
  const int64_t KPart = ceilDiv(Spec.K, Map.ChannelsForK);
  const int64_t NumTiles = ceilDiv(KPart, BufElems);

  // Result-latch pressure: each bank accumulates RowsPerBank x B partial
  // sums across the K-tiles. When that exceeds the latch count, partial
  // results must drain after every tile and be merged outside the memory.
  const bool DrainPerTile =
      NumTiles > 1 && RowsPerBank * B > Config.ResultLatchesPerBank;

  // Build the per-pass command pattern of one channel.
  MappingExtras X;
  Channel.Blocks.resize(1);
  Channel.Blocks.front().Repeats = PassesPerPart;
  std::vector<PimCommand> &Pattern = Channel.Blocks.front().Pattern;
  Pattern.clear();
  for (int64_t T = 0; T < NumTiles; ++T) {
    const int64_t TileElems =
        T + 1 < NumTiles ? BufElems : KPart - (NumTiles - 1) * BufElems;
    const int64_t BurstsPerBuffer =
        ceilDiv(TileElems * 2, Config.BurstBytes);
    // Fetch the B input-vector tiles into the global buffers. Without the
    // strided-GWRITE extension every contiguous segment of a conv window
    // needs its own command (and pays the first-burst latency again).
    if (Options.StridedGwrite || Spec.GwriteSegments == 1) {
      Pattern.push_back(
          PimCommand::gwrite(BurstsPerBuffer, static_cast<int>(B)));
      X.GwriteBursts += PassesPerPart * B * BurstsPerBuffer;
    } else {
      const int64_t Segments =
          std::min<int64_t>(Spec.GwriteSegments, BurstsPerBuffer);
      const int64_t BurstsPerSegment = ceilDiv(BurstsPerBuffer, Segments);
      for (int64_t S = 0; S < Segments; ++S)
        Pattern.push_back(
            PimCommand::gwrite(BurstsPerSegment, static_cast<int>(B)));
      X.GwriteBursts += PassesPerPart * Segments * B * BurstsPerSegment;
    }
    // Stream this K-tile of every resident matrix row through the MAC
    // trees: per bank, RowsPerBank dot-product segments of
    // ceil(TileElems/16) column I/Os each. Activations are shared across
    // the B buffered vectors — the multi-buffer G_ACT reuse.
    const int64_t ColumnsPerBank =
        RowsPerBank * ceilDiv(TileElems, ElemsPerComp);
    const int64_t GActs = ceilDiv(ColumnsPerBank, Config.ColumnIOsPerRow);
    Pattern.push_back(PimCommand::gact(GActs));
    Pattern.push_back(PimCommand::comp(B * ColumnsPerBank));
    if (DrainPerTile)
      Pattern.push_back(
          PimCommand::readRes(B * ceilDiv(RowsPerPart, ElemsPerComp)));
  }
  // Drain the accumulated results: each 32B READRES carries 16 fp16
  // partial outputs; every buffered vector drains its RowsPerPart results.
  if (!DrainPerTile)
    Pattern.push_back(
        PimCommand::readRes(B * ceilDiv(RowsPerPart, ElemsPerComp)));

  // Partial sums — from COMP-granularity K-splits across channels and from
  // latch-pressure per-tile drains — are merged by a lightweight
  // elementwise add on the GPU side; charge the merge traffic at the
  // cross-channel rate.
  int64_t PartialCopies = Map.ChannelsForK - 1;
  if (DrainPerTile)
    PartialCopies += NumTiles - 1;
  if (PartialCopies > 0) {
    const double MergeBytes = static_cast<double>(PartialCopies + 1) *
                              static_cast<double>(Spec.M) *
                              static_cast<double>(Spec.NumVectors) * 2.0;
    X.MergeNs = MergeBytes / 100.0; // 100 GB/s crossbar -> ns per byte.
  }
  return X;
}

double PimCommandGenerator::priceNs(const ChannelMapping &Map,
                                    const MappingExtras &X,
                                    int64_t ChannelCycles) const {
  return std::max(Config.cyclesToNs(ChannelCycles),
                  Config.fetchFloorNs(Map.usedChannels() * X.GwriteBursts)) +
         X.MergeNs;
}

PimKernelPlan PimCommandGenerator::priceMapping(const PimKernelSpec &Spec,
                                                const ChannelMapping &Map,
                                                const ChannelTrace &Channel,
                                                const MappingExtras &X) const {
  PimKernelPlan Plan;
  static_cast<ChannelMapping &>(Plan) = Map;
  Plan.Stats = Sim.runReplicated(Channel, Map.usedChannels());
  Plan.Ns = Plan.Stats.Ns + X.MergeNs;
  Plan.EffectiveMacs = Spec.totalMacs();
  return Plan;
}

DeviceTrace PimCommandGenerator::replicate(const ChannelTrace &Channel,
                                           int UsedChannels) const {
  DeviceTrace Trace(Config.Channels);
  for (int C = 0; C < UsedChannels; ++C)
    Trace.Channels[static_cast<size_t>(C)] = Channel;
  return Trace;
}

PimKernelPlan
PimCommandGenerator::planWithMapping(const PimKernelSpec &Spec,
                                     int ChannelsForM, int ChannelsForV,
                                     int ChannelsForK) const {
  PF_ASSERT(Spec.valid(), "invalid PIM kernel spec");
  const ChannelMapping Map{ChannelsForM, ChannelsForV, ChannelsForK,
                           granularityOf(ChannelsForV, ChannelsForK)};
  ChannelTrace Channel;
  const MappingExtras X = emitChannel(Spec, Map, Channel);
  PimKernelPlan Plan = priceMapping(Spec, Map, Channel, X);
  Plan.Trace = replicate(Channel, Plan.usedChannels());
  return Plan;
}

PimKernelPlan PimCommandGenerator::plan(const PimKernelSpec &Spec) const {
  PF_ASSERT(Spec.valid(), "invalid PIM kernel spec");

  // Every mapping is emitted as the one command stream its used channels
  // all carry. A mapping whose lower bound reaches the best price so far
  // cannot win and is skipped; the others are priced from one simulated
  // channel. Only the kept mapping gets full run stats and a device trace.
  ChannelMapping Best;
  MappingExtras BestExtras;
  double BestNs = 0.0;
  bool HaveBest = false;
  ChannelTrace BestChannel, Channel;
  int64_t Tried = 0, Pruned = 0;

  const int64_t B =
      std::min<int64_t>(Config.NumGlobalBuffers, Spec.NumVectors);
  const int64_t PassesTotal = ceilDiv(Spec.NumVectors, B);

  for (int Cm : divisorsOf(Config.Channels)) {
    // More M-partitions than rows only idles channels.
    if (Cm > Spec.M)
      continue;
    for (int Cv : divisorsOf(Config.Channels / Cm)) {
      if (Cv > 1 && Options.MaxGranularity == ScheduleGranularity::GAct)
        break;
      if (Cv > PassesTotal)
        break;
      for (int Ck : divisorsOf(Config.Channels / (Cm * Cv))) {
        if (Ck > 1 && Options.MaxGranularity != ScheduleGranularity::Comp)
          break;
        // Splitting K below one COMP's worth of elements is pointless.
        if (static_cast<int64_t>(Ck) * Config.elementsPerComp() > Spec.K &&
            Ck > 1)
          break;
        ++Tried;
        const ChannelMapping Map{Cm, Cv, Ck, granularityOf(Cv, Ck)};
        const MappingExtras X = emitChannel(Spec, Map, Channel);
        if (HaveBest) {
          // Admissible: both engines start at cycle 0, the fetch engine
          // runs the GWRITEs back to back, the bank engine the rest, and
          // the channel ends on a READRES after its last COMP, which
          // waits for the last GWRITE. Without latency hiding every
          // command serializes, so the summed bound is exact.
          const ChannelPhaseCycles Busy = phaseCyclesOf(Config, Channel);
          const int64_t Floor =
              Config.GwriteLatencyHiding
                  ? std::max(Busy.GwriteCycles, Busy.bankBusyCycles())
                  : Busy.busyCycles();
          if (priceNs(Map, X, Floor) >= BestNs) {
            ++Pruned;
            continue;
          }
        }
        const double Ns = priceNs(Map, X, Sim.simulateChannel(Channel));
        if (!HaveBest || Ns < BestNs) {
          Best = Map;
          BestExtras = X;
          BestNs = Ns;
          std::swap(BestChannel, Channel);
          HaveBest = true;
        }
      }
    }
  }
  obs::addCounter("codegen.mappings_tried", Tried);
  obs::addCounter("codegen.mappings_pruned", Pruned);
  PF_ASSERT(HaveBest, "no feasible PIM mapping found");
  PimKernelPlan Plan = priceMapping(Spec, Best, BestChannel, BestExtras);
  PF_ASSERT(Plan.Ns == BestNs,
            "full-stats price of the kept mapping differs from its price");
  Plan.Trace = replicate(BestChannel, Plan.usedChannels());
  obs::addCounter("codegen.plans");
  return Plan;
}
