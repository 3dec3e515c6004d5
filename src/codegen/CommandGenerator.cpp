//===- codegen/CommandGenerator.cpp - PIM command generation ----*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "codegen/CommandGenerator.h"

#include <algorithm>
#include <bit>
#include <utility>
#include <vector>

#include "obs/Counters.h"
#include "support/Diagnostics.h"
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

/// The Fig. 6 granularity a mapping with \p Cv vector partitions and
/// \p Ck K-partitions needs.
ScheduleGranularity granularityOf(int Cv, int Ck) {
  return Ck > 1   ? ScheduleGranularity::Comp
         : Cv > 1 ? ScheduleGranularity::ReadRes
                  : ScheduleGranularity::GAct;
}

/// Vectors buffered per pass: the largest supported GWRITE width (1/2/4)
/// that the vector count can fill.
int64_t buffersPerPass(const PimConfig &Config, const PimKernelSpec &Spec) {
  const int64_t B =
      std::min<int64_t>(Config.NumGlobalBuffers, Spec.NumVectors);
  return B == 3 ? 2 : B;
}

/// Passes over all vectors, before the vector split shares them out.
int64_t passesTotal(const PimConfig &Config, const PimKernelSpec &Spec) {
  return ceilDiv(Spec.NumVectors, buffersPerPass(Config, Spec));
}

/// The commands of one K-tile.
struct TileCommands {
  /// GWRITE commands, each filling the pass's buffers with BurstsPerGwrite
  /// bursts per buffer.
  int64_t Gwrites = 1;
  int64_t BurstsPerGwrite = 0;
  int64_t GActs = 0;
  int64_t CompColumns = 0;
};

/// One pass of one used channel under an (M, K) split: the tile
/// description the emitter and the closed-form pass cost both read.
struct PassShape {
  /// Vectors buffered per pass (1, 2 or 4).
  int64_t Buffers = 1;
  int64_t NumTiles = 0;
  /// Every tile but the last carries Full's commands.
  TileCommands Full, Last;
  /// Whether results drain after every tile instead of once per pass.
  bool DrainPerTile = false;
  /// READRES repetitions of one drain.
  int64_t DrainReads = 0;
  double MergeNs = 0.0;
};

PassShape shapeOf(const PimConfig &Config, const CodegenOptions &Options,
                  const PimKernelSpec &Spec, int ChannelsForM,
                  int ChannelsForK) {
  PassShape S;
  S.Buffers = buffersPerPass(Config, Spec);
  // Work shares of one channel (ceil everywhere: every channel is priced as
  // the worst-case channel, keeping the estimate conservative).
  const int64_t RowsPerPart = ceilDiv(Spec.M, ChannelsForM);
  // Matrix rows are interleaved across the channel's banks; the weight
  // layout packs each bank's share densely, so one activated DRAM row
  // serves ColumnIOsPerRow consecutive column computes regardless of how
  // short the individual dot products are.
  const int64_t RowsPerBank = ceilDiv(RowsPerPart, Config.BanksPerChannel);
  const int64_t KPart = ceilDiv(Spec.K, ChannelsForK);
  const int64_t BufElems = Config.bufferElements();
  S.NumTiles = ceilDiv(KPart, BufElems);

  auto TileOf = [&](int64_t TileElems) {
    TileCommands T;
    // Fetch the B input-vector tiles into the global buffers. Without the
    // strided-GWRITE extension every contiguous segment of a conv window
    // needs its own command (and pays the first-burst latency again).
    const int64_t BurstsPerBuffer = ceilDiv(TileElems * 2, Config.BurstBytes);
    T.BurstsPerGwrite = BurstsPerBuffer;
    if (!Options.StridedGwrite && Spec.GwriteSegments != 1) {
      T.Gwrites = std::min<int64_t>(Spec.GwriteSegments, BurstsPerBuffer);
      T.BurstsPerGwrite = ceilDiv(BurstsPerBuffer, T.Gwrites);
    }
    // Stream this K-tile of every resident matrix row through the MAC
    // trees: per bank, RowsPerBank dot-product segments of
    // ceil(TileElems/16) column I/Os each. Activations are shared across
    // the B buffered vectors — the multi-buffer G_ACT reuse.
    const int64_t ColumnsPerBank =
        RowsPerBank * ceilDiv(TileElems, Config.elementsPerComp());
    T.GActs = ceilDiv(ColumnsPerBank, Config.ColumnIOsPerRow);
    T.CompColumns = S.Buffers * ColumnsPerBank;
    return T;
  };
  S.Last = TileOf(KPart - (S.NumTiles - 1) * BufElems);
  S.Full = S.NumTiles > 1 ? TileOf(BufElems) : S.Last;

  // Result-latch pressure: each bank accumulates RowsPerBank x B partial
  // sums across the K-tiles. When that exceeds the latch count, partial
  // results must drain after every tile and be merged outside the memory.
  S.DrainPerTile = S.NumTiles > 1 &&
                   RowsPerBank * S.Buffers > Config.ResultLatchesPerBank;
  // Each 32B READRES carries 16 fp16 partial outputs; every buffered
  // vector drains its RowsPerPart results.
  S.DrainReads = S.Buffers * ceilDiv(RowsPerPart, Config.elementsPerComp());
  // Partial sums — from COMP-granularity K-splits across channels and from
  // latch-pressure per-tile drains — are merged by a lightweight
  // elementwise add on the GPU side; charge the merge traffic at the
  // cross-channel rate.
  int64_t PartialCopies = ChannelsForK - 1;
  if (S.DrainPerTile)
    PartialCopies += S.NumTiles - 1;
  if (PartialCopies > 0) {
    const double MergeBytes = static_cast<double>(PartialCopies + 1) *
                              static_cast<double>(Spec.M) *
                              static_cast<double>(Spec.NumVectors) * 2.0;
    S.MergeNs = MergeBytes / 100.0; // 100 GB/s crossbar -> ns per byte.
  }
  return S;
}

/// Writes the stream of \p Passes passes of \p Shape into \p Channel
/// (reusing its storage); returns the GWRITE bursts it fetches.
int64_t emitPasses(const PassShape &Shape, int64_t Passes,
                   ChannelTrace &Channel) {
  const int B = static_cast<int>(Shape.Buffers);
  int64_t Bursts = 0;
  Channel.Blocks.resize(1);
  Channel.Blocks.front().Repeats = Passes;
  std::vector<PimCommand> &Pattern = Channel.Blocks.front().Pattern;
  Pattern.clear();
  for (int64_t T = 0; T < Shape.NumTiles; ++T) {
    const TileCommands &Tile = T + 1 < Shape.NumTiles ? Shape.Full : Shape.Last;
    for (int64_t G = 0; G < Tile.Gwrites; ++G) {
      Pattern.push_back(PimCommand::gwrite(Tile.BurstsPerGwrite, B));
      Bursts += Passes * B * Tile.BurstsPerGwrite;
    }
    Pattern.push_back(PimCommand::gact(Tile.GActs));
    Pattern.push_back(PimCommand::comp(Tile.CompColumns));
    if (Shape.DrainPerTile)
      Pattern.push_back(PimCommand::readRes(Shape.DrainReads));
  }
  if (!Shape.DrainPerTile)
    Pattern.push_back(PimCommand::readRes(Shape.DrainReads));
  return Bursts;
}

/// The cost of one pass of \p Shape, in closed form.
PassCost costOf(const PimConfig &Config, const PassShape &Shape) {
  const int B = static_cast<int>(Shape.Buffers);
  PassCost Cost;
  Cost.MergeNs = Shape.MergeNs;
  auto AddTiles = [&](const TileCommands &Tile, int64_t Tiles) {
    Cost.Phases.GwriteCycles +=
        Tiles * Tile.Gwrites *
        commandCycles(Config, PimCommand::gwrite(Tile.BurstsPerGwrite, B));
    Cost.Phases.GactCycles +=
        Tiles * commandCycles(Config, PimCommand::gact(Tile.GActs));
    Cost.Phases.CompCycles +=
        Tiles * commandCycles(Config, PimCommand::comp(Tile.CompColumns));
    Cost.GwriteBursts += Tiles * Tile.Gwrites * B * Tile.BurstsPerGwrite;
  };
  AddTiles(Shape.Full, Shape.NumTiles - 1);
  AddTiles(Shape.Last, 1);
  Cost.Phases.ReadResCycles =
      (Shape.DrainPerTile ? Shape.NumTiles : 1) *
      commandCycles(Config, PimCommand::readRes(Shape.DrainReads));
  return Cost;
}

#ifdef PIMFLOW_CHECKED
constexpr bool CheckSearches = true;
#else
constexpr bool CheckSearches = false;
#endif

/// One (Cm, Ck) split's pass and its cost, shared by that Cm's vector
/// splits.
struct KSplit {
  int Ck;
  PassShape Shape;
  PassCost Cost;
};

/// One enumerated mapping and its closed-form lower bound.
struct Candidate {
  ChannelMapping Map;
  /// Index of the mapping's (Cm, Ck) split in the split table.
  size_t Split;
  /// Passes each used channel makes.
  int64_t Passes;
  PimCommandGenerator::MappingExtras Extras;
  double BoundNs;
};

/// What the search rebuilds for every plan, kept per thread so that its
/// storage is reused: in steady state a search allocates nothing. Not per
/// generator: the engine builds a generator for every run.
struct SearchScratch {
  std::vector<KSplit> Splits;
  /// Every candidate, in enumeration order.
  std::vector<Candidate> Candidates;
  /// The stream of the candidate being priced, and of the best so far.
  ChannelTrace Channel, Kept;
};

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
  const PassShape Shape =
      shapeOf(Config, Options, Spec, Map.ChannelsForM, Map.ChannelsForK);
  MappingExtras X;
  X.GwriteBursts = emitPasses(
      Shape, ceilDiv(passesTotal(Config, Spec), Map.ChannelsForV), Channel);
  X.MergeNs = Shape.MergeNs;
  return X;
}

PassCost PimCommandGenerator::passCost(const PimKernelSpec &Spec,
                                       int ChannelsForM,
                                       int ChannelsForK) const {
  return costOf(Config,
                shapeOf(Config, Options, Spec, ChannelsForM, ChannelsForK));
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

PimKernelPlan PimCommandGenerator::search(const PimKernelSpec &Spec,
                                          bool Traced) const {
  PF_ASSERT(Spec.valid(), "invalid PIM kernel spec");

  // Every used channel of a mapping repeats one pass, whose cost depends
  // on (Cm, Ck) alone, so a mapping's lower bound is its pass count times
  // that cost. The candidates are enumerated into one table with their
  // bounds; divisors are enumerated in increasing order, so the table is
  // lexicographic in (Cm, Cv, Ck).
  thread_local SearchScratch S;
  S.Splits.clear();
  S.Candidates.clear();
  const int Channels = Config.Channels;
  const int64_t PassesTotal = passesTotal(Config, Spec);
  size_t Least = 0;
  for (int Cm = 1; Cm <= Channels; ++Cm) {
    // More M-partitions than rows only idles channels.
    if (Cm > Spec.M)
      break;
    if (Channels % Cm != 0)
      continue;
    const int PerM = Channels / Cm;
    // This Cm's K splits: one entry per divisor of PerM that may split K.
    const size_t FirstSplit = S.Splits.size();
    for (int Ck = 1; Ck <= PerM; ++Ck) {
      if (PerM % Ck != 0)
        continue;
      if (Ck > 1 && Options.MaxGranularity != ScheduleGranularity::Comp)
        break;
      // Splitting K below one COMP's worth of elements is pointless.
      if (Ck > 1 && static_cast<int64_t>(Ck) * Config.elementsPerComp() >
                        Spec.K)
        break;
      const PassShape Shape = shapeOf(Config, Options, Spec, Cm, Ck);
      S.Splits.push_back({Ck, Shape, costOf(Config, Shape)});
    }
    for (int Cv = 1; Cv <= PerM; ++Cv) {
      if (PerM % Cv != 0)
        continue;
      if (Cv > 1 && Options.MaxGranularity == ScheduleGranularity::GAct)
        break;
      if (Cv > PassesTotal)
        break;
      const int64_t Passes = ceilDiv(PassesTotal, Cv);
      const int PerMV = PerM / Cv;
      for (size_t I = FirstSplit; I < S.Splits.size(); ++I) {
        const KSplit &K = S.Splits[I];
        if (K.Ck > PerMV)
          break;
        if (PerMV % K.Ck != 0)
          continue;
        const ChannelMapping Map{Cm, Cv, K.Ck, granularityOf(Cv, K.Ck)};
        const MappingExtras X{Passes * K.Cost.GwriteBursts, K.Cost.MergeNs};
        // Admissible: both engines start at cycle 0, the fetch engine runs
        // the GWRITEs back to back, the bank engine the rest, and the
        // channel ends on a READRES after its last COMP, which waits for
        // the last GWRITE. Without latency hiding every command
        // serializes, so the summed bound is exact.
        const ChannelPhaseCycles &Pass = K.Cost.Phases;
        const int64_t Floor =
            Config.GwriteLatencyHiding
                ? std::max(Passes * Pass.GwriteCycles,
                           Passes * Pass.bankBusyCycles())
                : Passes * Pass.busyCycles();
        S.Candidates.push_back({Map, I, Passes, X, priceNs(Map, X, Floor)});
        if (S.Candidates.back().BoundNs < S.Candidates[Least].BoundNs)
          Least = S.Candidates.size() - 1;
      }
    }
  }
  PF_ASSERT(!S.Candidates.empty(), "no feasible PIM mapping found");

  // Best bound first: the least-bound candidate (the earliest of equal
  // bounds) is emitted and priced from one simulated channel first, so the
  // bound prunes from the start. The walk in enumeration order then prices
  // only candidates that can still win: one whose bound is below the best
  // price, or equal to it and earlier than the best, which wins a tie.
  // The kept mapping is therefore the first fastest in enumeration order.
  auto Price = [&](const Candidate &C, ChannelTrace &Channel) {
    emitPasses(S.Splits[C.Split].Shape, C.Passes, Channel);
    return priceNs(C.Map, C.Extras, Sim.simulateChannel(Channel));
  };
  size_t Best = Least;
  double BestNs = Price(S.Candidates[Least], S.Kept);
  int64_t Simulated = 1;
  for (size_t I = 0; I < S.Candidates.size(); ++I) {
    const double Bound = S.Candidates[I].BoundNs;
    if (I == Least || Bound > BestNs || (Bound == BestNs && I > Best))
      continue;
    const double Ns = Price(S.Candidates[I], S.Channel);
    ++Simulated;
    if (Ns < BestNs || (Ns == BestNs && I < Best)) {
      Best = I;
      BestNs = Ns;
      std::swap(S.Kept, S.Channel);
    }
  }
  const int64_t Tried = static_cast<int64_t>(S.Candidates.size());
  obs::addCounter("codegen.mappings_tried", Tried);
  obs::addCounter("codegen.mappings_pruned", Tried - Simulated);

  if constexpr (CheckSearches) {
    // The exhaustive definition the pruning must reproduce: price every
    // candidate and keep the first strictly fastest. Simulating a channel
    // records nothing, so a checked build records the same telemetry.
    size_t Fastest = 0;
    double FastestNs = 0.0;
    for (size_t I = 0; I < S.Candidates.size(); ++I) {
      const double Ns = Price(S.Candidates[I], S.Channel);
      if (I == 0 || Ns < FastestNs) {
        Fastest = I;
        FastestNs = Ns;
      }
    }
    if (Fastest != Best ||
        std::bit_cast<uint64_t>(FastestNs) != std::bit_cast<uint64_t>(BestNs))
      fatal(formatStr("PIM mapping search kept %s at %.17g ns, but %s at "
                      "%.17g ns is the first fastest of %zu candidates",
                      S.Candidates[Best].Map.describeMapping().c_str(),
                      BestNs,
                      S.Candidates[Fastest].Map.describeMapping().c_str(),
                      FastestNs, S.Candidates.size()));
  }

  const Candidate &Kept = S.Candidates[Best];
  PimKernelPlan Plan = priceMapping(Spec, Kept.Map, S.Kept, Kept.Extras);
  PF_ASSERT(Plan.Ns == BestNs,
            "full-stats price of the kept mapping differs from its price");
  obs::addCounter("codegen.plans");
  if (Traced)
    Plan.Trace = replicate(S.Kept, Plan.usedChannels());
  return Plan;
}

PimKernelPlan PimCommandGenerator::plan(const PimKernelSpec &Spec) const {
  return search(Spec, /*Traced=*/true);
}

PimKernelPlan
PimCommandGenerator::planUntraced(const PimKernelSpec &Spec) const {
  return search(Spec, /*Traced=*/false);
}
