//===- pim/FaultModel.cpp - Deterministic PIM fault schedules ---*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "pim/FaultModel.h"

#include <algorithm>

#include "support/Format.h"
#include "support/Random.h"
#include "support/StringUtil.h"

using namespace pf;

const char *pf::faultKindName(FaultKind Kind) {
  switch (Kind) {
  case FaultKind::DeadChannel:
    return "dead";
  case FaultKind::SlowChannel:
    return "slow";
  case FaultKind::TransientCommand:
    return "transient";
  case FaultKind::StalledGwrite:
    return "stall";
  }
  pf_unreachable("unknown fault kind");
}

int64_t RetryPolicy::retryCostCycles(int Attempts, int64_t CmdCycles) const {
  int64_t Cost = 0;
  int64_t Backoff = BackoffBaseCycles;
  for (int A = 0; A < Attempts; ++A) {
    Cost += CmdCycles + Backoff;
    Backoff *= BackoffMultiplier;
  }
  return Cost;
}

void FaultModel::addSlow(int Channel, double Factor) {
  PF_ASSERT(Factor >= 1.0, "slow factor below 1 would speed the channel up");
  Slow[Channel] = Factor;
}

void FaultModel::addOutage(ChannelOutage O) {
  PF_ASSERT(O.EndNs > O.StartNs, "outage window must be non-empty");
  // Keep the timeline sorted by (StartNs, Channel): the serve loop turns
  // it into events in this order, so insertion order never matters.
  auto It = std::upper_bound(
      Outages.begin(), Outages.end(), O,
      [](const ChannelOutage &A, const ChannelOutage &B) {
        return A.StartNs != B.StartNs ? A.StartNs < B.StartNs
                                      : A.Channel < B.Channel;
      });
  Outages.insert(It, O);
  // Ordinal ids follow the sorted timeline so they are stable in the set
  // of windows, not in insertion order.
  for (size_t I = 0; I < Outages.size(); ++I)
    Outages[I].Id = static_cast<int>(I);
}

bool FaultModel::deadAt(int Channel, int64_t NowNs) const {
  if (channelDead(Channel))
    return true;
  for (const ChannelOutage &O : Outages) {
    if (O.StartNs > NowNs)
      break; // sorted by start: nothing later can cover NowNs
    if (O.Channel == Channel && O.covers(NowNs))
      return true;
  }
  return false;
}

double FaultModel::slowFactor(int Channel) const {
  auto It = Slow.find(Channel);
  return It == Slow.end() ? 1.0 : It->second;
}

std::vector<TransientFault> FaultModel::transientsOn(int Channel) const {
  std::vector<TransientFault> Out;
  for (const TransientFault &T : Transients)
    if (T.Channel == Channel)
      Out.push_back(T);
  return Out;
}

std::vector<int> FaultModel::survivors(int NumChannels) const {
  std::vector<int> Out;
  for (int Ch = 0; Ch < NumChannels; ++Ch)
    if (!channelDead(Ch) && !channelStalled(Ch))
      Out.push_back(Ch);
  return Out;
}

FaultModel FaultModel::compactedFor(const std::vector<int> &Survivors) const {
  FaultModel Out;
  for (size_t I = 0; I < Survivors.size(); ++I) {
    const int Old = Survivors[I];
    const int New = static_cast<int>(I);
    if (const double F = slowFactor(Old); F > 1.0)
      Out.addSlow(New, F);
    for (TransientFault T : transientsOn(Old)) {
      T.Channel = New;
      Out.addTransient(T);
    }
  }
  return Out;
}

std::string FaultModel::describe() const {
  std::string Out;
  auto Append = [&Out](const std::string &S) {
    if (!Out.empty())
      Out += ' ';
    Out += S;
  };
  for (int Ch : Dead)
    Append(formatStr("dead:%d", Ch));
  for (const ChannelOutage &O : Outages)
    // Windows are stored in ns but specified in us; chaosTimeline and the
    // parse grammar both keep them us-aligned, so this prints exactly.
    Append(formatStr("dead@%lld..%lld:%d",
                     static_cast<long long>(O.StartNs / 1000),
                     static_cast<long long>(O.EndNs / 1000), O.Channel));
  for (int Ch : Stalled)
    Append(formatStr("stall:%d", Ch));
  for (const auto &[Ch, F] : Slow)
    Append(formatStr("slow:%d:%.2f", Ch, F));
  for (const TransientFault &T : Transients)
    Append(formatStr("%s:%d:%lld:%d",
                     T.Kind == PimCmdKind::Comp ? "comp" : "readres",
                     T.Channel, static_cast<long long>(T.Ordinal), T.Fails));
  return Out.empty() ? "none" : Out;
}

namespace {

std::vector<std::string> splitOn(const std::string &S, char Sep) {
  std::vector<std::string> Parts;
  size_t Start = 0;
  while (Start <= S.size()) {
    const size_t End = S.find(Sep, Start);
    if (End == std::string::npos) {
      Parts.push_back(S.substr(Start));
      break;
    }
    Parts.push_back(S.substr(Start, End - Start));
    Start = End + 1;
  }
  return Parts;
}

/// Parses an integer field of a fault entry into [Min, Max].
std::optional<int64_t> parseField(const std::string &Entry,
                                  const std::string &Field, int64_t Min,
                                  int64_t Max, DiagnosticEngine &DE) {
  const std::optional<int64_t> V = parseInt(Field);
  if (!V || *V < Min || *V > Max) {
    DE.error(DiagCode::FaultBadSpec, Entry,
             formatStr("field '%s' must be an integer in [%lld, %lld]",
                       Field.c_str(), static_cast<long long>(Min),
                       static_cast<long long>(Max)));
    return std::nullopt;
  }
  return V;
}

} // namespace

std::optional<FaultModel> FaultModel::parse(const std::string &Spec,
                                            DiagnosticEngine &DE) {
  FaultModel M;
  bool Ok = true;
  for (const std::string &Entry : splitOn(Spec, ',')) {
    if (Entry.empty())
      continue;
    const std::vector<std::string> F = splitOn(Entry, ':');
    const std::string &Kind = F[0];
    if (Kind.rfind("dead@", 0) == 0 && F.size() == 2) {
      // dead@<t1>..<t2>:<ch> — a windowed outage in virtual microseconds.
      const std::string Window = Kind.substr(5);
      const size_t Dots = Window.find("..");
      std::optional<int64_t> T1, T2;
      if (Dots != std::string::npos) {
        T1 = parseField(Entry, Window.substr(0, Dots), 0,
                        int64_t(1) << 40, DE);
        T2 = parseField(Entry, Window.substr(Dots + 2), 0,
                        int64_t(1) << 40, DE);
      } else {
        DE.error(DiagCode::FaultBadSpec, Entry,
                 "expected dead@<t1>..<t2>:<ch> (window in microseconds)");
      }
      const auto Ch =
          Dots != std::string::npos && T1 && T2
              ? parseField(Entry, F[1], 0, 4095, DE)
              : std::nullopt;
      if (!Ch || *T2 <= *T1) {
        if (Ch && T1 && T2 && *T2 <= *T1)
          DE.error(DiagCode::FaultBadSpec, Entry,
                   "outage window must satisfy t2 > t1");
        Ok = false;
        continue;
      }
      M.addOutage(ChannelOutage{static_cast<int>(*Ch), *T1 * 1000,
                                *T2 * 1000});
    } else if ((Kind == "dead" || Kind == "stall") && F.size() == 2) {
      const auto Ch = parseField(Entry, F[1], 0, 4095, DE);
      if (!Ch) {
        Ok = false;
        continue;
      }
      if (Kind == "dead")
        M.addDead(static_cast<int>(*Ch));
      else
        M.addStalled(static_cast<int>(*Ch));
    } else if (Kind == "slow" && F.size() == 3) {
      const auto Ch = parseField(Entry, F[1], 0, 4095, DE);
      const auto Mult = parseDouble(F[2]);
      if (!Ch || !Mult || *Mult < 1.0 || *Mult > 1e6) {
        if (Ch && (!Mult || *Mult < 1.0 || *Mult > 1e6))
          DE.error(DiagCode::FaultBadSpec, Entry,
                   "slow factor must be a number in [1, 1e6]");
        Ok = false;
        continue;
      }
      M.addSlow(static_cast<int>(*Ch), *Mult);
    } else if ((Kind == "comp" || Kind == "readres") && F.size() == 4) {
      const auto Ch = parseField(Entry, F[1], 0, 4095, DE);
      const auto Ord = parseField(Entry, F[2], 0, int64_t(1) << 40, DE);
      const auto Fails = parseField(Entry, F[3], 1, 1 << 20, DE);
      if (!Ch || !Ord || !Fails) {
        Ok = false;
        continue;
      }
      M.addTransient(TransientFault{
          static_cast<int>(*Ch),
          Kind == "comp" ? PimCmdKind::Comp : PimCmdKind::ReadRes, *Ord,
          static_cast<int>(*Fails)});
    } else {
      DE.error(DiagCode::FaultBadSpec, Entry,
               "expected dead:<ch>, dead@<t1>..<t2>:<ch>, stall:<ch>, "
               "slow:<ch>:<mult>, comp:<ch>:<ord>:<fails> or "
               "readres:<ch>:<ord>:<fails>");
      Ok = false;
    }
  }
  if (!Ok)
    return std::nullopt;
  return M;
}

FaultModel FaultModel::chaosTimeline(uint64_t Seed, int NumChannels,
                                     int64_t HorizonNs) {
  FaultModel M;
  if (NumChannels <= 0 || HorizonNs <= 0)
    return M;
  // A distinct stream from chaos(): the seed-pinned chaos() outputs must
  // not move when the timeline generator evolves.
  Rng R(Seed * 0x9E3779B97F4A7C15ull + 0xD15EA5Eull);
  const int64_t HorizonUs = std::max<int64_t>(1, HorizonNs / 1000);
  const int NumOutages = 1 + static_cast<int>(R.nextBelow(4));
  for (int I = 0; I < NumOutages; ++I) {
    const int Ch = static_cast<int>(
        R.nextBelow(static_cast<uint64_t>(NumChannels)));
    // Start anywhere in the horizon; last 5-30% of the remaining span so
    // every window both starts and (usually) ends inside the stream.
    const int64_t StartUs = static_cast<int64_t>(
        R.nextBelow(static_cast<uint64_t>(HorizonUs)));
    const int64_t Span = std::max<int64_t>(1, HorizonUs - StartUs);
    const int64_t DurUs = 1 + static_cast<int64_t>(R.nextBelow(
        static_cast<uint64_t>(std::max<int64_t>(1, (Span * 3) / 10))));
    M.addOutage(ChannelOutage{Ch, StartUs * 1000,
                              (StartUs + DurUs) * 1000});
  }
  return M;
}

FaultModel FaultModel::chaos(uint64_t Seed, int NumChannels) {
  FaultModel M;
  if (NumChannels <= 0)
    return M;
  Rng R(Seed * 0x9E3779B97F4A7C15ull + 0xC0FFEEull);
  const int NumFaults = 1 + static_cast<int>(R.nextBelow(3));
  for (int I = 0; I < NumFaults; ++I) {
    const int Ch = static_cast<int>(R.nextBelow(
        static_cast<uint64_t>(NumChannels)));
    switch (R.nextBelow(4)) {
    case 0:
      M.addDead(Ch);
      break;
    case 1:
      M.addSlow(Ch, 1.5 + R.nextDouble() * 6.0);
      break;
    case 2:
      M.addStalled(Ch);
      break;
    default:
      // Fails in [1, 5]: values above the default MaxRetries of 3 exercise
      // the retries-exhausted fallback path.
      M.addTransient(TransientFault{
          Ch, R.nextBelow(2) == 0 ? PimCmdKind::Comp : PimCmdKind::ReadRes,
          static_cast<int64_t>(R.nextBelow(64)),
          1 + static_cast<int>(R.nextBelow(5))});
      break;
    }
  }
  return M;
}
