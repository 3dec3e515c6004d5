//===- plan/PlanArtifact.cpp - Versioned on-disk execution plans ----------===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "plan/PlanArtifact.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string_view>

#include "ir/GraphSerializer.h"
#include "obs/Counters.h"
#include "obs/Trace.h"
#include "support/Format.h"
#include "support/StringUtil.h"

using namespace pf;

namespace {

const char *kMagic = "pimflow-plan";
const char *kVersion = "v1";

std::optional<SegmentMode> segmentModeFromName(std::string_view Name) {
  for (SegmentMode M : {SegmentMode::GpuNode, SegmentMode::FullPim,
                        SegmentMode::MdDp, SegmentMode::Pipeline})
    if (Name == segmentModeName(M))
      return M;
  return std::nullopt;
}

/// Splits \p S into space-separated tokens (no empties), as views into
/// \p S, reusing \p Out's storage.
void tokenize(std::string_view S, std::vector<std::string_view> &Out) {
  Out.clear();
  size_t I = 0;
  while (I < S.size()) {
    while (I < S.size() && S[I] == ' ')
      ++I;
    const size_t Begin = I;
    while (I < S.size() && S[I] != ' ')
      ++I;
    if (I > Begin)
      Out.push_back(S.substr(Begin, I - Begin));
  }
}

/// Parser state shared by the record handlers: the corrupt() helper tags
/// every finding with the physical line number (header = line 1).
struct LineParser {
  DiagnosticEngine &DE;
  size_t LineNo = 1;

  void corrupt(const std::string &Message) {
    DE.error(DiagCode::PlanCorrupt, formatStr("line %zu", LineNo), Message);
  }
};

} // namespace

std::string pf::canonicalGraphHash(const Graph &G) {
  return fnv1a64Hex(serializeGraph(G));
}

std::string pf::systemConfigPlanSig(const SystemConfig &C) {
  // Every field that feeds a profiled timing or the generated commands.
  // Compiled-in Table-1 constants that no option can change are covered by
  // the binary, not the signature.
  std::string S = formatStr(
      "tc%d/gmc%d/gbw%.9g/gclk%.9g/gf16%.9g/gsm%d/glan%d/gco%.9g",
      C.TotalChannels, C.Gpu.MemChannels, C.Gpu.ChannelBandwidthGBs,
      C.Gpu.ClockGhz, C.Gpu.Fp16Multiplier, C.Gpu.NumSms, C.Gpu.LanesPerSm,
      C.Gpu.CoherenceSlowdown);
  S += formatStr(
      "/pc%d/pb%d/pm%d/pgb%d/prl%d/pclk%.9g/pfs%.9g/ngb%d/lh%d",
      C.Pim.Channels, C.Pim.BanksPerChannel, C.Pim.MultipliersPerBank,
      C.Pim.GlobalBufferBytes, C.Pim.ResultLatchesPerBank, C.Pim.ClockGhz,
      C.Pim.FetchSupplyGBs, C.Pim.NumGlobalBuffers,
      C.Pim.GwriteLatencyHiding ? 1 : 0);
  S += formatStr(
      "/sg%d/gr%d/mo%d/xb%.9g/sy%.9g/mc%d/cf%.9g",
      C.Codegen.StridedGwrite ? 1 : 0,
      static_cast<int>(C.Codegen.MaxGranularity), C.MemoryOptimizer ? 1 : 0,
      C.CrossChannelGBs, C.SyncOverheadNs, C.ModelContention ? 1 : 0,
      C.ContentionFactor);
  return S;
}

std::string pf::searchOptionsPlanSig(const SearchOptions &S) {
  return formatStr("sp%d/pl%d/fo%d/st%d/rs%.9g/rf%d/rr%.9g",
                   S.AllowSplit ? 1 : 0, S.AllowPipeline ? 1 : 0,
                   S.AllowFullOffload ? 1 : 0, S.PipelineStages, S.RatioStep,
                   S.RefineRatios ? 1 : 0, S.RefinedStep);
}

PlanKey pf::makePlanKey(const Graph &Model, const SystemConfig &Config,
                        const SearchOptions &Search, int FaultFloor) {
  PlanKey K;
  K.GraphHash = canonicalGraphHash(Model);
  K.ConfigSig = systemConfigPlanSig(Config);
  K.SearchSig = searchOptionsPlanSig(Search);
  K.FaultFloor = FaultFloor;
  return K;
}

std::string PlanKey::digest() const {
  std::string Joined = GraphHash + "|" + ConfigSig + "|" + SearchSig + "|";
  appendInt(Joined, FaultFloor);
  return fnv1a64Hex(Joined);
}

std::string pf::serializePlanArtifact(const PlanArtifact &A) {
  std::string Body;
  // Every number is appended after its field label: times and ratios at
  // %.17g (appendDouble's default), which round-trips every finite double
  // through parseDouble bit for bit, so serialize → parse → re-serialize
  // is byte-identical; ids and counts in decimal.
  auto Ns = [&Body](const char *Label, double X) {
    Body += Label;
    appendDouble(Body, X);
  };
  auto Int = [&Body](const char *Label, int64_t V) {
    Body += Label;
    appendInt(Body, V);
  };
  Body += "graph ";
  Body += A.Key.GraphHash;
  Body += "\nconfig ";
  Body += A.Key.ConfigSig;
  Body += "\nsearch ";
  Body += A.Key.SearchSig;
  Int("\nfault-floor ", A.Key.FaultFloor);
  Ns("\npredicted ", A.Plan.PredictedNs);
  Body += '\n';
  for (const SegmentPlan &S : A.Plan.Segments) {
    Body += "segment ";
    Body += segmentModeName(S.Mode);
    Ns(" ratio ", S.RatioGpu);
    Int(" stages ", S.Stages);
    Int(" pattern ", static_cast<int>(S.Pattern));
    Ns(" ns ", S.PredictedNs);
    Body += " nodes";
    for (NodeId Id : S.Nodes)
      Int(" ", Id);
    Body += '\n';
  }
  for (const LayerProfile &L : A.Plan.Layers) {
    Int("layer ", L.Id);
    Ns(" gpu ", L.GpuNs);
    Ns(" pim ", L.PimNs);
    Ns(" mddp ", L.BestMdDpNs);
    Ns(" ratio ", L.BestRatioGpu);
    Body += '\n';
  }
  for (const SearchDecision &D : A.Plan.Decisions) {
    Int("decision ", D.Id);
    Int(" cand ", D.PimCandidate ? 1 : 0);
    Body += " chosen ";
    Body += segmentModeName(D.ChosenMode);
    Ns(" ratio ", D.ChosenRatioGpu);
    Ns(" ns ", D.ChosenNs);
    Ns(" gpuonly ", D.GpuOnlyNs);
    Body += " options";
    for (const CandidateOption &C : D.Candidates) {
      Body += ' ';
      Body += segmentModeName(C.Mode);
      Ns(":", C.RatioGpu);
      Ns(":", C.Ns);
    }
    Body += '\n';
  }
  Body += "end\n";

  std::string Out = kMagic;
  Out += ' ';
  Out += kVersion;
  Out += " bytes ";
  appendUint(Out, Body.size());
  Out += " checksum ";
  Out += fnv1a64Hex(Body);
  Out += '\n';
  Out += Body;
  return Out;
}

std::optional<PlanArtifact> pf::parsePlanArtifact(const std::string &Text,
                                                  DiagnosticEngine &DE) {
  LineParser P{DE};
  const std::string_view All(Text);
  std::vector<std::string_view> T; // One line's tokens, views into Text.

  const size_t HeaderEnd = All.find('\n');
  if (HeaderEnd == std::string_view::npos) {
    P.corrupt("missing header line");
    return std::nullopt;
  }
  tokenize(All.substr(0, HeaderEnd), T);
  if (T.size() != 6 || T[0] != kMagic) {
    P.corrupt("not a pimflow-plan artifact (bad magic)");
    return std::nullopt;
  }
  if (T[1] != kVersion) {
    DE.error(DiagCode::PlanVersion, "line 1",
             formatStr("unsupported plan format version '%s' (this build "
                       "reads %s)",
                       std::string(T[1]).c_str(), kVersion));
    return std::nullopt;
  }
  if (T[2] != "bytes" || T[4] != "checksum") {
    P.corrupt("malformed header (expected 'bytes <n> checksum <hex>')");
    return std::nullopt;
  }
  const std::optional<uint64_t> DeclaredBytes = parseUint(T[3]);
  if (!DeclaredBytes) {
    P.corrupt(formatStr("bad byte count '%s'", std::string(T[3]).c_str()));
    return std::nullopt;
  }
  const std::string_view Body = All.substr(HeaderEnd + 1);
  if (Body.size() != *DeclaredBytes) {
    P.corrupt(formatStr("truncated or padded artifact: header declares %llu "
                        "payload bytes, file carries %zu",
                        static_cast<unsigned long long>(*DeclaredBytes),
                        Body.size()));
    return std::nullopt;
  }
  if (const std::string Sum = fnv1a64Hex(Body); Sum != T[5]) {
    P.corrupt(formatStr("checksum mismatch: header declares %s, payload "
                        "hashes to %s",
                        std::string(T[5]).c_str(), Sum.c_str()));
    return std::nullopt;
  }

  // The payload is authenticated; any malformation below is still reported
  // as plan.corrupt (a forged checksum is as corrupt as a flipped bit).
  PlanArtifact A;
  bool SawGraph = false, SawConfig = false, SawSearch = false,
       SawFloor = false, SawPredicted = false, SawEnd = false;
  size_t Pos = 0;
  while (Pos < Body.size()) {
    const size_t Eol = Body.find('\n', Pos);
    if (Eol == std::string_view::npos) {
      P.LineNo += 1;
      P.corrupt("unterminated final line");
      return std::nullopt;
    }
    const std::string_view Line = Body.substr(Pos, Eol - Pos);
    Pos = Eol + 1;
    P.LineNo += 1;
    if (SawEnd) {
      P.corrupt("content after 'end'");
      return std::nullopt;
    }
    tokenize(Line, T);
    if (T.empty()) {
      P.corrupt("empty line");
      return std::nullopt;
    }
    const std::string_view Kw = T[0];
    auto Need = [&](size_t N) {
      if (T.size() == N)
        return true;
      P.corrupt(formatStr("'%s' record expects %zu fields, got %zu",
                          std::string(Kw).c_str(), N - 1, T.size() - 1));
      return false;
    };
    if (Kw == "graph") {
      if (!Need(2))
        return std::nullopt;
      A.Key.GraphHash = T[1];
      SawGraph = true;
    } else if (Kw == "config") {
      if (!Need(2))
        return std::nullopt;
      A.Key.ConfigSig = T[1];
      SawConfig = true;
    } else if (Kw == "search") {
      if (!Need(2))
        return std::nullopt;
      A.Key.SearchSig = T[1];
      SawSearch = true;
    } else if (Kw == "fault-floor") {
      if (!Need(2))
        return std::nullopt;
      const std::optional<int64_t> V = parseInt(T[1]);
      if (!V || *V < 0 || *V > 1 << 20) {
        P.corrupt(formatStr("bad fault floor '%s'", std::string(T[1]).c_str()));
        return std::nullopt;
      }
      A.Key.FaultFloor = static_cast<int>(*V);
      SawFloor = true;
    } else if (Kw == "predicted") {
      if (!Need(2))
        return std::nullopt;
      const std::optional<double> V = parseDouble(T[1]);
      if (!V) {
        P.corrupt(
            formatStr("bad predicted time '%s'", std::string(T[1]).c_str()));
        return std::nullopt;
      }
      A.Plan.PredictedNs = *V;
      SawPredicted = true;
    } else if (Kw == "segment") {
      // segment <mode> ratio <r> stages <s> pattern <p> ns <t> nodes <id...>
      if (T.size() < 12 || T[2] != "ratio" || T[4] != "stages" ||
          T[6] != "pattern" || T[8] != "ns" || T[10] != "nodes") {
        P.corrupt("malformed segment record");
        return std::nullopt;
      }
      SegmentPlan S;
      const std::optional<SegmentMode> M = segmentModeFromName(T[1]);
      const std::optional<double> Ratio = parseDouble(T[3]);
      const std::optional<int64_t> Stages = parseInt(T[5]);
      const std::optional<int64_t> Pattern = parseInt(T[7]);
      const std::optional<double> Ns = parseDouble(T[9]);
      if (!M || !Ratio || !Stages || !Pattern || !Ns || *Stages < 1 ||
          *Stages > 1 << 16 || *Pattern < 0 || *Pattern > 2) {
        P.corrupt("malformed segment fields");
        return std::nullopt;
      }
      S.Mode = *M;
      S.RatioGpu = *Ratio;
      S.Stages = static_cast<int>(*Stages);
      S.Pattern = static_cast<PipelinePattern>(*Pattern);
      S.PredictedNs = *Ns;
      S.Nodes.reserve(T.size() - 11);
      for (size_t I = 11; I < T.size(); ++I) {
        const std::optional<int64_t> Id = parseInt(T[I]);
        if (!Id || *Id < 0 || *Id > INT32_MAX) {
          P.corrupt(formatStr("bad node id '%s'", std::string(T[I]).c_str()));
          return std::nullopt;
        }
        S.Nodes.push_back(static_cast<NodeId>(*Id));
      }
      A.Plan.Segments.push_back(std::move(S));
    } else if (Kw == "layer") {
      // layer <id> gpu <t> pim <t> mddp <t> ratio <r>
      if (T.size() != 10 || T[2] != "gpu" || T[4] != "pim" ||
          T[6] != "mddp" || T[8] != "ratio") {
        P.corrupt("malformed layer record");
        return std::nullopt;
      }
      LayerProfile L;
      const std::optional<int64_t> Id = parseInt(T[1]);
      const std::optional<double> Gpu = parseDouble(T[3]);
      const std::optional<double> Pim = parseDouble(T[5]);
      const std::optional<double> MdDp = parseDouble(T[7]);
      const std::optional<double> Ratio = parseDouble(T[9]);
      if (!Id || *Id < 0 || *Id > INT32_MAX || !Gpu || !Pim || !MdDp ||
          !Ratio) {
        P.corrupt("malformed layer fields");
        return std::nullopt;
      }
      L.Id = static_cast<NodeId>(*Id);
      L.GpuNs = *Gpu;
      L.PimNs = *Pim;
      L.BestMdDpNs = *MdDp;
      L.BestRatioGpu = *Ratio;
      A.Plan.Layers.push_back(L);
    } else if (Kw == "decision") {
      // decision <id> cand <0|1> chosen <mode> ratio <r> ns <t> gpuonly <t>
      //          options <mode>:<r>:<t> ...
      if (T.size() < 13 || T[2] != "cand" || T[4] != "chosen" ||
          T[6] != "ratio" || T[8] != "ns" || T[10] != "gpuonly" ||
          T[12] != "options") {
        P.corrupt("malformed decision record");
        return std::nullopt;
      }
      SearchDecision D;
      const std::optional<int64_t> Id = parseInt(T[1]);
      const std::optional<int64_t> Cand = parseInt(T[3]);
      const std::optional<SegmentMode> M = segmentModeFromName(T[5]);
      const std::optional<double> Ratio = parseDouble(T[7]);
      const std::optional<double> Ns = parseDouble(T[9]);
      const std::optional<double> GpuOnly = parseDouble(T[11]);
      if (!Id || *Id < 0 || *Id > INT32_MAX || !Cand ||
          (*Cand != 0 && *Cand != 1) || !M || !Ratio || !Ns || !GpuOnly) {
        P.corrupt("malformed decision fields");
        return std::nullopt;
      }
      D.Id = static_cast<NodeId>(*Id);
      D.PimCandidate = *Cand == 1;
      D.ChosenMode = *M;
      D.ChosenRatioGpu = *Ratio;
      D.ChosenNs = *Ns;
      D.GpuOnlyNs = *GpuOnly;
      D.Candidates.reserve(T.size() - 13);
      for (size_t I = 13; I < T.size(); ++I) {
        // <mode>:<r>:<t>, split in place: exactly two colons.
        const std::string_view Opt = T[I];
        const size_t C1 = Opt.find(':');
        const size_t C2 = C1 == std::string_view::npos
                              ? C1
                              : Opt.find(':', C1 + 1);
        std::optional<SegmentMode> CM;
        std::optional<double> CR, CNs;
        if (C2 != std::string_view::npos &&
            Opt.find(':', C2 + 1) == std::string_view::npos) {
          CM = segmentModeFromName(Opt.substr(0, C1));
          CR = parseDouble(Opt.substr(C1 + 1, C2 - C1 - 1));
          CNs = parseDouble(Opt.substr(C2 + 1));
        }
        if (!CM || !CR || !CNs) {
          P.corrupt(formatStr("malformed candidate option '%s'",
                              std::string(Opt).c_str()));
          return std::nullopt;
        }
        CandidateOption C;
        C.Mode = *CM;
        C.RatioGpu = *CR;
        C.Ns = *CNs;
        D.Candidates.push_back(C);
      }
      A.Plan.Decisions.push_back(std::move(D));
    } else if (Kw == "end") {
      if (!Need(1))
        return std::nullopt;
      SawEnd = true;
    } else {
      P.corrupt(formatStr("unknown record '%s'", std::string(Kw).c_str()));
      return std::nullopt;
    }
  }
  if (!SawEnd || !SawGraph || !SawConfig || !SawSearch || !SawFloor ||
      !SawPredicted) {
    P.corrupt("incomplete artifact (missing header records or 'end')");
    return std::nullopt;
  }
  return A;
}

bool pf::savePlanArtifact(const PlanArtifact &A, const std::string &Path) {
  const std::string Text = serializePlanArtifact(A);
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F)
    return false;
  const size_t Written = std::fwrite(Text.data(), 1, Text.size(), F);
  const bool Ok = std::fclose(F) == 0 && Written == Text.size();
  return Ok;
}

std::optional<PlanArtifact> pf::loadPlanArtifact(const std::string &Path,
                                                 DiagnosticEngine &DE) {
  const double StartUs = obs::Tracer::instance().nowUs();
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F) {
    DE.error(DiagCode::PlanCorrupt, Path,
             formatStr("cannot read plan artifact: %s", std::strerror(errno)));
    return std::nullopt;
  }
  std::string Text;
  char Buf[1 << 16];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Text.append(Buf, N);
  std::fclose(F);
  auto A = parsePlanArtifact(Text, DE);
  obs::recordMetric("plan.load_us", obs::Tracer::instance().nowUs() - StartUs);
  return A;
}

bool pf::validatePlanKey(const PlanKey &Artifact, const PlanKey &Live,
                         DiagnosticEngine &DE) {
  const double StartUs = obs::Tracer::instance().nowUs();
  auto Mismatch = [&](const char *What, const std::string &Got,
                      const std::string &Want) {
    DE.error(DiagCode::PlanMismatch, What,
             formatStr("artifact was compiled for %s, this run has %s",
                       Got.c_str(), Want.c_str()));
  };
  if (Artifact.GraphHash != Live.GraphHash)
    Mismatch("graph", Artifact.GraphHash, Live.GraphHash);
  if (Artifact.ConfigSig != Live.ConfigSig)
    Mismatch("system config", Artifact.ConfigSig, Live.ConfigSig);
  if (Artifact.SearchSig != Live.SearchSig)
    Mismatch("search options", Artifact.SearchSig, Live.SearchSig);
  if (Artifact.FaultFloor != Live.FaultFloor)
    Mismatch("fault floor", formatStr("%d", Artifact.FaultFloor),
             formatStr("%d", Live.FaultFloor));
  obs::recordMetric("plan.validate_us",
                    obs::Tracer::instance().nowUs() - StartUs);
  return Artifact == Live;
}
