//===- pim/TraceIO.cpp - PIM command trace files ----------------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "pim/TraceIO.h"

#include <cstdio>
#include <cstring>

#include "support/Format.h"
#include "support/StringUtil.h"

using namespace pf;

namespace {

const char *kMagic = "pimflow-trace v1";

/// One command as a trace line.
std::string commandLine(const PimCommand &Cmd) {
  switch (Cmd.Kind) {
  case PimCmdKind::Gwrite:
  case PimCmdKind::Gwrite2:
  case PimCmdKind::Gwrite4:
    return formatStr("  %s bursts=%lld\n", pimCmdName(Cmd.Kind),
                     static_cast<long long>(Cmd.Count));
  case PimCmdKind::GAct:
    return formatStr("  G_ACT n=%lld\n",
                     static_cast<long long>(Cmd.Count));
  case PimCmdKind::Comp:
    return formatStr("  COMP cols=%lld\n",
                     static_cast<long long>(Cmd.Count));
  case PimCmdKind::ReadRes:
    return formatStr("  READRES n=%lld\n",
                     static_cast<long long>(Cmd.Count));
  }
  pf_unreachable("unknown PIM command kind");
}

/// The count field key each command kind dumps ("bursts"/"n"/"cols").
const char *countKeyFor(PimCmdKind Kind) {
  switch (Kind) {
  case PimCmdKind::Gwrite:
  case PimCmdKind::Gwrite2:
  case PimCmdKind::Gwrite4:
    return "bursts";
  case PimCmdKind::GAct:
  case PimCmdKind::ReadRes:
    return "n";
  case PimCmdKind::Comp:
    return "cols";
  }
  pf_unreachable("unknown PIM command kind");
}

/// Parses a single command line ("GWRITE_4 bursts=9"). Returns a reason on
/// malformed input, std::nullopt on success.
std::optional<std::string> parseCommand(const std::vector<std::string> &T,
                                        PimCommand &Out) {
  if (T.size() != 2)
    return formatStr("expected 2 fields, got %zu", T.size());
  if (T[0] == "GWRITE")
    Out.Kind = PimCmdKind::Gwrite;
  else if (T[0] == "GWRITE_2")
    Out.Kind = PimCmdKind::Gwrite2;
  else if (T[0] == "GWRITE_4")
    Out.Kind = PimCmdKind::Gwrite4;
  else if (T[0] == "G_ACT")
    Out.Kind = PimCmdKind::GAct;
  else if (T[0] == "COMP")
    Out.Kind = PimCmdKind::Comp;
  else if (T[0] == "READRES")
    Out.Kind = PimCmdKind::ReadRes;
  else
    return formatStr("unknown command '%s'", T[0].c_str());
  const size_t Eq = T[1].find('=');
  if (Eq == std::string::npos)
    return formatStr("field '%s' is not key=value", T[1].c_str());
  const std::string Key = T[1].substr(0, Eq);
  if (Key != countKeyFor(Out.Kind))
    return formatStr("%s expects '%s=', got '%s='", T[0].c_str(),
                     countKeyFor(Out.Kind), Key.c_str());
  const std::optional<int64_t> Count = parseInt(T[1].substr(Eq + 1));
  if (!Count || *Count <= 0)
    return formatStr("'%s' is not a positive integer",
                     T[1].c_str() + Eq + 1);
  Out.Count = *Count;
  return std::nullopt;
}

std::vector<std::string> tokens(const std::string &Line) {
  std::vector<std::string> Out;
  for (const std::string &T : split(Line, ' '))
    if (!T.empty())
      Out.push_back(T);
  return Out;
}

} // namespace

std::vector<PimCommand> pf::expandTrace(const ChannelTrace &Trace,
                                        int64_t MaxCommands) {
  PF_ASSERT(Trace.numCommands() <= MaxCommands,
            "trace expansion exceeds the command cap");
  std::vector<PimCommand> Out;
  Out.reserve(static_cast<size_t>(Trace.numCommands()));
  for (const CommandBlock &B : Trace.Blocks)
    for (int64_t R = 0; R < B.Repeats; ++R)
      Out.insert(Out.end(), B.Pattern.begin(), B.Pattern.end());
  return Out;
}

std::string pf::dumpTrace(const DeviceTrace &Trace) {
  std::string Out = formatStr("%s channels=%zu\n", kMagic,
                              Trace.Channels.size());
  for (size_t C = 0; C < Trace.Channels.size(); ++C) {
    const ChannelTrace &Channel = Trace.Channels[C];
    if (Channel.empty())
      continue;
    Out += formatStr("channel %zu\n", C);
    for (const CommandBlock &B : Channel.Blocks) {
      Out += formatStr("block repeat=%lld\n",
                       static_cast<long long>(B.Repeats));
      for (const PimCommand &Cmd : B.Pattern)
        Out += commandLine(Cmd);
      Out += "end\n";
    }
  }
  return Out;
}

std::variant<DeviceTrace, std::string>
pf::parseTrace(const std::string &Text) {
  const std::vector<std::string> Lines = split(Text, '\n');
  // Header (line 1): "pimflow-trace v1 channels=N", nothing more. Blind
  // offset arithmetic here used to accept junk ("channels=12x" parsed as
  // 12, arbitrary trailing fields ignored).
  if (Lines.empty() || !startsWith(Lines[0], kMagic))
    return std::string("line 1: missing pimflow-trace header");
  const std::vector<std::string> Header = tokens(Lines[0]);
  if (Header.size() != 3 || !startsWith(Header[2], "channels="))
    return std::string("line 1: header must be exactly "
                       "'pimflow-trace v1 channels=N'");
  const std::optional<int64_t> Channels =
      parseInt(Header[2].substr(std::strlen("channels=")));
  if (!Channels)
    return formatStr("line 1: channel count '%s' is not an integer",
                     Header[2].c_str() + std::strlen("channels="));
  if (*Channels <= 0 || *Channels > 4096)
    return formatStr("line 1: implausible channel count %lld",
                     static_cast<long long>(*Channels));

  DeviceTrace Trace(static_cast<int>(*Channels));
  int CurChannel = -1;
  CommandBlock *CurBlock = nullptr;

  for (size_t LineNo = 1; LineNo < Lines.size(); ++LineNo) {
    const std::string Line(trim(Lines[LineNo]));
    if (Line.empty())
      continue;
    const std::vector<std::string> T = tokens(Line);
    auto Err = [&LineNo](const std::string &Why) {
      return formatStr("line %zu: %s", LineNo + 1, Why.c_str());
    };

    if (T[0] == "channel") {
      if (T.size() != 2)
        return Err(formatStr("channel line expects 2 fields, got %zu",
                             T.size()));
      const std::optional<int64_t> Idx = parseInt(T[1]);
      if (!Idx)
        return Err(formatStr("channel index '%s' is not an integer",
                             T[1].c_str()));
      if (*Idx < 0 || *Idx >= *Channels)
        return Err(formatStr("channel index %lld out of range [0, %lld)",
                             static_cast<long long>(*Idx),
                             static_cast<long long>(*Channels)));
      CurChannel = static_cast<int>(*Idx);
      CurBlock = nullptr;
      continue;
    }
    if (T[0] == "block") {
      if (CurChannel < 0)
        return Err("block before any channel");
      if (T.size() != 2 || !startsWith(T[1], "repeat="))
        return Err("malformed block line (expected 'block repeat=N')");
      const std::optional<int64_t> Repeats =
          parseInt(T[1].substr(std::strlen("repeat=")));
      if (!Repeats)
        return Err(formatStr("repeat count '%s' is not an integer",
                             T[1].c_str() + std::strlen("repeat=")));
      if (*Repeats <= 0)
        return Err("non-positive repeat count");
      auto &Blocks =
          Trace.Channels[static_cast<size_t>(CurChannel)].Blocks;
      Blocks.push_back(CommandBlock{{}, *Repeats});
      CurBlock = &Blocks.back();
      continue;
    }
    if (T[0] == "end") {
      if (!CurBlock)
        return Err("end outside a block");
      if (CurBlock->Pattern.empty())
        return Err("empty block");
      CurBlock = nullptr;
      continue;
    }
    // Otherwise a command line inside a block.
    if (!CurBlock)
      return Err("command outside a block");
    PimCommand Cmd;
    if (auto Why = parseCommand(T, Cmd))
      return Err(formatStr("malformed command '%s': %s", Line.c_str(),
                           Why->c_str()));
    CurBlock->Pattern.push_back(Cmd);
  }
  if (CurBlock)
    return std::string("unterminated block at end of trace");
  return Trace;
}

bool pf::saveTrace(const DeviceTrace &Trace, const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  const std::string Text = dumpTrace(Trace);
  const bool Ok =
      std::fwrite(Text.data(), 1, Text.size(), F) == Text.size();
  std::fclose(F);
  return Ok;
}
