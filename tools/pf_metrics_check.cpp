//===- tools/pf_metrics_check.cpp - Exposition format validator -*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Validates a Prometheus-style text exposition written by the driver's
/// `--metrics-out=<path>` flag, for CTest smoke tests and ci.sh tier 6
/// (the metrics sibling of pf_json_check):
///
///   pf_metrics_check [--min-quantile-metrics=N] <metrics.txt>
///
/// Checks, line by line:
///   - every non-comment line is `name[{labels}] value` with a finite
///     decimal value (parseDouble: no hex, no padding) and a legal metric
///     name ([a-zA-Z_:][a-zA-Z0-9_:]*);
///   - every sample is preceded by a `# TYPE` line for its family
///     (suffixes `_sum`/`_count` and label-only variants
///     bind to their base family);
///   - no family is declared by two TYPE lines;
///   - within a family, `quantile="Q"` samples carry a decimal Q in
///     [0, 1] and appear with strictly increasing Q and non-decreasing
///     values (a histogram whose p99 sorts below its p50 is corrupt, not
///     just ugly).
///
/// `--min-quantile-metrics=N` additionally requires at least N summary
/// families carrying quantile samples — the acceptance bar for a run that
/// claims to export latency percentiles. Exit codes: 0 = valid,
/// 1 = invalid, 2 = usage error.
///
//===----------------------------------------------------------------------===//

#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>

#include "obs/Json.h"
#include "support/StringUtil.h"
#include "support/TextFile.h"

using namespace pf;

namespace {

bool validMetricName(const std::string &Name) {
  if (Name.empty())
    return false;
  auto isStart = [](char C) {
    return (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') || C == '_' ||
           C == ':';
  };
  if (!isStart(Name[0]))
    return false;
  for (char C : Name.substr(1))
    if (!isStart(C) && !(C >= '0' && C <= '9'))
      return false;
  return true;
}

/// Strips the conventional summary/window suffixes so samples bind to the
/// family their TYPE line declared (`foo_sum` belongs to family `foo`).
std::string familyOf(const std::string &Name,
                     const std::set<std::string> &Declared) {
  if (Declared.count(Name))
    return Name;
  for (const char *Suffix : {"_sum", "_count"}) {
    const size_t Len = std::strlen(Suffix);
    if (Name.size() > Len &&
        Name.compare(Name.size() - Len, Len, Suffix) == 0) {
      const std::string Base = Name.substr(0, Name.size() - Len);
      if (Declared.count(Base))
        return Base;
    }
  }
  return Name;
}

struct QuantileState {
  double LastQ = -1.0;
  double LastValue = 0.0;
  bool Any = false;
};

} // namespace

int main(int Argc, char **Argv) {
  const char *Path = nullptr;
  int64_t MinQuantileMetrics = 0;
  for (int I = 1; I < Argc; ++I) {
    if (std::strncmp(Argv[I], "--min-quantile-metrics=", 23) == 0) {
      const std::optional<int64_t> Min = parseInt(Argv[I] + 23);
      if (!Min || *Min < 0) {
        std::fprintf(stderr, "error: --min-quantile-metrics expects a "
                             "non-negative integer, got '%s'\n",
                     Argv[I] + 23);
        return 2;
      }
      MinQuantileMetrics = *Min;
    } else if (Argv[I][0] == '-') {
      std::fprintf(stderr, "error: unknown flag '%s'\n", Argv[I]);
      return 2;
    } else
      Path = Argv[I];
  }
  if (!Path) {
    std::fprintf(stderr, "usage: pf_metrics_check "
                         "[--min-quantile-metrics=N] <metrics.txt>\n");
    return 2;
  }

  const auto Text = readTextFile(Path);
  if (!Text) {
    std::fprintf(stderr, "error: cannot read %s\n", Path);
    return 1;
  }

  std::set<std::string> Declared;
  std::map<std::string, QuantileState> Quantiles;
  size_t Samples = 0, LineNo = 0;
  auto fail = [&](const char *What, const std::string &Line) {
    std::fprintf(stderr, "error: %s:%zu: %s: %s\n", Path, LineNo, What,
                 Line.c_str());
    return 1;
  };

  size_t Pos = 0;
  while (Pos <= Text->size()) {
    size_t Eol = Text->find('\n', Pos);
    if (Eol == std::string::npos)
      Eol = Text->size();
    const std::string Line = Text->substr(Pos, Eol - Pos);
    Pos = Eol + 1;
    ++LineNo;
    if (Line.empty())
      continue;
    if (Line[0] == '#') {
      // Only `# TYPE <name> <type>` comments carry structure.
      if (!startsWith(Line, "# TYPE "))
        continue;
      const std::string Rest = Line.substr(7);
      const size_t Space = Rest.find(' ');
      if (Space == std::string::npos)
        return fail("malformed TYPE line", Line);
      const std::string Name = Rest.substr(0, Space);
      const std::string Type = Rest.substr(Space + 1);
      if (!validMetricName(Name))
        return fail("illegal metric name in TYPE line", Line);
      if (Type != "counter" && Type != "gauge" && Type != "summary" &&
          Type != "histogram" && Type != "untyped")
        return fail("unknown metric type", Line);
      if (!Declared.insert(Name).second)
        return fail("family declared twice", Line);
      continue;
    }

    // Sample line: name[{labels}] value
    size_t NameEnd = Line.find_first_of("{ ");
    if (NameEnd == std::string::npos)
      return fail("sample line without a value", Line);
    const std::string Name = Line.substr(0, NameEnd);
    if (!validMetricName(Name))
      return fail("illegal metric name", Line);

    std::string Labels;
    size_t ValueStart = NameEnd;
    if (Line[NameEnd] == '{') {
      const size_t Close = Line.find('}', NameEnd);
      if (Close == std::string::npos)
        return fail("unterminated label set", Line);
      Labels = Line.substr(NameEnd + 1, Close - NameEnd - 1);
      ValueStart = Close + 1;
    }
    if (ValueStart >= Line.size() || Line[ValueStart] != ' ')
      return fail("missing space before value", Line);
    const std::optional<double> Value =
        parseDouble(std::string_view(Line).substr(ValueStart + 1));
    if (!Value)
      return fail("non-numeric or non-finite sample value", Line);

    const std::string Family = familyOf(Name, Declared);
    if (!Declared.count(Family))
      return fail("sample precedes its TYPE line", Line);
    ++Samples;

    // Quantile discipline: strictly increasing quantile, non-decreasing
    // value within one family.
    const size_t QPos = Labels.find("quantile=\"");
    if (QPos != std::string::npos) {
      const size_t QStart = QPos + 10;
      const size_t QEnd = Labels.find('"', QStart);
      if (QEnd == std::string::npos)
        return fail("unterminated quantile label", Line);
      const std::optional<double> Q = parseDouble(
          std::string_view(Labels).substr(QStart, QEnd - QStart));
      if (!Q)
        return fail("non-numeric quantile label", Line);
      if (*Q < 0.0 || *Q > 1.0)
        return fail("quantile outside [0, 1]", Line);
      QuantileState &S = Quantiles[Family];
      if (S.Any && *Q <= S.LastQ)
        return fail("quantiles not strictly increasing", Line);
      if (S.Any && *Value < S.LastValue)
        return fail("quantile values not monotone", Line);
      S.LastQ = *Q;
      S.LastValue = *Value;
      S.Any = true;
    }
  }

  if (Samples == 0) {
    std::fprintf(stderr, "error: %s: no samples\n", Path);
    return 1;
  }
  if (static_cast<int64_t>(Quantiles.size()) < MinQuantileMetrics) {
    std::fprintf(stderr,
                 "error: %s: %zu quantile metric families, expected >= "
                 "%lld\n",
                 Path, Quantiles.size(),
                 static_cast<long long>(MinQuantileMetrics));
    return 1;
  }
  std::printf("%s: valid exposition, %zu families, %zu samples, %zu with "
              "quantiles\n",
              Path, Declared.size(), Samples, Quantiles.size());
  return 0;
}
