//===- perfbench/Harness.h - Benchmark timing and reporting helpers -*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The measurement substrate of the end-to-end benchmark (pfbench.cpp):
/// a monotonic clock, an in-memory span log written once as a Chrome trace,
/// order statistics, the host-speed probe, the Prometheus-exposition
/// reader, peak memory, and child-process spawning. Nothing here calls into
/// the library.
///
//===----------------------------------------------------------------------===//

#ifndef PIMFLOW_PERFBENCH_HARNESS_H
#define PIMFLOW_PERFBENCH_HARNESS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pfbench {

/// Seconds on the monotonic clock since the first call.
double nowSec();

/// One recorded span: a public library call timed from outside.
struct Span {
  const char *Name = ""; ///< "<layer>.<call>"; the layer is the prefix
  double StartUs = 0.0;
  double EndUs = 0.0;
  int Parent = -1; ///< index of the enclosing span, -1 for a root
  int Op = -1;     ///< operation id, -1 outside the timed operations
};

/// The span log of one single-threaded run. Spans stay in memory and are
/// written once, when the run ends.
class SpanLog {
public:
  /// Opens a span under the innermost open one; returns its index.
  int open(const char *Name, int Op);
  void close(int Idx);

  const std::vector<Span> &spans() const { return Spans; }

  /// Writes every span as a Chrome-trace complete (`X`) event whose args
  /// carry the span id, its parent, and its operation. False on I/O error.
  bool writeChromeTrace(const std::string &Path,
                        const std::string &Process) const;

private:
  std::vector<Span> Spans;
  std::vector<int> Open;
};

/// RAII span over the rest of the enclosing scope (or until close()). A
/// null log records nothing, so untraced runs pay one branch.
class SpanScope {
public:
  SpanScope(SpanLog *Log, const char *Name, int Op)
      : Log(Log), Idx(Log ? Log->open(Name, Op) : -1) {}
  ~SpanScope() { close(); }
  void close() {
    if (Log && Idx >= 0)
      Log->close(Idx);
    Idx = -1;
  }
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;

private:
  SpanLog *Log;
  int Idx;
};

/// Per-span-name totals. Self time is a span's duration minus the part its
/// child spans cover.
struct SpanStats {
  double TotalMs = 0.0;
  double SelfMs = 0.0;
  std::vector<double> DurMs;
};
std::map<std::string, SpanStats> aggregateSpans(const std::vector<Span> &S);

double median(std::vector<double> V);
/// Nearest-rank percentile, \p P in (0, 100]; 0 for an empty sample.
double percentile(std::vector<double> V, double P);
/// Geometric mean; 0 when empty or when any value is not positive.
double geomean(const std::vector<double> &V);

/// The highest percentile of a fixed ladder (99.9 .. 50) with at least ten
/// samples beyond it, and its value; the maximum (P = 100) for samples too
/// small to have one.
struct Tail {
  double P = 100.0;
  double Value = 0.0;
};
Tail tailPercentile(const std::vector<double> &V);

/// Times a fixed CPU task that does not call the library (a seeded sort,
/// number formatting, and ordered-map inserts: the kind of work a compile
/// does, allocating as a compile does). Sampled between operations, the
/// task tracks how fast the host runs at the moment.
///
/// The task runs in a helper process forked when the probe is constructed,
/// so it never shares the measured program's heap: the allocator state the
/// library leaves behind cannot change the task's speed. The helper runs on
/// the CPU the caller last ran on, and the caller waits while it works, so
/// a sample sees the measured work's CPU but never overlaps the work.
/// Construct the probe before the library runs.
class HostSpeedProbe {
public:
  HostSpeedProbe();
  /// Ends the helper and waits for it.
  ~HostSpeedProbe();
  HostSpeedProbe(const HostSpeedProbe &) = delete;
  HostSpeedProbe &operator=(const HostSpeedProbe &) = delete;

  /// Runs the task \p N times in the helper and appends each duration, in
  /// ms, to \p Out.
  void sample(int N, std::vector<double> &Out);

private:
  int ToHelper = -1;
  int FromHelper = -1;
  int Pid = -1;
};

/// The samples of a Prometheus text exposition, by series name.
std::map<std::string, double> parsePrometheus(const std::string &Text);

/// Peak resident set of this process, in MiB.
double peakRssMb();

/// Runs \p Argv (Argv[0] is the program path) with stdout redirected to
/// \p StdoutPath, waits for it, and returns its exit status (-1 when it
/// could not start or did not exit normally).
int runChild(const std::vector<std::string> &Argv,
             const std::string &StdoutPath);

bool readFile(const std::string &Path, std::string &Out);
bool writeFile(const std::string &Path, const std::string &Text);

/// JSON spellings: a quoted, escaped string; a number at full precision
/// (null for a non-finite value, which the runner rejects).
std::string jsonString(const std::string &S);
std::string jsonNumber(double V);

} // namespace pfbench

#endif // PIMFLOW_PERFBENCH_HARNESS_H
