//===- obs/Metrics.cpp - Metric types and Prometheus exposition -*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"

#include <cmath>
#include <cstdio>

#include "obs/Counters.h"
#include "obs/Json.h"
#include "support/TextFile.h"

using namespace pf::obs;

//===----------------------------------------------------------------------===//
// LogLinearHistogram
//===----------------------------------------------------------------------===//

namespace {

constexpr int S = LogLinearHistogram::SubBucketsPerOctave;

/// Bucket key of a positive finite value: octave * S + linear sub-bucket.
/// Key order equals value order (larger octaves strictly dominate).
int32_t bucketKey(double X) {
  const int E = std::ilogb(X); // floor(log2(X))
  const double Frac = X / std::ldexp(1.0, E); // in [1, 2)
  int Sub = static_cast<int>((Frac - 1.0) * S);
  Sub = Sub < 0 ? 0 : (Sub >= S ? S - 1 : Sub);
  return static_cast<int32_t>(E) * S + Sub;
}

/// Midpoint of a bucket: at most half a sub-bucket width from any sample
/// in it, i.e. within relErrorBound() relative error.
double bucketMid(int32_t Key) {
  // C++ integer division truncates toward zero; recover floor semantics
  // for negative octaves (values in (0, 1)).
  int E = Key / S, Sub = Key % S;
  if (Sub < 0) {
    Sub += S;
    E -= 1;
  }
  return std::ldexp(1.0, E) * (1.0 + (Sub + 0.5) / S);
}

} // namespace

void LogLinearHistogram::record(double X, int64_t N) {
  if (!std::isfinite(X) || N <= 0)
    return;
  std::lock_guard<std::mutex> Lock(Mu);
  if (Count == 0) {
    Min = Max = X;
  } else {
    Min = X < Min ? X : Min;
    Max = X > Max ? X : Max;
  }
  Count += N;
  Sum += X * static_cast<double>(N);
  if (X <= 0.0)
    ZeroCount += N;
  else
    Buckets[bucketKey(X)] += N;
}

double LogLinearHistogram::quantileLocked(double Q) const {
  if (Count == 0)
    return 0.0;
  int64_t Rank = static_cast<int64_t>(std::ceil(Q * Count));
  Rank = Rank < 1 ? 1 : (Rank > Count ? Count : Rank);
  int64_t Seen = ZeroCount; // the zero bucket sorts below every octave
  if (Seen >= Rank)
    return 0.0;
  for (const auto &[Key, N] : Buckets) {
    Seen += N;
    if (Seen >= Rank) {
      const double V = bucketMid(Key);
      // Exact extremes beat the bucket midpoint at the edges.
      return V < Min ? Min : (V > Max ? Max : V);
    }
  }
  return Max;
}

double LogLinearHistogram::quantile(double Q) const {
  std::lock_guard<std::mutex> Lock(Mu);
  return quantileLocked(Q);
}

QuantileStats LogLinearHistogram::stats() const {
  std::lock_guard<std::mutex> Lock(Mu);
  QuantileStats R;
  R.Count = Count;
  R.Sum = Sum;
  R.Min = Min;
  R.Max = Max;
  R.P50 = quantileLocked(0.5);
  R.P90 = quantileLocked(0.9);
  R.P99 = quantileLocked(0.99);
  R.P999 = quantileLocked(0.999);
  R.RelErrorBound = relErrorBound();
  return R;
}

void LogLinearHistogram::reset() {
  std::lock_guard<std::mutex> Lock(Mu);
  Buckets.clear();
  ZeroCount = Count = 0;
  Sum = Min = Max = 0.0;
}

//===----------------------------------------------------------------------===//
// Prometheus text exposition
//===----------------------------------------------------------------------===//

namespace {

/// Prometheus metric names are [a-zA-Z_:][a-zA-Z0-9_:]*; the registry's
/// dotted lower-snake names map onto that with '.'/'-' -> '_' plus the
/// `pimflow_` prefix.
std::string promName(const std::string &Name) {
  std::string Out = "pimflow_";
  for (char C : Name) {
    const bool Ok = (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
                    (C >= '0' && C <= '9') || C == '_';
    Out.push_back(Ok ? C : '_');
  }
  return Out;
}

void appendSample(std::string &Out, const std::string &Name, double V) {
  char Buf[64];
  // %.17g round-trips doubles; integral values print without exponent.
  if (V == static_cast<double>(static_cast<int64_t>(V)))
    std::snprintf(Buf, sizeof(Buf), "%lld",
                  static_cast<long long>(V));
  else
    std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  Out += Name;
  Out += ' ';
  Out += Buf;
  Out += '\n';
}

} // namespace

std::string pf::obs::renderPrometheus() {
  std::string Out;
  Out += "# pimflow metrics exposition (Prometheus text format)\n";

  const Registry &Reg = activeRegistry();
  for (const auto &[Name, V] : Reg.counterSnapshot()) {
    const std::string P = promName(Name);
    Out += "# TYPE " + P + " counter\n";
    appendSample(Out, P, static_cast<double>(V));
  }

  // HDR histograms: full summaries with bounded-error quantiles.
  for (const auto &[Name, Q] : Reg.histogramSnapshot()) {
    const std::string P = promName(Name);
    Out += "# HELP " + P + " log-linear histogram, quantile rel-error <= " +
           std::to_string(Q.RelErrorBound) + "\n";
    Out += "# TYPE " + P + " summary\n";
    appendSample(Out, P + "{quantile=\"0.5\"}", Q.P50);
    appendSample(Out, P + "{quantile=\"0.9\"}", Q.P90);
    appendSample(Out, P + "{quantile=\"0.99\"}", Q.P99);
    appendSample(Out, P + "{quantile=\"0.999\"}", Q.P999);
    appendSample(Out, P + "_sum", Q.Sum);
    appendSample(Out, P + "_count", static_cast<double>(Q.Count));
  }

  return Out;
}

bool pf::obs::writeMetricsText(const std::string &Path) {
  return writeTextFile(Path, renderPrometheus());
}
