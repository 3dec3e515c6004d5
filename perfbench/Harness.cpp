//===- perfbench/Harness.cpp - Benchmark timing and reporting helpers -----===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>

#include <fcntl.h>
#include <sched.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;

namespace pfbench {

double nowSec() {
  static const auto Epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Epoch)
      .count();
}

int SpanLog::open(const char *Name, int Op) {
  Span S;
  S.Name = Name;
  S.Parent = Open.empty() ? -1 : Open.back();
  S.Op = Op;
  S.StartUs = nowSec() * 1e6;
  Spans.push_back(S);
  Open.push_back(static_cast<int>(Spans.size()) - 1);
  return Open.back();
}

void SpanLog::close(int Idx) {
  Spans[static_cast<size_t>(Idx)].EndUs = nowSec() * 1e6;
  // Scopes close innermost first on this single thread; erase from the
  // back so an explicitly closed scope cannot strand the stack.
  auto It = std::find(Open.rbegin(), Open.rend(), Idx);
  if (It != Open.rend())
    Open.erase(std::next(It).base());
}

bool SpanLog::writeChromeTrace(const std::string &Path,
                               const std::string &Process) const {
  std::string Out = "{\"traceEvents\":[\n";
  Out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
         "\"args\":{\"name\":" +
         jsonString(Process) + "}}";
  char Buf[320];
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    const std::string Name = S.Name;
    const std::string Layer = Name.substr(0, Name.find('.'));
    std::snprintf(Buf, sizeof(Buf),
                  ",\n{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d,\"op\":%d}}",
                  jsonString(Name).c_str(), jsonString(Layer).c_str(),
                  S.StartUs, std::max(0.0, S.EndUs - S.StartUs), I, S.Parent,
                  S.Op);
    Out += Buf;
  }
  Out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return writeFile(Path, Out);
}

std::map<std::string, SpanStats> aggregateSpans(const std::vector<Span> &S) {
  // One thread, LIFO scopes: a span's children never overlap each other,
  // so their summed durations are exactly the part of it they cover.
  std::vector<double> ChildUs(S.size(), 0.0);
  for (const Span &Sp : S)
    if (Sp.Parent >= 0)
      ChildUs[static_cast<size_t>(Sp.Parent)] += Sp.EndUs - Sp.StartUs;
  std::map<std::string, SpanStats> Out;
  for (size_t I = 0; I < S.size(); ++I) {
    const double DurUs = S[I].EndUs - S[I].StartUs;
    SpanStats &St = Out[S[I].Name];
    St.TotalMs += DurUs / 1e3;
    St.SelfMs += std::max(0.0, DurUs - ChildUs[I]) / 1e3;
    St.DurMs.push_back(DurUs / 1e3);
  }
  return Out;
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  const size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  const size_t N = V.size();
  const size_t K = std::clamp<size_t>(
      static_cast<size_t>(std::ceil(P / 100.0 * static_cast<double>(N))), 1,
      N);
  return V[K - 1];
}

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0.0;
  double LogSum = 0.0;
  for (double X : V) {
    if (!(X > 0.0))
      return 0.0;
    LogSum += std::log(X);
  }
  return std::exp(LogSum / static_cast<double>(V.size()));
}

Tail tailPercentile(const std::vector<double> &V) {
  static const double Ladder[] = {99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0,
                                  50.0};
  const size_t N = V.size();
  for (double P : Ladder) {
    const size_t Rank =
        static_cast<size_t>(std::ceil(P / 100.0 * static_cast<double>(N)));
    if (N >= Rank + 10)
      return {P, percentile(V, P)};
  }
  return {100.0, percentile(V, 100.0)};
}

namespace {

double referenceTaskMs() {
  static uint64_t Calls = 0;
  uint64_t State = ++Calls;
  auto Next = [&State] {
    uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  };
  const double T0 = nowSec();
  std::vector<uint64_t> V(2000);
  for (uint64_t &X : V)
    X = Next();
  std::sort(V.begin(), V.end());
  std::map<std::string, double> M;
  for (uint64_t X : V)
    M[std::to_string(X % 100000)] += static_cast<double>(X >> 40) * 1e-3;
  double Acc = 0.0;
  for (const auto &[K, D] : M)
    Acc += D * static_cast<double>(K.size());
  const double Ms = (nowSec() - T0) * 1e3;
  // Keep the work observable so it cannot be optimized away.
  static volatile double Sink = 0.0;
  Sink = Sink + Acc;
  return Ms;
}

bool readAll(int Fd, void *Buf, size_t N) {
  char *P = static_cast<char *>(Buf);
  while (N > 0) {
    const ssize_t R = read(Fd, P, N);
    if (R < 0 && errno == EINTR)
      continue;
    if (R <= 0)
      return false;
    P += R;
    N -= static_cast<size_t>(R);
  }
  return true;
}

bool writeAll(int Fd, const void *Buf, size_t N) {
  const char *P = static_cast<const char *>(Buf);
  while (N > 0) {
    const ssize_t W = write(Fd, P, N);
    if (W < 0 && errno == EINTR)
      continue;
    if (W <= 0)
      return false;
    P += W;
    N -= static_cast<size_t>(W);
  }
  return true;
}

[[noreturn]] void probeFailed(const char *What) {
  std::fprintf(stderr, "pfbench: host-speed probe: %s: %s\n", What,
               std::strerror(errno));
  std::exit(1);
}

} // namespace

HostSpeedProbe::HostSpeedProbe() {
  int Req[2], Rep[2];
  // Close-on-exec: spawned children must not hold the helper's pipes open.
  if (pipe2(Req, O_CLOEXEC) != 0 || pipe2(Rep, O_CLOEXEC) != 0)
    probeFailed("pipe");
  std::fflush(nullptr); // the helper must not repeat buffered output
  Pid = fork();
  if (Pid < 0)
    probeFailed("fork");
  if (Pid == 0) {
    // The helper: answer each request for N samples until the pipe closes
    // (the probe's destructor, or the measured process's exit).
    close(Req[1]);
    close(Rep[0]);
    int32_t Want[2] = {0, -1}; // samples, and the CPU to take them on
    std::vector<double> Ms;
    while (readAll(Req[0], Want, sizeof(Want))) {
      if (Want[1] >= 0) {
        cpu_set_t Set;
        CPU_ZERO(&Set);
        CPU_SET(Want[1], &Set);
        sched_setaffinity(0, sizeof(Set), &Set); // best effort
      }
      Ms.clear();
      for (int32_t I = 0; I < Want[0]; ++I)
        Ms.push_back(referenceTaskMs());
      if (!writeAll(Rep[1], Ms.data(), Ms.size() * sizeof(double)))
        _exit(1);
    }
    _exit(0);
  }
  close(Req[0]);
  close(Rep[1]);
  ToHelper = Req[1];
  FromHelper = Rep[0];
}

HostSpeedProbe::~HostSpeedProbe() {
  close(ToHelper);
  close(FromHelper);
  int Status = 0;
  while (waitpid(Pid, &Status, 0) < 0 && errno == EINTR) {
  }
}

void HostSpeedProbe::sample(int N, std::vector<double> &Out) {
  // The helper runs on the CPU this process last ran on: the speed of
  // that CPU (its sibling threads' load, its clock) is what moves the
  // measured work.
  const int32_t Want[2] = {N, sched_getcpu()};
  std::vector<double> Ms(static_cast<size_t>(N));
  if (!writeAll(ToHelper, Want, sizeof(Want)) ||
      !readAll(FromHelper, Ms.data(), Ms.size() * sizeof(double)))
    probeFailed("the helper process stopped");
  Out.insert(Out.end(), Ms.begin(), Ms.end());
}

std::map<std::string, double> parsePrometheus(const std::string &Text) {
  std::map<std::string, double> Out;
  std::istringstream In(Text);
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    const size_t Sp = Line.rfind(' ');
    if (Sp == std::string::npos)
      continue;
    Out[Line.substr(0, Sp)] = std::strtod(Line.c_str() + Sp + 1, nullptr);
  }
  return Out;
}

double peakRssMb() {
  // VmHWM, not getrusage's ru_maxrss: ru_maxrss survives exec, so it would
  // report the launching process's resident set when that was larger.
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0; // kB
  return 0.0;
}

int runChild(const std::vector<std::string> &Argv,
             const std::string &StdoutPath) {
  std::vector<char *> Raw;
  for (const std::string &A : Argv)
    Raw.push_back(const_cast<char *>(A.c_str()));
  Raw.push_back(nullptr);
  posix_spawn_file_actions_t Actions;
  if (posix_spawn_file_actions_init(&Actions) != 0)
    return -1;
  posix_spawn_file_actions_addopen(&Actions, STDOUT_FILENO,
                                   StdoutPath.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  pid_t Pid = 0;
  const int Rc =
      posix_spawn(&Pid, Raw[0], &Actions, nullptr, Raw.data(), environ);
  posix_spawn_file_actions_destroy(&Actions);
  if (Rc != 0)
    return -1;
  int Status = 0;
  while (waitpid(Pid, &Status, 0) < 0)
    if (errno != EINTR)
      return -1;
  return WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
}

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  Out.assign(std::istreambuf_iterator<char>(In),
             std::istreambuf_iterator<char>());
  return !In.bad();
}

bool writeFile(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out << Text;
  Out.close();
  return !Out.fail();
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  return Out + "\"";
}

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

} // namespace pfbench
