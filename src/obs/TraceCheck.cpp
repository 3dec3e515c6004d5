//===- obs/TraceCheck.cpp - Chrome trace semantic validation --------------===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "obs/TraceCheck.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <utility>
#include <variant>
#include <vector>

#include "support/Format.h"

using namespace pf;
using namespace pf::obs;

namespace {

/// Lane key: (pid, tid) as integers. The checker already rejected
/// pids/tids that are not exact integers before keys are built.
using LaneKey = std::pair<long long, long long>;

/// Flow key: a numeric or a string `id`, keyed by type and value, so a
/// string id matches only the same string and never a number.
using FlowId = std::variant<long long, std::string>;

std::string flowIdText(const FlowId &Id) {
  if (const long long *N = std::get_if<long long>(&Id))
    return formatStr("%lld", *N);
  return "\"" + std::get<std::string>(Id) + "\"";
}

const JsonValue *numberField(const JsonValue &E, const char *Key) {
  const JsonValue *V = E.find(Key);
  return V && V->isNumber() ? V : nullptr;
}

/// Whether \p X is an integer within +-2^53, where a double holds every
/// integer exactly and converts to `long long` without loss.
bool isExactInteger(double X) {
  constexpr double Limit = 9007199254740992.0; // 2^53
  return X >= -Limit && X <= Limit && std::trunc(X) == X;
}

std::string eventName(const JsonValue &E) {
  const JsonValue *N = E.find("name");
  return N && N->isString() ? N->Str : std::string();
}

} // namespace

bool pf::obs::checkChromeTrace(const JsonValue &Doc, std::string &Error,
                               TraceCheckSummary *Summary) {
  auto Fail = [&Error](size_t Index, const std::string &What) {
    Error = formatStr("traceEvents[%d]: %s", static_cast<int>(Index),
                      What.c_str());
    return false;
  };

  const JsonValue *Events = Doc.find("traceEvents");
  if (!Events || !Events->isArray() || Events->Array.empty()) {
    Error = "missing or empty 'traceEvents' array";
    return false;
  }

  TraceCheckSummary S;
  S.Events = Events->Array.size();

  // Pass 1: per-event field checks, lane grouping, flow id collection.
  std::map<LaneKey, std::vector<size_t>> LaneEvents;
  std::set<FlowId> FlowStarts, FlowFinishes;
  size_t FirstFinishNoStart = 0;
  bool SawFinishNoStartCandidate = false;
  for (size_t I = 0; I < Events->Array.size(); ++I) {
    const JsonValue &E = Events->Array[I];
    if (!E.isObject())
      return Fail(I, "not an object");
    const JsonValue *Ph = E.find("ph");
    if (!Ph || !Ph->isString())
      return Fail(I, "missing string 'ph'");
    const JsonValue *Pid = numberField(E, "pid");
    if (!Pid)
      return Fail(I, "missing numeric 'pid'");
    if (!isExactInteger(Pid->Number))
      return Fail(I, "'pid' is not an integer within +-2^53");
    const JsonValue *Tid = numberField(E, "tid");
    if (!Tid)
      return Fail(I, "missing numeric 'tid'");
    if (!isExactInteger(Tid->Number))
      return Fail(I, "'tid' is not an integer within +-2^53");
    const JsonValue *Ts = numberField(E, "ts");
    if (Ph->Str != "M") {
      if (!Ts)
        return Fail(I, "missing numeric 'ts'");
      if (Ts->Number < 0)
        return Fail(I, "negative 'ts'");
    } else if (Ts && Ts->Number < 0)
      return Fail(I, "negative 'ts'");
    const JsonValue *Dur = numberField(E, "dur");
    if (E.find("dur") && !Dur)
      return Fail(I, "non-numeric 'dur'");
    if (Dur && Dur->Number < 0)
      return Fail(I, "negative 'dur'");

    const std::string &P = Ph->Str;
    if (P == "X")
      ++S.CompleteSpans;
    else if (P == "i")
      ++S.Instants;
    else if (P == "s" || P == "f" || P == "t") {
      const JsonValue *Id = E.find("id");
      if (!Id || (!Id->isNumber() && !Id->isString()))
        return Fail(I, formatStr("flow event ('%s') missing 'id'",
                                 P.c_str()));
      if (Id->isNumber() && !isExactInteger(Id->Number))
        return Fail(I, formatStr("flow event ('%s') 'id' is not an integer "
                                 "within +-2^53",
                                 P.c_str()));
      const FlowId IdVal =
          Id->isNumber() ? FlowId(static_cast<long long>(Id->Number))
                         : FlowId(Id->Str);
      if (P == "s")
        FlowStarts.insert(IdVal);
      else {
        FlowFinishes.insert(IdVal);
        if (!FlowStarts.count(IdVal) && !SawFinishNoStartCandidate) {
          // Finishes may legally precede their start in file order only
          // if a start appears later; re-checked after the pass.
          SawFinishNoStartCandidate = true;
          FirstFinishNoStart = I;
        }
      }
    }
    if (P == "B" || P == "E")
      LaneEvents[{static_cast<long long>(Pid->Number),
                  static_cast<long long>(Tid->Number)}]
          .push_back(I);
    if (P != "M") {
      // Lanes counted over non-metadata events only, so naming a thread
      // does not create a lane.
      LaneEvents[{static_cast<long long>(Pid->Number),
                  static_cast<long long>(Tid->Number)}];
    }
  }

  // Flow resolution: every finish needs a start somewhere in the file,
  // every start a finish.
  for (const FlowId &Id : FlowFinishes)
    if (!FlowStarts.count(Id)) {
      Error = formatStr("flow finish id %s has no matching start ('s') "
                        "event (near traceEvents[%d])",
                        flowIdText(Id).c_str(),
                        static_cast<int>(FirstFinishNoStart));
      return false;
    }
  for (const FlowId &Id : FlowStarts)
    if (!FlowFinishes.count(Id)) {
      Error = formatStr("flow start id %s has no matching finish ('f') "
                        "event",
                        flowIdText(Id).c_str());
      return false;
    }
  S.FlowChains = FlowStarts.size();
  S.Lanes = LaneEvents.size();

  // Pass 2: B/E nesting per lane, in timestamp order (stable, so the
  // exporters' file order breaks zero-length-span ties: B before E).
  for (auto &[Key, Indices] : LaneEvents) {
    std::stable_sort(Indices.begin(), Indices.end(),
                     [&](size_t A, size_t B) {
                       const double TA =
                           Events->Array[A].numberOr("ts", 0.0);
                       const double TB =
                           Events->Array[B].numberOr("ts", 0.0);
                       return TA < TB;
                     });
    std::vector<std::pair<std::string, size_t>> Stack; // (name, index)
    for (size_t I : Indices) {
      const JsonValue &E = Events->Array[I];
      const std::string &P = E.find("ph")->Str;
      if (P == "B") {
        Stack.emplace_back(eventName(E), I);
      } else if (P == "E") {
        if (Stack.empty())
          return Fail(I, formatStr("'E' with no open 'B' on pid %lld tid "
                                   "%lld",
                                   Key.first, Key.second));
        const std::string Name = eventName(E);
        if (!Name.empty() && !Stack.back().first.empty() &&
            Name != Stack.back().first)
          return Fail(I, formatStr("'E' name '%s' does not close open 'B' "
                                   "'%s' (traceEvents[%d])",
                                   Name.c_str(),
                                   Stack.back().first.c_str(),
                                   static_cast<int>(Stack.back().second)));
        Stack.pop_back();
        ++S.PairedSpans;
      }
    }
    if (!Stack.empty())
      return Fail(Stack.back().second,
                  formatStr("unclosed 'B' '%s' on pid %lld tid %lld",
                            Stack.back().first.c_str(), Key.first,
                            Key.second));
  }

  if (Summary)
    *Summary = S;
  return true;
}
