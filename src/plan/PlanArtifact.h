//===- plan/PlanArtifact.h - Versioned on-disk execution plans --*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// On-disk serialization of `search::ExecutionPlan` (docs/INTERNALS.md
/// section 12): the compile-once / replay-many half of the plan cache. An
/// artifact stores the search's two records, the segment covering and
/// every covered node's profiled options, together with the key that
/// identifies what it was computed for:
///
/// ```
/// pimflow-plan v2 bytes <N> checksum <fnv64-hex>
/// graph <canonical graph hash>
/// config <SystemConfig fingerprint>
/// search <SearchOptions fingerprint>
/// fault-floor <n>
/// segment <mode> ratio <r> stages <s> pattern <p> ns <t> nodes <id...>
/// decision <id> options <mode>:<r>:<t> ...
/// end
/// ```
///
/// There is one `decision` per segment node, in segment order, and its
/// options list gpu:1 first, then a candidate's pim:0, then MD-DP samples;
/// the parser rejects any other order as plan.corrupt. Everything else the
/// plan carries (each node's chosen mode, ratio and time share, and the
/// predicted total) is not stored: parsing derives it (derivePlan) exactly
/// as the search does.
///
/// The first line covers everything after it: `bytes` is the exact byte
/// count of the remainder (any truncation or concatenation is detected
/// before parsing a single record) and `checksum` is the FNV-1a 64-bit
/// digest of those bytes (any bit flip below line 1 is detected; a flip
/// inside line 1 breaks the magic, the version, or the digest itself).
/// All times and ratios serialize at %.17g (appendDouble, on
/// std::to_chars, byte-identical to printf's %.17g) and parse back with
/// parseDouble (std::from_chars), which round-trips every finite double
/// bit for bit: serialize → parse → re-serialize is byte-identical and a
/// replayed plan carries exactly the costs the search chose.
///
/// Failure discipline: parsing never crashes and never guesses. Malformed
/// input produces `plan.corrupt` / `plan.version` diagnostics (a v1
/// artifact is plan.version: no older format is read); an artifact whose
/// key disagrees with the live (graph, config, search options, fault
/// floor) produces `plan.mismatch` via validatePlanKey, and so does a plan
/// that does not fit the live model, configuration or search options
/// (SearchEngine::canApply). Callers
/// decide whether to exit (the CLI) or fall back to a fresh search (the
/// cache, which treats any invalid cached file as a miss, never as a
/// plan).
///
//===----------------------------------------------------------------------===//

#ifndef PIMFLOW_PLAN_PLANARTIFACT_H
#define PIMFLOW_PLAN_PLANARTIFACT_H

#include <optional>
#include <string>

#include "runtime/SystemConfig.h"
#include "search/SearchEngine.h"
#include "support/Diagnostics.h"
#include "support/StringUtil.h" // fnv1a64Hex, the artifact checksum.

namespace pf {

/// The content address of a plan: what the search result depends on. Two
/// compiles with equal keys are guaranteed (by the search's determinism
/// contract) to produce byte-identical plans, so the cache may serve either.
struct PlanKey {
  /// canonicalGraphHash of the input model graph.
  std::string GraphHash;
  /// systemConfigPlanSig (runtime/SystemConfig.h) of the configuration
  /// profiled against.
  std::string ConfigSig;
  /// searchOptionsPlanSig of the option set the DP chose from.
  std::string SearchSig;
  /// Recovery fault floor (--pim-floor): part of the key by contract so a
  /// floor change re-plans even though the search itself ignores it.
  int FaultFloor = 1;

  /// The content address: FNV-1a 64 over the joined fields, as 16 hex
  /// digits. Cache files are named `<digest>.plan`.
  std::string digest() const;

  bool operator==(const PlanKey &O) const {
    return GraphHash == O.GraphHash && ConfigSig == O.ConfigSig &&
           SearchSig == O.SearchSig && FaultFloor == O.FaultFloor;
  }
  bool operator!=(const PlanKey &O) const { return !(*this == O); }
};

/// Canonical hash of \p G: the FNV-1a 64 digest of its textual
/// serialization (ir/GraphSerializer), which is deterministic and covers
/// name, values, shapes, attributes, topology, and device annotations.
/// It is G.contentDigest() in hex, so the graph is serialized only when it
/// changed since its last hash.
std::string canonicalGraphHash(const Graph &G);

/// Fingerprint of every SearchOptions field (each one shapes the plan).
std::string searchOptionsPlanSig(const SearchOptions &S);

/// Builds the key a (model, config, options, floor) tuple addresses.
PlanKey makePlanKey(const Graph &Model, const SystemConfig &Config,
                    const SearchOptions &Search, int FaultFloor);

/// A deserialized (or about-to-be-serialized) plan artifact.
struct PlanArtifact {
  PlanKey Key;
  ExecutionPlan Plan;
};

/// Renders \p A in the versioned, checksummed artifact format.
std::string serializePlanArtifact(const PlanArtifact &A);

/// Parses an artifact previously produced by serializePlanArtifact.
/// Returns std::nullopt after reporting plan.corrupt / plan.version
/// diagnostics into \p DE. Never crashes on arbitrary input.
std::optional<PlanArtifact> parsePlanArtifact(const std::string &Text,
                                              DiagnosticEngine &DE);

/// Writes serializePlanArtifact(A) to \p Path. Returns false on I/O error.
bool savePlanArtifact(const PlanArtifact &A, const std::string &Path);

/// Reads and parses an artifact file. I/O failures and parse failures
/// become diagnostics in \p DE (a missing file is plan.corrupt: the caller
/// asked to replay something that does not exist). Records the load
/// latency in the `plan.load_us` metrics histogram.
std::optional<PlanArtifact> loadPlanArtifact(const std::string &Path,
                                             DiagnosticEngine &DE);

/// The hard replay gate: compares \p Artifact against the \p Live key
/// derived from the graph/config/options actually being run. Any
/// disagreement produces one plan.mismatch diagnostic per differing field
/// (naming both sides) and returns false — the caller must not execute
/// the plan. Records the validation latency in `plan.validate_us`.
bool validatePlanKey(const PlanKey &Artifact, const PlanKey &Live,
                     DiagnosticEngine &DE);

} // namespace pf

#endif // PIMFLOW_PLAN_PLANARTIFACT_H
