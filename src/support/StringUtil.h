//===- support/StringUtil.h - String helpers --------------------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small string utilities (split / join / trim / prefix tests, strict
/// number parsing, the FNV-1a checksum) shared by the graph printer, the
/// on-disk formats, and the bench command-line handling.
///
//===----------------------------------------------------------------------===//

#ifndef PIMFLOW_SUPPORT_STRINGUTIL_H
#define PIMFLOW_SUPPORT_STRINGUTIL_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace pf {

/// Splits \p S on \p Sep; empty fields are kept.
std::vector<std::string> split(const std::string &S, char Sep);

/// Joins \p Parts with \p Sep between elements.
std::string join(const std::vector<std::string> &Parts,
                 const std::string &Sep);

/// Removes leading and trailing ASCII whitespace.
std::string trim(const std::string &S);

/// Returns true if \p S begins with \p Prefix.
bool startsWith(const std::string &S, const std::string &Prefix);

/// Returns true if \p S ends with \p Suffix.
bool endsWith(const std::string &S, const std::string &Suffix);

/// Strict decimal integer parser: the *entire* string must be an optionally
/// signed decimal number that fits in int64_t. Returns std::nullopt for
/// empty strings, junk prefixes/suffixes ("12x", " 3"), and overflow —
/// unlike std::atoi, which silently returns 0 or truncates.
std::optional<int64_t> parseInt(const std::string &S);

/// Unsigned variant of parseInt: the entire string must be an unsigned
/// decimal number that fits in uint64_t (no sign characters accepted).
std::optional<uint64_t> parseUint(const std::string &S);

/// Strict finite-double parser: the entire string must be a number strtod
/// accepts, and the result must be finite. Returns std::nullopt for empty
/// strings, junk suffixes ("1.5x"), out-of-range values, inf and nan —
/// unlike std::atof, which silently returns 0 or a prefix's value.
std::optional<double> parseDouble(const std::string &S);

/// FNV-1a 64-bit digest of \p Data, as 16 lower-case hex digits (the
/// checksum of plan artifacts and profile logs).
std::string fnv1a64Hex(const std::string &Data);

} // namespace pf

#endif // PIMFLOW_SUPPORT_STRINGUTIL_H
