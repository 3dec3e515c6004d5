//===- support/StringUtil.h - String helpers --------------------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small string utilities (split / join / trim / prefix tests, the one
/// number writer and the one strict number reader, the FNV-1a checksum)
/// shared by the graph printer, the on-disk formats, the memo keys, and
/// the bench command-line handling.
///
/// Numbers as text (docs/INTERNALS.md, "Numbers as text"): every hot path
/// that writes a number appends it with appendInt / appendUint /
/// appendDouble / appendFixed, which produce exactly the bytes printf's
/// %lld / %llu / %.*g / %.*f would, through std::to_chars and without a
/// format-string parse; every reader goes through parseInt / parseUint /
/// parseDouble, which are std::from_chars over the whole token.
///
//===----------------------------------------------------------------------===//

#ifndef PIMFLOW_SUPPORT_STRINGUTIL_H
#define PIMFLOW_SUPPORT_STRINGUTIL_H

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace pf {

/// Splits \p S on \p Sep; empty fields are kept.
std::vector<std::string> split(const std::string &S, char Sep);

/// Joins \p Parts with \p Sep between elements.
std::string join(const std::vector<std::string> &Parts,
                 const std::string &Sep);

/// Removes leading and trailing ASCII whitespace; the result views \p S.
std::string_view trim(std::string_view S);

/// Returns true if \p S begins with \p Prefix.
bool startsWith(const std::string &S, const std::string &Prefix);

/// Returns true if \p S ends with \p Suffix.
bool endsWith(const std::string &S, const std::string &Suffix);

/// Strict decimal integer parser: the *entire* string must be an optionally
/// signed decimal number that fits in int64_t. Returns std::nullopt for
/// empty strings, junk prefixes/suffixes ("12x", " 3"), and overflow —
/// unlike std::atoi, which silently returns 0 or truncates.
std::optional<int64_t> parseInt(std::string_view S);

/// Unsigned variant of parseInt: the entire string must be an unsigned
/// decimal number that fits in uint64_t (no sign characters accepted).
std::optional<uint64_t> parseUint(std::string_view S);

/// Strict finite-double parser with parseInt's discipline: the entire
/// string must be one decimal number — an optional '+' or '-', digits
/// with an optional '.' (".5" and "5." included), and an optional e/E
/// exponent — and the value must be finite. Subnormals such as "1e-320"
/// (which %.17g prints) are accepted; overflow ("1e400"), underflow to
/// zero, inf, nan, hex ("0x1p3"), leading or trailing whitespace and junk
/// suffixes ("1.5x") are std::nullopt. The result is the correctly
/// rounded double, bit-identical to strtod's on every string strtod and
/// this grammar both accept.
std::optional<double> parseDouble(std::string_view S);

/// Appends \p V in decimal, the bytes printf("%lld") produces.
void appendInt(std::string &Out, int64_t V);

/// Appends \p V in decimal, the bytes printf("%llu") produces.
void appendUint(std::string &Out, uint64_t V);

/// Appends \p X with \p Precision significant digits, the bytes
/// printf("%.*g", Precision, X) produces. The default, %.17g, round-trips
/// every finite double through parseDouble bit for bit: the precision of
/// plan artifacts and profile logs.
void appendDouble(std::string &Out, double X, int Precision = 17);

/// Appends \p X with \p Decimals digits after the point, the bytes
/// printf("%.*f", Decimals, X) produces.
void appendFixed(std::string &Out, double X, int Decimals);

/// FNV-1a 64-bit digest of \p Data, as 16 lower-case hex digits (the
/// checksum of plan artifacts and profile logs).
std::string fnv1a64Hex(std::string_view Data);

} // namespace pf

#endif // PIMFLOW_SUPPORT_STRINGUTIL_H
