//===- support/StringUtil.cpp - String helpers ------------------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/StringUtil.h"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>

#include "support/Format.h"

using namespace pf;

std::vector<std::string> pf::split(const std::string &S, char Sep) {
  std::vector<std::string> Parts;
  size_t Start = 0;
  while (true) {
    size_t Pos = S.find(Sep, Start);
    if (Pos == std::string::npos) {
      Parts.push_back(S.substr(Start));
      return Parts;
    }
    Parts.push_back(S.substr(Start, Pos - Start));
    Start = Pos + 1;
  }
}

std::string pf::join(const std::vector<std::string> &Parts,
                     const std::string &Sep) {
  std::string Out;
  for (size_t I = 0; I < Parts.size(); ++I) {
    if (I != 0)
      Out += Sep;
    Out += Parts[I];
  }
  return Out;
}

std::string pf::trim(const std::string &S) {
  size_t Begin = 0;
  size_t End = S.size();
  while (Begin < End && std::isspace(static_cast<unsigned char>(S[Begin])))
    ++Begin;
  while (End > Begin && std::isspace(static_cast<unsigned char>(S[End - 1])))
    --End;
  return S.substr(Begin, End - Begin);
}

bool pf::startsWith(const std::string &S, const std::string &Prefix) {
  return S.size() >= Prefix.size() &&
         S.compare(0, Prefix.size(), Prefix) == 0;
}

bool pf::endsWith(const std::string &S, const std::string &Suffix) {
  return S.size() >= Suffix.size() &&
         S.compare(S.size() - Suffix.size(), Suffix.size(), Suffix) == 0;
}

std::optional<int64_t> pf::parseInt(const std::string &S) {
  const char *Begin = S.c_str();
  const char *End = Begin + S.size();
  // std::from_chars accepts '-' but not '+'; allow an explicit plus sign.
  if (Begin != End && *Begin == '+') {
    ++Begin;
    if (Begin != End && *Begin == '-')
      return std::nullopt;
  }
  int64_t Out = 0;
  auto [Ptr, Ec] = std::from_chars(Begin, End, Out, 10);
  if (Ec != std::errc() || Ptr != End || Begin == End)
    return std::nullopt;
  return Out;
}

std::optional<uint64_t> pf::parseUint(const std::string &S) {
  const char *Begin = S.c_str();
  const char *End = Begin + S.size();
  uint64_t Out = 0;
  auto [Ptr, Ec] = std::from_chars(Begin, End, Out, 10);
  if (Ec != std::errc() || Ptr != End || Begin == End)
    return std::nullopt;
  return Out;
}

std::optional<double> pf::parseDouble(const std::string &S) {
  if (S.empty())
    return std::nullopt;
  errno = 0;
  char *End = nullptr;
  const double V = std::strtod(S.c_str(), &End);
  if (End != S.c_str() + S.size() || errno == ERANGE || !std::isfinite(V))
    return std::nullopt;
  return V;
}

std::string pf::fnv1a64Hex(const std::string &Data) {
  uint64_t H = 1469598103934665603ull; // FNV offset basis
  for (unsigned char C : Data) {
    H ^= C;
    H *= 1099511628211ull; // FNV prime
  }
  return formatStr("%016llx", static_cast<unsigned long long>(H));
}
