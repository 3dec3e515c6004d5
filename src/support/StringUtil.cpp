//===- support/StringUtil.cpp - String helpers ------------------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/StringUtil.h"

#include <cctype>
#include <charconv>
#include <cmath>

#include "support/Assert.h"

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

std::string_view pf::trim(std::string_view S) {
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

std::optional<int64_t> pf::parseInt(std::string_view S) {
  const char *Begin = S.data();
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

std::optional<uint64_t> pf::parseUint(std::string_view S) {
  const char *Begin = S.data();
  const char *End = Begin + S.size();
  uint64_t Out = 0;
  auto [Ptr, Ec] = std::from_chars(Begin, End, Out, 10);
  if (Ec != std::errc() || Ptr != End || Begin == End)
    return std::nullopt;
  return Out;
}

std::optional<double> pf::parseDouble(std::string_view S) {
  const char *Begin = S.data();
  const char *End = Begin + S.size();
  // As in parseInt: one optional '+' that from_chars itself does not take.
  if (Begin != End && *Begin == '+') {
    ++Begin;
    if (Begin != End && *Begin == '-')
      return std::nullopt;
  }
  double Out = 0.0;
  auto [Ptr, Ec] = std::from_chars(Begin, End, Out);
  if (Ec != std::errc() || Ptr != End || !std::isfinite(Out))
    return std::nullopt;
  return Out;
}

void pf::appendInt(std::string &Out, int64_t V) {
  char Buf[24];
  const auto R = std::to_chars(Buf, Buf + sizeof(Buf), V);
  Out.append(Buf, R.ptr);
}

void pf::appendUint(std::string &Out, uint64_t V) {
  char Buf[24];
  const auto R = std::to_chars(Buf, Buf + sizeof(Buf), V);
  Out.append(Buf, R.ptr);
}

void pf::appendDouble(std::string &Out, double X, int Precision) {
  // std::to_chars with an explicit precision is specified as printf with
  // that precision in the "C" locale: %.*g here.
  PF_ASSERT(Precision >= 0 && Precision <= 40, "precision out of range");
  char Buf[64];
  const auto R = std::to_chars(Buf, Buf + sizeof(Buf), X,
                               std::chars_format::general, Precision);
  PF_ASSERT(R.ec == std::errc(), "to_chars buffer too small");
  Out.append(Buf, R.ptr);
}

void pf::appendFixed(std::string &Out, double X, int Decimals) {
  // DBL_MAX has 309 integer digits; %.*f never uses an exponent.
  PF_ASSERT(Decimals >= 0 && Decimals <= 40, "decimals out of range");
  char Buf[360];
  const auto R = std::to_chars(Buf, Buf + sizeof(Buf), X,
                               std::chars_format::fixed, Decimals);
  PF_ASSERT(R.ec == std::errc(), "to_chars buffer too small");
  Out.append(Buf, R.ptr);
}

uint64_t pf::fnv1a64(std::string_view Data) {
  // The published FNV-64 offset basis without its last digit. Every
  // artifact checksum, plan-cache name and profile log on disk uses it.
  uint64_t H = 1469598103934665603ull;
  for (unsigned char C : Data) {
    H ^= C;
    H *= 1099511628211ull; // FNV prime
  }
  return H;
}

std::string pf::hex16(uint64_t X) {
  static const char Hex[] = "0123456789abcdef";
  std::string Out(16, '0');
  for (size_t I = Out.size(); I-- > 0; X >>= 4)
    Out[I] = Hex[X & 0xF];
  return Out;
}

std::string pf::fnv1a64Hex(std::string_view Data) {
  return hex16(fnv1a64(Data));
}
