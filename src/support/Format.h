//===- support/Format.h - printf-style std::string formatting --*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small printf-style formatter returning std::string, used by the bench
/// table printers and error messages. Deliberately minimal: the library has
/// no dependency on iostreams in headers.
///
//===----------------------------------------------------------------------===//

#ifndef PIMFLOW_SUPPORT_FORMAT_H
#define PIMFLOW_SUPPORT_FORMAT_H

#include <cstdarg>
#include <cstddef>
#include <cstdio>
#include <string>

namespace pf {

/// Bytes formatStr() formats into on the stack. Text of up to
/// FormatStackBytes - 1 characters is formatted once; longer text is
/// formatted a second time, straight into the returned string.
inline constexpr size_t FormatStackBytes = 256;

/// Formats \p Fmt with printf semantics into a std::string.
#if defined(__GNUC__)
__attribute__((format(printf, 1, 2)))
#endif
inline std::string
formatStr(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  va_list ArgsCopy;
  va_copy(ArgsCopy, Args);
  char Buf[FormatStackBytes];
  const int Needed = std::vsnprintf(Buf, sizeof(Buf), Fmt, Args);
  va_end(Args);
  std::string Out;
  if (Needed > 0 && static_cast<size_t>(Needed) < sizeof(Buf)) {
    Out.assign(Buf, static_cast<size_t>(Needed));
  } else if (Needed > 0) {
    Out.resize(static_cast<size_t>(Needed) + 1);
    std::vsnprintf(Out.data(), Out.size(), Fmt, ArgsCopy);
    Out.resize(static_cast<size_t>(Needed));
  }
  va_end(ArgsCopy);
  return Out;
}

} // namespace pf

#endif // PIMFLOW_SUPPORT_FORMAT_H
