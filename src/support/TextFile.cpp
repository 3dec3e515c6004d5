//===- support/TextFile.cpp - Whole-file reads and writes -------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/TextFile.h"

#include <cstdio>

std::optional<std::string> pf::readTextFile(const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return std::nullopt;
  std::string Text;
  char Buf[1 << 16];
  for (size_t N; (N = std::fread(Buf, 1, sizeof(Buf), F)) > 0;)
    Text.append(Buf, N);
  const bool Ok = !std::ferror(F);
  std::fclose(F);
  if (!Ok)
    return std::nullopt;
  return Text;
}

bool pf::writeTextFile(const std::string &Path, std::string_view Content) {
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F)
    return false;
  const bool Written =
      std::fwrite(Content.data(), 1, Content.size(), F) == Content.size();
  // A buffered write to a full device fails only at the flush in fclose.
  return std::fclose(F) == 0 && Written;
}
