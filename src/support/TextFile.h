//===- support/TextFile.h - Whole-file reads and writes ---------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one reader and the one writer of whole files. Graphs, PIM command
/// traces, plan artifacts, profile logs and every export go through them,
/// so a failed read or write, the flush at close included, is reported.
///
//===----------------------------------------------------------------------===//

#ifndef PIMFLOW_SUPPORT_TEXTFILE_H
#define PIMFLOW_SUPPORT_TEXTFILE_H

#include <optional>
#include <string>
#include <string_view>

namespace pf {

/// Reads all of \p Path in 64 KiB chunks. Returns nullopt when the file
/// cannot be opened or read; errno then says why.
std::optional<std::string> readTextFile(const std::string &Path);

/// Replaces \p Path with \p Content. False unless every byte reached the
/// file, the flush at close included.
bool writeTextFile(const std::string &Path, std::string_view Content);

} // namespace pf

#endif // PIMFLOW_SUPPORT_TEXTFILE_H
