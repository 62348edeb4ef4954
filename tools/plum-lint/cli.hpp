#pragma once
// The command line plum-lint and plum-scale share:
//
//   <tool> [--json report.json] [--quiet] [--list-checks] <path>...
//
// Directories are scanned recursively for C++ sources/headers, and the
// files are analyzed together in path order. Exit codes: 0 clean, 1
// diagnostics left, 2 usage or I/O error. The tools differ only in what
// a Tool names.

#include <vector>

#include "linter.hpp"

namespace plumlint {

struct Tool {
  const char* name;  ///< usage line, summary line and error prefix
  /// The checks --list-checks prints and the JSON report counts.
  const std::vector<CheckInfo>& checks;
  int list_width;  ///< --list-checks name column width
  /// The summary line's words for diagnostics left and silenced
  /// ("unsuppressed"/"suppressed" or "unannotated"/"annotated").
  const char* left_word;
  const char* silenced_word;
  LintResult (*analyze)(const std::vector<FileInput>& files);
};

/// Runs `tool` on argv; returns the process exit code.
int run_cli(const Tool& tool, int argc, char** argv);

}  // namespace plumlint
