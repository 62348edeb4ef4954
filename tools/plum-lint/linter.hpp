#pragma once
// plum-lint: rank-safety & determinism static checker for BSP superstep
// code. Enforces the determinism contract of src/runtime/engine.hpp over
// the source tree with six checks (see kChecks for the registry):
//
//   rank-guard-mutation    writes to captured state guarded by a
//                          `rank == 0` style condition inside a superstep
//                          lambda (the PR-1 `if (r == 0) ++phase` bug
//                          class: only worked because the sequential
//                          engine ran ranks in order).
//   unordered-iteration    std::unordered_map / std::unordered_set in a
//                          deterministic path, where iteration order can
//                          feed Outbox::send, ledger counters, or
//                          floating-point accumulation. Both declarations
//                          and range-for loops over such containers are
//                          flagged.
//   shared-accumulator     captured scalars/containers mutated from a
//                          superstep lambda without per-rank `[rank]`
//                          indexing (a data race under ParallelEngine and
//                          order-dependent under the sequential engine).
//   nondeterminism-source  rand()/srand()/time()/clock()/
//                          std::random_device and address-based hashing
//                          (std::hash<T*>) — results vary run to run.
//   wall-clock-in-superstep
//                          util::Timer / PhaseTimer instances and
//                          std::chrono `::now()` calls inside superstep
//                          lambdas: rank programs must not read wall
//                          clocks — the engine measures per-rank step
//                          seconds at the barrier, and plum-path's
//                          deterministic view relies on counters only.
//   raw-fd-in-superstep    bare POSIX fd calls (read/write/send/recv/
//                          open/close/...) inside superstep lambdas: all
//                          process-boundary IO belongs to the Transport
//                          at the barrier (runtime/frame.hpp), never to a
//                          rank program — fd traffic bypasses the ledger
//                          and the delivery-order contract. Member calls
//                          like `out.send(...)` are not flagged.
//
// Suppressions: `// plum-lint: allow(<check>) -- <justification>` on the
// same line or the line directly above the diagnostic. The justification
// is mandatory; a suppression without one is itself a diagnostic
// (bad-suppression), and a suppression that matches nothing is flagged
// stale (unused-suppression). Meta diagnostics cannot be suppressed.

#include <string>
#include <vector>

namespace plumlint {

struct Diagnostic {
  std::string file;
  int line = 0;
  std::string check;
  std::string message;
  bool suppressed = false;
  std::string justification;  ///< set when suppressed

  /// Sort key: file, then line, then check.
  friend bool operator<(const Diagnostic& a, const Diagnostic& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    return a.check < b.check;
  }
};

struct FileInput {
  std::string path;     ///< name used in diagnostics
  std::string content;  ///< full source text
};

struct CheckInfo {
  const char* name;
  const char* summary;
};

/// The five contract checks plus the two meta checks, in report order.
const std::vector<CheckInfo>& checks();

struct LintResult {
  std::vector<Diagnostic> diagnostics;  ///< sorted, suppressed included
  int files_scanned = 0;

  [[nodiscard]] int unsuppressed_count() const;
  [[nodiscard]] int suppressed_count() const;
  [[nodiscard]] int count_of(const std::string& check,
                             bool include_suppressed = false) const;
};

/// Lints a set of files together. Unordered-container names are collected
/// across the whole set first, so a range-for in one file over a member
/// declared unordered in another is still caught.
LintResult lint_files(const std::vector<FileInput>& files);

/// Convenience wrapper for one in-memory source (tests, fixtures).
LintResult lint_source(const std::string& path, const std::string& content);

/// Serializes a result to a JSON document (machine-readable report) whose
/// "counts" object lists `check_list` (plum-scale passes scale_checks()).
std::string to_json(const LintResult& result,
                    const std::vector<CheckInfo>& check_list = checks());

}  // namespace plumlint
