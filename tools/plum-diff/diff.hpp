#pragma once
// plum-diff core: value-by-value comparison of two plum-bench/3 run
// documents, built as a static library so tests/test_plum_diff.cpp can
// drive the comparison (and the exit-status mapping) in-process.
//
// Comparison contract:
//   - Runs are matched by (case, P), which obs::validate_bench_report makes
//     unique within a document. A run present on one side only is a breach.
//   - Every section of a matched run is compared by one rule, except
//     comm_by_class, which is validated but not compared.
//   - The rule: objects compare by key and arrays by index. A key or
//     element present on one side only, an array of a different length or
//     a value of a different kind is a breach. Integers, strings and
//     booleans must match exactly; doubles must agree within a relative
//     1e-9 of the larger magnitude.
//   - A value is REPORT-ONLY (its delta appears in the table but never
//     breaches) when its key or an enclosing key is a wall name (wall_s,
//     superstep_s, a *_seconds name without "modeled", any name containing
//     "wall"). A shape change breaches even there.
//
// Exit-status mapping (exit_status): 0 = no breach, 1 = any breach,
// 2 = usage / IO / parse / validation error. In directory mode a file that
// cannot be compared records its error and the other files are still
// compared, so one bad file hides no rows of the rest.

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace plum::diff {

/// One compared entry whose values differ (equal entries are counted but
/// not recorded, so the table stays readable).
struct Delta {
  std::string where;     ///< e.g. "run[box8,P=4].metrics.msgs_sent"
  std::string baseline;  ///< rendered baseline value
  std::string current;   ///< rendered current value
  /// Signed change against the baseline, (current - baseline) / |baseline|;
  /// empty when either side is not a number or the baseline is 0.
  std::optional<double> change = std::nullopt;
  bool wall = false;     ///< report-only wall-clock entry
  bool breach = false;
};

struct DiffResult {
  std::vector<Delta> deltas;  ///< changed entries only, in document order
  int compared = 0;           ///< leaf values compared
  int breaches = 0;
  /// IO/parse/validation failures (status 2), one line each.
  std::vector<std::string> errors;
};

/// Compares two parsed plum-bench reports. Both documents must pass
/// obs::validate_bench_report; a validation failure is reported via
/// DiffResult::errors.
DiffResult diff_reports(const obs::Json& baseline, const obs::Json& current);

/// Loads and compares two report files.
DiffResult diff_files(const std::string& baseline_path,
                      const std::string& current_path);

/// Compares every BENCH_*.json in `baseline_dir` against the same filename
/// in `current_dir` (CI mode). A BENCH_*.json present on one side only is
/// a breach; a pair that cannot be compared is an error, and the remaining
/// pairs are compared all the same. Other files (streams, postmortems) are
/// ignored.
DiffResult diff_dirs(const std::string& baseline_dir,
                     const std::string& current_dir);

/// Renders the errors, the delta table (changed entries) and the summary
/// line to `out`.
void print_delta_table(const DiffResult& result, std::FILE* out);

/// 0 = clean, 1 = breaches, 2 = error.
int exit_status(const DiffResult& result);

}  // namespace plum::diff
