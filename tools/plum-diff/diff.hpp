#pragma once
// plum-diff core: value-by-value comparison of two plum-bench/3 run
// documents, built as a static library so tests/test_plum_diff.cpp can
// drive the comparison (and the exit-status mapping) in-process.
//
// Comparison contract:
//   - Runs are matched by (case, P), which obs::validate_bench_report makes
//     unique within a document. A run present on one side only is a breach.
//   - Every section of a matched run is compared by one rule, except heap
//     and comm_by_class, which are validated but not compared.
//   - The rule: objects compare by key and arrays by index. A key or
//     element present on one side only, an array of a different length or
//     a value of a different kind is a breach. Integers, strings and
//     booleans must match exactly; doubles must agree within a relative
//     1e-9.
//   - A value is REPORT-ONLY (its delta appears in the table but never
//     breaches) when its key or an enclosing key is a wall name (wall_s,
//     superstep_s, a *_seconds name without "modeled", any name containing
//     "wall"), or when it sits inside an object both sides flag
//     "wall": true. A shape change breaches even there.
//
// Exit-status mapping (exit_status): 0 = no breach, 1 = any breach,
// 2 = usage / IO / parse / validation error.

#include <cstdio>
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
  double rel = 0;        ///< relative delta (0 when not meaningful)
  bool wall = false;     ///< report-only wall-clock entry
  bool breach = false;
};

struct DiffResult {
  std::vector<Delta> deltas;  ///< changed entries only, in document order
  int compared = 0;           ///< leaf values compared
  int breaches = 0;
  std::string error;  ///< non-empty on IO/parse/validation failure (status 2)
};

/// Compares two parsed plum-bench reports. Both documents must pass
/// obs::validate_bench_report; a validation failure is reported via
/// DiffResult::error.
DiffResult diff_reports(const obs::Json& baseline, const obs::Json& current);

/// Loads and compares two report files.
DiffResult diff_files(const std::string& baseline_path,
                      const std::string& current_path);

/// Compares every BENCH_*.json in `baseline_dir` against the same filename
/// in `current_dir` (CI mode). A BENCH_*.json present on one side only is
/// a breach; other files (streams, postmortems) are ignored.
DiffResult diff_dirs(const std::string& baseline_dir,
                     const std::string& current_dir);

/// Renders the delta table (changed entries + summary line) to `out`.
void print_delta_table(const DiffResult& result, std::FILE* out);

/// 0 = clean, 1 = breaches, 2 = error.
int exit_status(const DiffResult& result);

}  // namespace plum::diff
