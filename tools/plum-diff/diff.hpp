#pragma once
// plum-diff core: metric-by-metric comparison of two plum-bench/3 run
// documents, built as a static library so tests/test_plum_diff.cpp can
// drive the comparison (and the exit-status mapping) in-process.
//
// Comparison contract:
//   - Runs are matched by (case, P). A run present in the baseline but not
//     the current report (or vice versa) is a breach.
//   - Deterministic integer metrics (msgs_sent, supersteps, comm-matrix
//     cells, gate decisions, ...) must match exactly.
//   - Deterministic doubles (modeled seconds, imbalance, critical-path
//     busy/wait, ...) must agree within a relative tolerance — 1e-9 by
//     default, overridable per metric name via Options::metric_tol (for
//     metrics that are deterministic but environment-sensitive).
//   - Wall-clock values (metric name "wall_s" / "*_seconds", phase
//     "wall_s" fields, histograms rendered with "wall": true) are
//     REPORT-ONLY: their deltas appear in the table but never breach.
//   - Gauge series must have identical lengths; samples are compared
//     element-wise under the same rules as scalars.
//   - Gated sections: metrics, phases, comm_matrix, gate_audit and
//     critical_path. heap, comm_by_class and calibration are validated but
//     not compared.
//
// Exit-status mapping (exit_status): 0 = no breach, 1 = any breach,
// 2 = usage / IO / parse / shape error.

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace plum::diff {

struct Options {
  /// Default relative tolerance for deterministic floating-point metrics.
  double rel_tol = 1e-9;
  /// Per-metric overrides, keyed by the leaf metric name (e.g.
  /// "refine_work_imbalance" -> 0.05 allows 5% drift on that metric only).
  std::map<std::string, double> metric_tol;
};

/// One compared entry whose values differ (equal entries are counted but
/// not recorded, so the table stays readable).
struct Delta {
  std::string where;     ///< e.g. "run[box8,P=4].metrics.msgs_sent"
  std::string baseline;  ///< rendered baseline value
  std::string current;   ///< rendered current value
  double rel = 0;        ///< relative delta (0 when not meaningful)
  double tol = 0;        ///< tolerance applied (ignored for wall entries)
  bool wall = false;     ///< report-only wall-clock entry
  bool breach = false;
};

struct DiffResult {
  std::vector<Delta> deltas;  ///< changed entries only, in document order
  int compared = 0;           ///< leaf values compared
  int breaches = 0;
  std::string error;  ///< non-empty on IO/parse/shape failure (status 2)
};

/// Compares two parsed plum-bench reports. Both documents must pass
/// obs::validate_bench_report; a validation failure is reported via
/// DiffResult::error.
DiffResult diff_reports(const obs::Json& baseline, const obs::Json& current,
                        const Options& opt);

/// Loads and compares two report files.
DiffResult diff_files(const std::string& baseline_path,
                      const std::string& current_path, const Options& opt);

/// Compares every BENCH_*.json in `baseline_dir` against the same filename
/// in `current_dir` (CI mode). A BENCH_*.json present on one side only is
/// a breach; other files (streams, postmortems) are ignored.
DiffResult diff_dirs(const std::string& baseline_dir,
                     const std::string& current_dir, const Options& opt);

/// Renders the delta table (changed entries + summary line) to `out`.
void print_delta_table(const DiffResult& result, std::FILE* out);

/// 0 = clean, 1 = breaches, 2 = error.
int exit_status(const DiffResult& result);

}  // namespace plum::diff
