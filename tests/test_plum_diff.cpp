// plum-diff, the bench regression gate: a report self-diffs clean (exit
// status 0), any deterministic perturbation breaches (exit status 1), wall
// values never gate but a one-sided key always does, comm_by_class stays
// ungated, an invalid report is an error (exit status 2), the delta column
// is signed against the baseline, and the directory mode pairs BENCH_*.json
// files, flags missing ones and reports every file it cannot compare.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "diff.hpp"
#include "obs/json.hpp"

namespace plum {
namespace {

using diff::DiffResult;
using obs::Json;

/// A plum-bench/3 report with one run carrying every section:
/// scalar/int/series metrics, phases, comm matrix, gate audit, the
/// critical-path document, and the ungated comm_by_class.
Json report() {
  Json metrics = Json::object();
  metrics.set("imbalance_new", Json::number(1.05))
      .set("msgs_sent", Json::integer(1234))
      .set("wall_s", Json::number(0.125))
      .set("imbalance", Json::array().push(Json::number(1.5)).push(
                            Json::number(1.05)));

  Json phase = Json::object();
  phase.set("name", Json::str("solve"))
      .set("wall_s", Json::number(0.5))
      .set("modeled_s", Json::number(0.25))
      .set("supersteps", Json::integer(6));

  auto row = [](std::int64_t a, std::int64_t b) {
    return Json::array().push(Json::integer(a)).push(Json::integer(b));
  };
  Json cm = Json::object();
  cm.set("nranks", Json::integer(2))
      .set("msgs", Json::array().push(row(0, 3)).push(row(2, 0)))
      .set("bytes", Json::array().push(row(0, 24)).push(row(16, 0)));

  Json gate = Json::object();
  gate.set("cycle", Json::integer(0))
      .set("evaluated", Json::boolean(true))
      .set("accepted", Json::boolean(true))
      .set("metric", Json::str("TotalV"))
      .set("imbalance_old", Json::number(1.4))
      .set("imbalance_new", Json::number(1.05))
      .set("gain_s", Json::number(0.5))
      .set("cost_s", Json::number(0.1))
      .set("moved_elems", Json::integer(12))
      .set("moved_sets", Json::integer(3))
      .set("predicted_move_bytes", Json::integer(100))
      .set("measured_move_bytes", Json::integer(110))
      .set("drift", Json::number(0.1));

  Json cp = Json::object();
  cp.set("critical_total", Json::number(6.0))
      .set("busy_total", Json::number(12.0))
      .set("wait_total", Json::number(6.0))
      .set("wait_fraction", Json::number(1.0 / 3.0));
  Json rank0 = Json::object();
  rank0.set("rank", Json::integer(0))
      .set("busy", Json::number(2.0))
      .set("wait", Json::number(4.0))
      .set("wait_fraction", Json::number(2.0 / 3.0))
      .set("steps_critical", Json::integer(0));
  cp.set("ranks", Json::array().push(std::move(rank0)))
      .set("phases", Json::array())
      .set("steps", Json::array());

  Json by_class = Json::object();
  by_class.set("solver", Json::object()
                             .set("msgs", Json::integer(5))
                             .set("bytes", Json::integer(40)));

  Json run = Json::object();
  run.set("case", Json::str("box8"))
      .set("P", Json::integer(4))
      .set("metrics", std::move(metrics))
      .set("phases", Json::array().push(std::move(phase)))
      .set("comm_matrix", std::move(cm))
      .set("gate_audit", Json::array().push(std::move(gate)))
      .set("critical_path", std::move(cp))
      .set("comm_by_class", std::move(by_class));

  Json doc = Json::object();
  doc.set("schema", Json::str("plum-bench/3"))
      .set("bench", Json::str("bench_distributed"))
      .set("runs", Json::array().push(std::move(run)));
  return doc;
}

/// The run's section `name`, for mutation.
Json section(const Json& doc, const std::string& name) {
  return *doc.find("runs")->at(0).find(name);
}

/// Replaces the run's section `name`, then reassembles the doc.
Json with_section(Json doc, const std::string& name, Json value) {
  Json run = doc.find("runs")->at(0);
  run.set(name, std::move(value));
  doc.set("runs", Json::array().push(std::move(run)));
  return doc;
}

Json with_metric(Json doc, const std::string& name, Json value) {
  Json metrics = section(doc, "metrics");
  metrics.set(name, std::move(value));
  return with_section(std::move(doc), "metrics", std::move(metrics));
}

Json without_metric(Json doc, const std::string& name) {
  const Json old = section(doc, "metrics");
  Json metrics = Json::object();
  for (const auto& [key, v] : old.items()) {
    if (key != name) metrics.set(key, v);
  }
  return with_section(std::move(doc), "metrics", std::move(metrics));
}

TEST(PlumDiff, SelfDiffIsCleanAndExitsZero) {
  const Json doc = report();
  const DiffResult r = diff::diff_reports(doc, doc);
  EXPECT_TRUE(r.errors.empty());
  EXPECT_EQ(r.breaches, 0);
  EXPECT_TRUE(r.deltas.empty());
  EXPECT_GT(r.compared, 10);
  EXPECT_EQ(diff::exit_status(r), 0);
}

TEST(PlumDiff, PerturbedIntegerMetricBreaches) {
  const Json base = report();
  const Json cur = with_metric(base, "msgs_sent", Json::integer(1235));
  const DiffResult r = diff::diff_reports(base, cur);
  EXPECT_EQ(r.breaches, 1) << diff::exit_status(r);
  EXPECT_EQ(diff::exit_status(r), 1);
  ASSERT_EQ(r.deltas.size(), 1u);
  EXPECT_TRUE(r.deltas[0].breach);
  EXPECT_NE(r.deltas[0].where.find("msgs_sent"), std::string::npos);
}

TEST(PlumDiff, DeterministicDoubleUsesRelativeTolerance) {
  const Json base = report();
  // Drift far beyond 1e-9: breach.
  const DiffResult far = diff::diff_reports(
      base, with_metric(base, "imbalance_new", Json::number(1.06)));
  EXPECT_EQ(diff::exit_status(far), 1);
  // A relative drift of 1e-12: clean, still listed as ok.
  const DiffResult near = diff::diff_reports(
      base,
      with_metric(base, "imbalance_new", Json::number(1.05 * (1 + 1e-12))));
  EXPECT_EQ(diff::exit_status(near), 0);
  ASSERT_EQ(near.deltas.size(), 1u);
  EXPECT_FALSE(near.deltas[0].breach);
  EXPECT_FALSE(near.deltas[0].wall);
}

TEST(PlumDiff, WallClockMetricsNeverGate) {
  const Json base = report();
  // wall_s doubles: report-only.
  const Json cur = with_metric(base, "wall_s", Json::number(0.25));
  const DiffResult r = diff::diff_reports(base, cur);
  EXPECT_EQ(r.breaches, 0);
  EXPECT_EQ(diff::exit_status(r), 0);
  ASSERT_EQ(r.deltas.size(), 1u);  // the drift still shows in the table
  EXPECT_TRUE(r.deltas[0].wall);
}

/// The delta table as print_delta_table writes it.
std::string rendered_table(const DiffResult& r) {
  std::FILE* f = std::tmpfile();
  if (f == nullptr) return "";
  diff::print_delta_table(r, f);
  std::rewind(f);
  std::string text;
  for (int c; (c = std::fgetc(f)) != EOF;) text += static_cast<char>(c);
  std::fclose(f);
  return text;
}

/// The table line naming `where`, or "" when there is none.
std::string table_row(const std::string& table, const std::string& where) {
  std::size_t start = 0;
  while (start < table.size()) {
    std::size_t end = table.find('\n', start);
    if (end == std::string::npos) end = table.size();
    const std::string line = table.substr(start, end - start);
    if (line.find(" " + where + " ") != std::string::npos) return line;
    start = end + 1;
  }
  return "";
}

TEST(PlumDiff, DeltaColumnIsSigned) {
  // The delta is the signed change against the baseline: a drop reads
  // negative, a rise positive, and a one-sided row has no percentage.
  const Json base = with_metric(report(), "wall_s", Json::number(0.015578135));
  Json cur = with_metric(base, "wall_s", Json::number(0.013088048));
  cur = with_metric(std::move(cur), "msgs_sent", Json::integer(1235));
  cur = without_metric(std::move(cur), "imbalance_new");
  const std::string table = rendered_table(diff::diff_reports(base, cur));

  const std::string fell = table_row(table, "run[box8,P=4].metrics.wall_s");
  EXPECT_NE(fell.find("-15.98"), std::string::npos) << table;
  const std::string grew =
      table_row(table, "run[box8,P=4].metrics.msgs_sent");
  EXPECT_NE(grew.find("+0.081%"), std::string::npos) << table;
  const std::string missing =
      table_row(table, "run[box8,P=4].metrics.imbalance_new");
  ASSERT_NE(missing.find("MISSING"), std::string::npos) << table;
  EXPECT_EQ(missing.find('%'), std::string::npos) << missing;
}

TEST(PlumDiff, PhaseSuperstepSecondsAreReportOnly) {
  // superstep_s is wall clock: its drift shows in the table but never
  // breaches.
  const auto with_superstep_s = [](Json doc, double s) {
    Json run = doc.find("runs")->at(0);
    Json phase = run.find("phases")->at(0);
    phase.set("superstep_s", Json::number(s));
    run.set("phases", Json::array().push(std::move(phase)));
    doc.set("runs", Json::array().push(std::move(run)));
    return doc;
  };
  const DiffResult r =
      diff::diff_reports(with_superstep_s(report(), 0.25),
                         with_superstep_s(report(), 0.4));
  EXPECT_EQ(r.breaches, 0);
  ASSERT_EQ(r.deltas.size(), 1u);
  EXPECT_EQ(r.deltas[0].where, "run[box8,P=4].phases[0].superstep_s");
  EXPECT_TRUE(r.deltas[0].wall);
}

TEST(PlumDiff, MissingRunMetricAndSeriesLengthAreBreaches) {
  const Json base = report();
  {
    // Metric vanished.
    const Json cur = without_metric(base, "msgs_sent");
    EXPECT_EQ(diff::exit_status(diff::diff_reports(base, cur)), 1);
    // Symmetric: a new metric without a baseline also breaches.
    EXPECT_EQ(diff::exit_status(diff::diff_reports(cur, base)), 1);
  }
  {
    // Gauge series length changed (a cycle went missing).
    Json cur = with_metric(
        base, "imbalance", Json::array().push(Json::number(1.5)));
    const DiffResult r = diff::diff_reports(base, cur);
    EXPECT_EQ(diff::exit_status(r), 1);
    ASSERT_FALSE(r.deltas.empty());
    EXPECT_NE(r.deltas[0].where.find("imbalance.len"), std::string::npos);
  }
  {
    // Whole run vanished.
    Json cur = base;
    Json run = cur.find("runs")->at(0);
    run.set("P", Json::integer(8));  // different key -> old run missing
    cur.set("runs", Json::array().push(std::move(run)));
    EXPECT_EQ(diff::exit_status(diff::diff_reports(base, cur)), 1);
  }
}

TEST(PlumDiff, CriticalPathAndCommMatrixGate) {
  const Json base = report();
  {
    Json cp = section(base, "critical_path");
    cp.set("wait_total", Json::number(7.0));
    const Json cur = with_section(base, "critical_path", std::move(cp));
    EXPECT_EQ(diff::exit_status(diff::diff_reports(base, cur)), 1);
  }
  {
    Json cm = section(base, "comm_matrix");
    auto row = [](std::int64_t a, std::int64_t b) {
      return Json::array().push(Json::integer(a)).push(Json::integer(b));
    };
    cm.set("bytes", Json::array().push(row(0, 32)).push(row(16, 0)));
    const Json cur = with_section(base, "comm_matrix", std::move(cm));
    const DiffResult r = diff::diff_reports(base, cur);
    EXPECT_EQ(diff::exit_status(r), 1);
    // The changed cell, not a totals line.
    ASSERT_EQ(r.deltas.size(), 1u);
    EXPECT_EQ(r.deltas[0].where, "run[box8,P=4].comm_matrix.bytes[0][1]");
  }
}

TEST(PlumDiff, GateAuditMovedVolumeIsGated) {
  // moved_elems and moved_sets are the C and N the gate prices.
  const Json base = report();
  for (const std::string field : {"moved_elems", "moved_sets"}) {
    Json gate = section(base, "gate_audit").at(0);
    gate.set(field, Json::integer(gate.find(field)->as_int() + 1));
    const DiffResult r = diff::diff_reports(
        base,
        with_section(base, "gate_audit", Json::array().push(std::move(gate))));
    EXPECT_EQ(diff::exit_status(r), 1) << field;
    ASSERT_EQ(r.deltas.size(), 1u) << field;
    EXPECT_EQ(r.deltas[0].where, "run[box8,P=4].gate_audit[0]." + field);
  }
}

TEST(PlumDiff, OneSidedFieldBreaches) {
  const Json base = report();
  {
    // A field only the current critical_path.ranks[0] carries.
    Json cp = section(base, "critical_path");
    Json rank0 = cp.find("ranks")->at(0);
    rank0.set("steps_waiting", Json::integer(0));
    cp.set("ranks", Json::array().push(std::move(rank0)));
    const DiffResult r = diff::diff_reports(
        base, with_section(base, "critical_path", std::move(cp)));
    EXPECT_EQ(diff::exit_status(r), 1);
    ASSERT_EQ(r.deltas.size(), 1u);
    EXPECT_EQ(r.deltas[0].where,
              "run[box8,P=4].critical_path.ranks[0].steps_waiting");
  }
  {
    // A wall metric's value is report-only; its presence is not.
    const Json cur = without_metric(base, "wall_s");
    EXPECT_EQ(diff::exit_status(diff::diff_reports(base, cur)), 1);
    EXPECT_EQ(diff::exit_status(diff::diff_reports(cur, base)), 1);
  }
}

TEST(PlumDiff, UngatedSectionsStayUngated) {
  const Json base = report();
  Json by_class = section(base, "comm_by_class");
  by_class.set("solver", Json::object()
                             .set("msgs", Json::integer(6))
                             .set("bytes", Json::integer(48)));
  const Json cur = with_section(base, "comm_by_class", std::move(by_class));
  const DiffResult r = diff::diff_reports(base, cur);
  EXPECT_TRUE(r.errors.empty());
  EXPECT_EQ(diff::exit_status(r), 0);
  EXPECT_TRUE(r.deltas.empty());

  // Any other section is gated, whatever its name: a baseline's "heap"
  // section that the current run no longer writes breaches.
  const Json old = with_section(base, "heap", Json::object());
  EXPECT_EQ(diff::exit_status(diff::diff_reports(old, base)), 1);
}

TEST(PlumDiff, InvalidReportIsAnErrorNotABreach) {
  const Json base = report();
  Json bad = Json::object();
  bad.set("schema", Json::str("plum-bench/3"));  // missing bench/runs
  const DiffResult r = diff::diff_reports(base, bad);
  EXPECT_EQ(r.errors.size(), 1u);
  EXPECT_EQ(diff::exit_status(r), 2);

  // A repeated (case, P): runs pair by that key, so a change to the second
  // copy would never be read.
  const Json run = base.find("runs")->at(0);
  Json doubled = base;
  doubled.set("runs", Json::array().push(run).push(run));
  Json changed = doubled;
  changed.set("runs",
              Json::array().push(run).push(
                  with_metric(base, "msgs_sent", Json::integer(2234))
                      .find("runs")
                      ->at(0)));
  const DiffResult dup = diff::diff_reports(doubled, changed);
  ASSERT_EQ(dup.errors.size(), 1u);
  EXPECT_NE(dup.errors[0].find("runs[1]"), std::string::npos)
      << dup.errors[0];
  EXPECT_EQ(diff::exit_status(dup), 2);
}

TEST(PlumDiff, DirectoryModePairsByFilenameAndFlagsMissing) {
  namespace fs = std::filesystem;
  const fs::path root =
      fs::path(testing::TempDir()) / "plum_diff_dirs_test";
  const fs::path bdir = root / "base";
  const fs::path cdir = root / "cur";
  fs::remove_all(root);
  fs::create_directories(bdir);
  fs::create_directories(cdir);
  const auto write = [](const fs::path& p, const Json& doc) {
    std::ofstream out(p);
    out << doc.dump(2) << '\n';
    ASSERT_TRUE(out.good()) << p;
  };

  const Json doc = report();
  write(bdir / "BENCH_bench_distributed.json", doc);
  write(cdir / "BENCH_bench_distributed.json", doc);
  // Non-BENCH files are ignored by the pairing.
  write(cdir / "POSTMORTEM_bench_distributed.json", doc);

  DiffResult r =
      diff::diff_dirs(bdir.string(), cdir.string());
  EXPECT_TRUE(r.errors.empty());
  EXPECT_EQ(diff::exit_status(r), 0);

  // A baseline with no current counterpart breaches; so does the reverse.
  write(bdir / "BENCH_bench_fig4.json", doc);
  r = diff::diff_dirs(bdir.string(), cdir.string());
  EXPECT_EQ(diff::exit_status(r), 1);
  write(cdir / "BENCH_bench_fig4.json", doc);
  write(cdir / "BENCH_bench_fig5.json", doc);
  r = diff::diff_dirs(bdir.string(), cdir.string());
  EXPECT_EQ(diff::exit_status(r), 1);

  // A file that cannot be compared does not hide the others: an invalid
  // current document and a gated change in a later file are both reported,
  // and the run is still an error.
  fs::remove(cdir / "BENCH_bench_fig5.json");
  write(cdir / "BENCH_bench_distributed.json", Json::object());
  write(cdir / "BENCH_bench_fig4.json",
        with_metric(doc, "msgs_sent", Json::integer(1235)));
  r = diff::diff_dirs(bdir.string(), cdir.string());
  ASSERT_EQ(r.errors.size(), 1u);
  EXPECT_NE(r.errors[0].find("BENCH_bench_distributed.json"),
            std::string::npos)
      << r.errors[0];
  const std::string row =
      "BENCH_bench_fig4.json:run[box8,P=4].metrics.msgs_sent";
  ASSERT_EQ(r.deltas.size(), 1u);
  EXPECT_EQ(r.deltas[0].where, row);
  EXPECT_TRUE(r.deltas[0].breach);
  EXPECT_EQ(diff::exit_status(r), 2);

  // The table prints the error line and the other file's row.
  const fs::path table = root / "table.txt";
  std::FILE* out = std::fopen(table.string().c_str(), "w");
  ASSERT_NE(out, nullptr);
  diff::print_delta_table(r, out);
  std::fclose(out);
  std::ifstream in(table);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("plum-diff: error: "), std::string::npos) << text;
  EXPECT_NE(text.find(row), std::string::npos) << text;
  fs::remove_all(root);
}

}  // namespace
}  // namespace plum
