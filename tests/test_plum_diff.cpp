// plum-diff, the bench regression gate: a report self-diffs clean (exit
// status 0), any deterministic perturbation breaches (exit status 1), wall
// values never gate but a one-sided key always does, heap and comm_by_class
// stay ungated, an invalid report is an error (exit status 2), and the
// directory mode pairs BENCH_*.json files and flags missing ones.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "diff.hpp"
#include "obs/json.hpp"

namespace plum {
namespace {

using diff::DiffResult;
using obs::Json;

/// A plum-bench/3 report with one run carrying every section:
/// scalar/int/series/histogram metrics, phases, comm matrix, gate audit,
/// the critical-path document, and the ungated heap and comm_by_class.
Json report() {
  Json hist = Json::object();
  hist.set("histogram", Json::boolean(true))
      .set("wall", Json::boolean(false))
      .set("count", Json::integer(4))
      .set("max", Json::number(0.5))
      .set("p50", Json::number(0.1))
      .set("p95", Json::number(0.5))
      .set("bounds", Json::array().push(Json::number(0.1)).push(
                         Json::number(1.0)))
      .set("counts", Json::array()
                         .push(Json::integer(3))
                         .push(Json::integer(1))
                         .push(Json::integer(0)));
  Json wall_hist = Json::object();
  wall_hist.set("histogram", Json::boolean(true))
      .set("wall", Json::boolean(true))
      .set("count", Json::integer(2))
      .set("max", Json::number(0.25))
      .set("p50", Json::number(0.01))
      .set("p95", Json::number(0.1))
      .set("bounds", Json::array().push(Json::number(0.1)))
      .set("counts",
           Json::array().push(Json::integer(1)).push(Json::integer(1)));

  Json metrics = Json::object();
  metrics.set("imbalance_new", Json::number(1.05))
      .set("msgs_sent", Json::integer(1234))
      .set("wall_s", Json::number(0.125))
      .set("imbalance", Json::array().push(Json::number(1.5)).push(
                            Json::number(1.05)))
      .set("rank_wait_fraction", std::move(hist))
      .set("rank_step_seconds", std::move(wall_hist));

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

  Json stats = Json::object();
  stats.set("allocs", Json::integer(2))
      .set("frees", Json::integer(2))
      .set("bytes", Json::integer(64))
      .set("peak_live", Json::integer(64));
  Json heap = Json::object();
  heap.set("phases", Json::array().push(Json(stats).set("name",
                                                        Json::str("solve"))))
      .set("unphased", std::move(stats))
      .set("live_bytes", Json::integer(0));
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
      .set("heap", std::move(heap))
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
  EXPECT_TRUE(r.error.empty()) << r.error;
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
  // wall_s doubles; the wall histogram's count changes: both report-only.
  Json cur = with_metric(base, "wall_s", Json::number(0.25));
  Json wall_hist = *cur.find("runs")->at(0).find("metrics")->find(
      "rank_step_seconds");
  wall_hist.set("count", Json::integer(99)).set("max", Json::number(9.0));
  cur = with_metric(std::move(cur), "rank_step_seconds",
                    std::move(wall_hist));
  const DiffResult r = diff::diff_reports(base, cur);
  EXPECT_EQ(r.breaches, 0);
  EXPECT_EQ(diff::exit_status(r), 0);
  EXPECT_GE(r.deltas.size(), 2u);  // the drifts still show in the table
  for (const auto& d : r.deltas) EXPECT_TRUE(d.wall) << d.where;
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
  Json heap = section(base, "heap");
  heap.set("live_bytes", Json::integer(4096));
  Json by_class = section(base, "comm_by_class");
  by_class.set("solver", Json::object()
                             .set("msgs", Json::integer(6))
                             .set("bytes", Json::integer(48)));
  const Json cur = with_section(with_section(base, "heap", std::move(heap)),
                                "comm_by_class", std::move(by_class));
  const DiffResult r = diff::diff_reports(base, cur);
  EXPECT_TRUE(r.error.empty()) << r.error;
  EXPECT_EQ(diff::exit_status(r), 0);
  EXPECT_TRUE(r.deltas.empty());
}

TEST(PlumDiff, InvalidReportIsAnErrorNotABreach) {
  const Json base = report();
  Json bad = Json::object();
  bad.set("schema", Json::str("plum-bench/3"));  // missing bench/runs
  const DiffResult r = diff::diff_reports(base, bad);
  EXPECT_FALSE(r.error.empty());
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
  EXPECT_NE(dup.error.find("runs[1]"), std::string::npos) << dup.error;
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
  EXPECT_TRUE(r.error.empty()) << r.error;
  EXPECT_EQ(diff::exit_status(r), 0);

  // A baseline with no current counterpart breaches; so does the reverse.
  write(bdir / "BENCH_bench_fig4.json", doc);
  r = diff::diff_dirs(bdir.string(), cdir.string());
  EXPECT_EQ(diff::exit_status(r), 1);
  write(cdir / "BENCH_bench_fig4.json", doc);
  write(cdir / "BENCH_bench_fig5.json", doc);
  r = diff::diff_dirs(bdir.string(), cdir.string());
  EXPECT_EQ(diff::exit_status(r), 1);

  // The delta table renders without crashing (smoke, to a scratch file).
  const fs::path table = root / "table.txt";
  std::FILE* out = std::fopen(table.string().c_str(), "w");
  ASSERT_NE(out, nullptr);
  diff::print_delta_table(r, out);
  std::fclose(out);
  EXPECT_GT(fs::file_size(table), 0u);
  fs::remove_all(root);
}

}  // namespace
}  // namespace plum
