// plum-diff, the bench regression gate: a report self-diffs clean (exit
// status 0), any deterministic perturbation breaches (exit status 1), wall
// metrics never gate, per-metric thresholds loosen exactly one metric, and
// the directory mode pairs BENCH_*.json files and flags missing ones.

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
using diff::Options;
using obs::Json;

/// A plum-bench/3 report with one run exercising every compared section:
/// scalar/int/series/histogram metrics, phases, comm matrix, gate audit,
/// and the critical-path document.
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

  Json run = Json::object();
  run.set("case", Json::str("box8"))
      .set("P", Json::integer(4))
      .set("metrics", std::move(metrics))
      .set("phases", Json::array().push(std::move(phase)))
      .set("comm_matrix", std::move(cm))
      .set("gate_audit", Json::array().push(std::move(gate)))
      .set("critical_path", std::move(cp));

  Json doc = Json::object();
  doc.set("schema", Json::str("plum-bench/3"))
      .set("bench", Json::str("bench_distributed"))
      .set("runs", Json::array().push(std::move(run)));
  return doc;
}

/// Returns the run's metrics object for mutation, then reassembles the doc.
Json with_metric(Json doc, const std::string& name, Json value) {
  Json run = doc.find("runs")->at(0);
  Json metrics = *run.find("metrics");
  metrics.set(name, std::move(value));
  run.set("metrics", std::move(metrics));
  doc.set("runs", Json::array().push(std::move(run)));
  return doc;
}

TEST(PlumDiff, SelfDiffIsCleanAndExitsZero) {
  const Json doc = report();
  const DiffResult r = diff::diff_reports(doc, doc, Options{});
  EXPECT_TRUE(r.error.empty()) << r.error;
  EXPECT_EQ(r.breaches, 0);
  EXPECT_TRUE(r.deltas.empty());
  EXPECT_GT(r.compared, 10);
  EXPECT_EQ(diff::exit_status(r), 0);
}

TEST(PlumDiff, PerturbedIntegerMetricBreaches) {
  const Json base = report();
  const Json cur = with_metric(base, "msgs_sent", Json::integer(1235));
  const DiffResult r = diff::diff_reports(base, cur, Options{});
  EXPECT_EQ(r.breaches, 1) << diff::exit_status(r);
  EXPECT_EQ(diff::exit_status(r), 1);
  ASSERT_EQ(r.deltas.size(), 1u);
  EXPECT_TRUE(r.deltas[0].breach);
  EXPECT_NE(r.deltas[0].where.find("msgs_sent"), std::string::npos);
}

TEST(PlumDiff, DeterministicDoubleUsesRelativeTolerance) {
  const Json base = report();
  // Drift far beyond 1e-9: breach.
  const DiffResult tight = diff::diff_reports(
      base, with_metric(base, "imbalance_new", Json::number(1.06)),
      Options{});
  EXPECT_EQ(diff::exit_status(tight), 1);
  // Same drift with a per-metric threshold of 5%: clean, still reported.
  Options loose;
  loose.metric_tol["imbalance_new"] = 0.05;
  const DiffResult ok = diff::diff_reports(
      base, with_metric(base, "imbalance_new", Json::number(1.06)), loose);
  EXPECT_EQ(diff::exit_status(ok), 0);
  ASSERT_EQ(ok.deltas.size(), 1u);
  EXPECT_FALSE(ok.deltas[0].breach);
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
  const DiffResult r = diff::diff_reports(base, cur, Options{});
  EXPECT_EQ(r.breaches, 0);
  EXPECT_EQ(diff::exit_status(r), 0);
  EXPECT_GE(r.deltas.size(), 2u);  // the drifts still show in the table
  for (const auto& d : r.deltas) EXPECT_TRUE(d.wall) << d.where;
}

TEST(PlumDiff, MissingRunMetricAndSeriesLengthAreBreaches) {
  const Json base = report();
  {
    // Metric vanished.
    Json cur = base;
    Json run = cur.find("runs")->at(0);
    Json metrics = Json::object();
    for (const auto& [name, v] : run.find("metrics")->items()) {
      if (name != "msgs_sent") metrics.set(name, v);
    }
    run.set("metrics", std::move(metrics));
    cur.set("runs", Json::array().push(std::move(run)));
    EXPECT_EQ(diff::exit_status(diff::diff_reports(base, cur, Options{})),
              1);
    // Symmetric: a new metric without a baseline also breaches.
    EXPECT_EQ(diff::exit_status(diff::diff_reports(cur, base, Options{})),
              1);
  }
  {
    // Gauge series length changed (a cycle went missing).
    Json cur = with_metric(
        base, "imbalance", Json::array().push(Json::number(1.5)));
    const DiffResult r = diff::diff_reports(base, cur, Options{});
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
    EXPECT_EQ(diff::exit_status(diff::diff_reports(base, cur, Options{})),
              1);
  }
}

TEST(PlumDiff, CriticalPathAndCommMatrixGate) {
  const Json base = report();
  {
    Json cur = base;
    Json run = cur.find("runs")->at(0);
    Json cp = *run.find("critical_path");
    cp.set("wait_total", Json::number(7.0));
    run.set("critical_path", std::move(cp));
    cur.set("runs", Json::array().push(std::move(run)));
    EXPECT_EQ(diff::exit_status(diff::diff_reports(base, cur, Options{})),
              1);
  }
  {
    Json cur = base;
    Json run = cur.find("runs")->at(0);
    Json cm = *run.find("comm_matrix");
    auto row = [](std::int64_t a, std::int64_t b) {
      return Json::array().push(Json::integer(a)).push(Json::integer(b));
    };
    cm.set("bytes", Json::array().push(row(0, 32)).push(row(16, 0)));
    run.set("comm_matrix", std::move(cm));
    cur.set("runs", Json::array().push(std::move(run)));
    const DiffResult r = diff::diff_reports(base, cur, Options{});
    EXPECT_EQ(diff::exit_status(r), 1);
    ASSERT_FALSE(r.deltas.empty());
    EXPECT_NE(r.deltas[0].where.find("comm_matrix.bytes"),
              std::string::npos);
  }
}

TEST(PlumDiff, InvalidReportIsAnErrorNotABreach) {
  const Json base = report();
  Json bad = Json::object();
  bad.set("schema", Json::str("plum-bench/3"));  // missing bench/runs
  const DiffResult r = diff::diff_reports(base, bad, Options{});
  EXPECT_FALSE(r.error.empty());
  EXPECT_EQ(diff::exit_status(r), 2);
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
      diff::diff_dirs(bdir.string(), cdir.string(), Options{});
  EXPECT_TRUE(r.error.empty()) << r.error;
  EXPECT_EQ(diff::exit_status(r), 0);

  // A baseline with no current counterpart breaches; so does the reverse.
  write(bdir / "BENCH_bench_fig4.json", doc);
  r = diff::diff_dirs(bdir.string(), cdir.string(), Options{});
  EXPECT_EQ(diff::exit_status(r), 1);
  write(cdir / "BENCH_bench_fig4.json", doc);
  write(cdir / "BENCH_bench_fig5.json", doc);
  r = diff::diff_dirs(bdir.string(), cdir.string(), Options{});
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
