// plum-trace observability layer: JSON model round-trips, metric ordering
// stability, TraceRecorder phase/superstep accounting, the run entry
// (obs::run_entry) and its cross-engine byte identity, and the
// plum-bench/3 schema validator.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "json_report.hpp"
#include "obs/bench_schema.hpp"
#include "obs/critical_path.hpp"
#include "obs/json.hpp"
#include "obs/memory.hpp"
#include "obs/metrics.hpp"
#include "obs/run_entry.hpp"
#include "obs/scope.hpp"
#include "obs/trace.hpp"
#include "runtime/collectives.hpp"
#include "runtime/engine.hpp"
#include "util/assert.hpp"
#include "util/rss.hpp"

namespace plum {
namespace {

using obs::Json;

TEST(Json, ScalarsAndRoundTrip) {
  Json doc = Json::object();
  doc.set("int", Json::integer(-42))
      .set("big", Json::integer(std::int64_t{1} << 60))
      .set("pi", Json::number(3.25))
      .set("flag", Json::boolean(true))
      .set("none", Json::null())
      .set("text", Json::str("hi"));

  const std::string s = doc.dump();
  Json back;
  std::string err;
  ASSERT_TRUE(Json::parse(s, &back, &err)) << err;
  EXPECT_EQ(back.find("int")->as_int(), -42);
  EXPECT_EQ(back.find("big")->as_int(), std::int64_t{1} << 60);
  EXPECT_EQ(back.find("pi")->as_double(), 3.25);
  EXPECT_TRUE(back.find("flag")->as_bool());
  EXPECT_EQ(back.find("none")->kind(), Json::Kind::kNull);
  EXPECT_EQ(back.find("text")->as_string(), "hi");
  // Serialization is deterministic: re-dumping the parse is byte-identical.
  EXPECT_EQ(back.dump(), s);
}

TEST(Json, StringEscapes) {
  const std::string nasty = "a\"b\\c\nd\te\x01f";
  Json doc = Json::array();
  doc.push(Json::str(nasty));
  Json back;
  std::string err;
  ASSERT_TRUE(Json::parse(doc.dump(), &back, &err)) << err;
  EXPECT_EQ(back.at(0).as_string(), nasty);
  // \uXXXX decoding.
  ASSERT_TRUE(Json::parse("\"\\u0041\\u00e9\"", &back, &err)) << err;
  EXPECT_EQ(back.as_string(), "A\xc3\xa9");
}

TEST(Json, ObjectsPreserveInsertionOrder) {
  Json doc = Json::object();
  doc.set("zebra", Json::integer(1))
      .set("apple", Json::integer(2))
      .set("mid", Json::integer(3));
  EXPECT_EQ(doc.dump(), R"({"zebra":1,"apple":2,"mid":3})");
  // Overwrite keeps the original slot.
  doc.set("apple", Json::integer(9));
  EXPECT_EQ(doc.dump(), R"({"zebra":1,"apple":9,"mid":3})");
}

TEST(Json, ParserRejectsMalformedInput) {
  Json v;
  std::string err;
  EXPECT_FALSE(Json::parse("", &v, &err));
  EXPECT_FALSE(Json::parse("{", &v, &err));
  EXPECT_FALSE(Json::parse("[1,]", &v, &err));
  EXPECT_FALSE(Json::parse("{\"a\":1,}", &v, &err));
  EXPECT_FALSE(Json::parse("tru", &v, &err));
  EXPECT_FALSE(Json::parse("\"unterminated", &v, &err));
  EXPECT_FALSE(Json::parse("1 2", &v, &err));  // trailing garbage
  EXPECT_FALSE(err.empty());
}

TEST(Metrics, SortedAndInsertionOrderIndependent) {
  obs::MetricsRegistry a;
  a.set("speedup", 12.5);
  a.set_int("elements", 61000);
  a.set("imbalance", 1.02);

  obs::MetricsRegistry b;  // same values, different insertion order
  b.set("imbalance", 1.02);
  b.set("speedup", 12.5);
  b.set_int("elements", 61000);

  EXPECT_EQ(a.to_json().dump(), b.to_json().dump());
  EXPECT_EQ(a.to_json().dump(),
            R"({"elements":61000,"imbalance":1.02,"speedup":12.5})");
  EXPECT_TRUE(a.contains("speedup"));
  EXPECT_EQ(a.get("elements"), 61000.0);
}

/// Deterministic two-superstep workload: each rank sends its id to rank 0
/// and charges r+1 units per step.
bool tick(Rank r, const rt::Inbox& in, rt::Outbox& out) {
  (void)in;
  out.charge(r + 1);
  out.send_vec<std::int32_t>(0, 7, {r});
  return out.step() < 1;
}

TEST(TraceRecorder, PhaseAndSuperstepAccounting) {
  rt::Engine eng(3);
  obs::TraceRecorder rec;
  eng.set_observer(&rec);

  {
    obs::PhaseScope outer(rec, "cycle");
    {
      obs::PhaseScope ph(rec, "solve");
      ph.set_modeled_seconds(1.5);
      eng.run(tick);
    }
    obs::PhaseScope idle(rec, "idle");  // no supersteps inside
  }

  ASSERT_EQ(rec.phases().size(), 3u);
  const auto& cycle = rec.phases()[0];
  const auto& solve = rec.phases()[1];
  const auto& idle = rec.phases()[2];
  EXPECT_EQ(cycle.name, "cycle");
  EXPECT_EQ(cycle.depth, 0);
  EXPECT_EQ(solve.depth, 1);
  EXPECT_TRUE(solve.closed);

  // Two supersteps, each charging 1+2+3 = 6 units and sending 3 msgs.
  ASSERT_EQ(rec.supersteps().size(), 2u);
  EXPECT_EQ(solve.supersteps, 2);
  EXPECT_EQ(solve.compute_units, 12);
  EXPECT_EQ(solve.msgs_sent, 6);
  EXPECT_EQ(solve.modeled_s, 1.5);
  // The outer phase saw the same steps; the empty phase saw none.
  EXPECT_EQ(cycle.supersteps, 2);
  EXPECT_EQ(cycle.compute_units, 12);
  EXPECT_EQ(idle.supersteps, 0);

  const auto& st = rec.supersteps()[0];
  EXPECT_EQ(st.step, 0);
  EXPECT_EQ(st.phase, "solve");  // innermost open phase
  ASSERT_EQ(st.counters.size(), 3u);
  EXPECT_EQ(st.counters[2].compute_units, 3);
  ASSERT_EQ(st.rank_seconds.size(), 3u);
}

TEST(TraceRecorder, PhaseSuperstepSecondsSplitHostFromRankTime) {
  rt::Engine eng(3);
  obs::TraceRecorder rec;
  eng.set_observer(&rec);
  {
    obs::PhaseScope ph(rec, "solve");
    eng.run(tick);
  }
  { obs::PhaseScope idle(rec, "idle"); }

  const auto& solve = rec.phases()[0];
  const auto& idle = rec.phases()[1];
  EXPECT_GT(solve.superstep_s, 0);
  EXPECT_LE(solve.superstep_s, solve.wall_s);
  EXPECT_EQ(solve.superstep_s,
            rec.supersteps()[0].wall_s + rec.supersteps()[1].wall_s);
  EXPECT_EQ(idle.superstep_s, 0);

  // Only the wall form carries it.
  const obs::MetricsRegistry m;
  const Json wall = obs::run_entry(rec, m, nullptr, /*wall=*/true);
  const Json& wp = wall.find("phases")->at(0);
  ASSERT_NE(wp.find("superstep_s"), nullptr);
  EXPECT_EQ(wp.find("superstep_s")->as_double(), solve.superstep_s);
  EXPECT_EQ(wall.find("phases")->at(1).find("superstep_s")->as_double(), 0);
  const Json bare = obs::run_entry(rec, m, nullptr, /*wall=*/false);
  EXPECT_EQ(bare.find("phases")->at(0).find("superstep_s"), nullptr);
  EXPECT_EQ(bare.find("phases")->at(0).find("wall_s"), nullptr);
}

TEST(TraceRecorder, DeterministicJsonIdenticalAcrossEngines) {
  using StepView =
      std::tuple<int, std::string, std::vector<rt::StepCounters>>;
  auto run = [](rt::Engine& eng) {
    obs::TraceRecorder rec;
    eng.set_observer(&rec);
    {
      obs::PhaseScope ph(rec, "storm");
      eng.run(tick);
    }
    std::vector<StepView> steps;
    for (const auto& st : rec.supersteps()) {
      steps.emplace_back(st.step, st.phase, st.counters);
    }
    // The wall-free run entry, with empty metrics.
    const obs::MetricsRegistry none;
    return std::make_pair(
        obs::run_entry(rec, none, &eng.ledger(), /*wall=*/false).dump(),
        steps);
  };

  rt::Engine seq(5);
  const auto want = run(seq);
  EXPECT_FALSE(want.first.empty());
  EXPECT_EQ(want.second.size(), 2u);
  // Wall-clock fields must not leak into the wall-free entry.
  EXPECT_EQ(want.first.find("wall_s"), std::string::npos);
  EXPECT_EQ(want.first.find("seconds"), std::string::npos);
  EXPECT_EQ(want.first.find("rss"), std::string::npos);

  for (int threads : {1, 2, 4}) {
    rt::ParallelEngine par(5, threads);
    EXPECT_EQ(run(par), want) << "threads=" << threads;
  }
}

TEST(CriticalPath, CounterDecompositionOfTickWorkload) {
  rt::Engine eng(3);
  obs::TraceRecorder rec;
  eng.set_observer(&rec);
  {
    obs::PhaseScope ph(rec, "solve");
    eng.run(tick);  // 2 supersteps; rank r charges r+1 units each step
  }

  const auto cp = obs::analyze_critical_path(rec);
  ASSERT_EQ(cp.steps.size(), 2u);
  for (const auto& sp : cp.steps) {
    EXPECT_EQ(sp.phase, "solve");
    EXPECT_EQ(sp.critical_rank, 2);  // charges 3 units, the most
    EXPECT_EQ(sp.critical, 3.0);
    EXPECT_EQ(sp.busy, 6.0);            // 1 + 2 + 3
    EXPECT_EQ(sp.wait, 3.0);            // (3-1) + (3-2) + (3-3)
    EXPECT_DOUBLE_EQ(sp.imbalance, 1.5);  // 3 / mean(2)
  }
  EXPECT_EQ(cp.critical_total, 6.0);
  EXPECT_EQ(cp.busy_total, 12.0);
  EXPECT_EQ(cp.wait_total, 6.0);
  EXPECT_DOUBLE_EQ(cp.wait_fraction(), 6.0 / 18.0);

  ASSERT_EQ(cp.ranks.size(), 3u);
  EXPECT_EQ(cp.ranks[0].busy, 2.0);
  EXPECT_EQ(cp.ranks[0].wait, 4.0);
  EXPECT_EQ(cp.ranks[0].steps_critical, 0);
  EXPECT_DOUBLE_EQ(cp.ranks[0].wait_fraction(), 4.0 / 6.0);
  EXPECT_EQ(cp.ranks[2].busy, 6.0);
  EXPECT_EQ(cp.ranks[2].wait, 0.0);
  EXPECT_EQ(cp.ranks[2].steps_critical, 2);
  EXPECT_EQ(cp.ranks[2].wait_fraction(), 0.0);

  ASSERT_EQ(cp.phases.size(), 1u);
  EXPECT_EQ(cp.phases[0].name, "solve");
  EXPECT_EQ(cp.phases[0].supersteps, 2);
  EXPECT_EQ(cp.phases[0].worst_rank, 2);
  EXPECT_EQ(cp.phases[0].worst_rank_steps, 2);

  // The JSON mirror carries the same numbers and no wall-clock vocabulary
  // (compute units are the only source, so no "source" field either).
  const std::string json = cp.to_json().dump();
  EXPECT_EQ(json.find("\"source\""), std::string::npos);
  EXPECT_NE(json.find("\"critical_total\":6"), std::string::npos);
  EXPECT_EQ(json.find("seconds"), std::string::npos);
  EXPECT_EQ(json.find("wall"), std::string::npos);
}

TEST(CriticalPath, TieOnWorkGoesToLowestRankAndEmptyTraceIsZero) {
  // Equal charges: the critical rank must be the lowest (deterministic
  // tie-break), and wait is zero everywhere.
  rt::Engine eng(4);
  obs::TraceRecorder rec;
  eng.set_observer(&rec);
  eng.run([](Rank, const rt::Inbox&, rt::Outbox& out) {
    out.charge(5);
    return false;
  });
  const auto cp = obs::analyze_critical_path(rec);
  ASSERT_EQ(cp.steps.size(), 1u);
  EXPECT_EQ(cp.steps[0].critical_rank, 0);
  EXPECT_EQ(cp.steps[0].wait, 0.0);
  EXPECT_DOUBLE_EQ(cp.steps[0].imbalance, 1.0);
  EXPECT_EQ(cp.wait_fraction(), 0.0);

  const obs::TraceRecorder empty;
  const auto none = obs::analyze_critical_path(empty);
  EXPECT_TRUE(none.steps.empty());
  EXPECT_TRUE(none.ranks.empty());
  EXPECT_EQ(none.wait_fraction(), 0.0);
}

TEST(CriticalPath, EmbeddedInBothTraceSerializations) {
  rt::Engine eng(2);
  obs::TraceRecorder rec;
  eng.set_observer(&rec);
  eng.run(tick);

  // Both forms of the run entry carry the same counter-sourced section.
  const obs::MetricsRegistry m;
  const std::string want = obs::analyze_critical_path(rec).to_json().dump();
  for (const bool wall : {false, true}) {
    const Json entry = obs::run_entry(rec, m, nullptr, wall);
    ASSERT_NE(entry.find("critical_path"), nullptr) << "wall=" << wall;
    EXPECT_EQ(entry.find("critical_path")->dump(), want) << "wall=" << wall;
  }
}

TEST(TraceRecorder, CommMatrixAndTagClassesFromWorkload) {
  rt::Engine eng(3);
  obs::TraceRecorder rec;
  eng.set_observer(&rec);
  eng.run(tick);  // 2 steps, every rank sends one int32 to rank 0, tag 7

  // The comm matrix renders from the ledger.
  const Json cm = obs::comm_matrix_json(eng.ledger().comm_matrix());
  ASSERT_EQ(cm.find("nranks")->as_int(), 3);
  for (std::size_t from = 0; from < 3; ++from) {
    const Json& bytes = cm.find("bytes")->at(from);
    const Json& msgs = cm.find("msgs")->at(from);
    EXPECT_EQ(bytes.at(0).as_int(), 8);  // 4 bytes x 2 supersteps
    EXPECT_EQ(msgs.at(0).as_int(), 2);
    EXPECT_EQ(bytes.at(1).as_int(), 0);
    EXPECT_EQ(bytes.at(2).as_int(), 0);
  }

  // The run entry folds the same ledger cells into tag classes.
  const obs::MetricsRegistry m;
  for (const bool wall : {false, true}) {
    const Json entry = obs::run_entry(rec, m, &eng.ledger(), wall);
    const Json* by_class = entry.find("comm_by_class");
    ASSERT_NE(by_class, nullptr);
    ASSERT_EQ(by_class->size(), 1u);
    ASSERT_NE(by_class->find("tag7"), nullptr);
    EXPECT_EQ(by_class->find("tag7")->find("msgs")->as_int(), 6);
    EXPECT_EQ(by_class->find("tag7")->find("bytes")->as_int(), 24);
    EXPECT_NE(entry.find("gate_audit"), nullptr);
  }
  // Without a ledger there is no traffic to fold.
  EXPECT_EQ(obs::run_entry(rec, m, nullptr, true).find("comm_by_class"),
            nullptr);
}

TEST(TraceRecorder, TagClassNames) {
  EXPECT_EQ(obs::tag_class_name(rt::detail::kCollectiveTag), "collective");
  EXPECT_EQ(obs::tag_class_name(0), "bulk");
  EXPECT_EQ(obs::tag_class_name(2), "adapt");
  EXPECT_EQ(obs::tag_class_name(11), "solver");
  EXPECT_EQ(obs::tag_class_name(111), "solver");
  // Unknown tags fall back to a "tag<N>" bucket instead of aborting, so a
  // new subsystem's traffic still shows up in the per-class split.
  EXPECT_EQ(obs::tag_class_name(42), "tag42");
  EXPECT_EQ(obs::tag_class_name(4), "tag4");     // just past the adapt range
  EXPECT_EQ(obs::tag_class_name(13), "tag13");   // just past the solver tags
  EXPECT_EQ(obs::tag_class_name(-7), "tag-7");   // negative tags too
}

TEST(GateAudit, DriftAndRecordSerialization) {
  // Zero-predicted drift is a deliberate policy, not an accident: a remap
  // the model priced at zero bytes reports drift 0 whether or not anything
  // actually moved, because a non-finite ratio would poison JSON dumps and
  // every mean-drift aggregate downstream.
  EXPECT_EQ(obs::gate_drift(0, 100), 0.0);  // predicted 0, measured > 0
  EXPECT_EQ(obs::gate_drift(0, 0), 0.0);    // predicted 0, measured 0
  EXPECT_DOUBLE_EQ(obs::gate_drift(100, 125), 0.25);
  EXPECT_DOUBLE_EQ(obs::gate_drift(200, 100), -0.5);

  obs::GateRecord rec;
  rec.cycle = 3;
  rec.evaluated = true;
  rec.accepted = true;
  rec.metric = "TotalV";
  rec.imbalance_old = 1.5;
  rec.imbalance_new = 1.0625;
  rec.gain_s = 0.75;
  rec.cost_s = 0.25;
  rec.moved_elems = 40;
  rec.moved_sets = 6;
  rec.predicted_move_bytes = 4096;
  rec.measured_move_bytes = 5120;
  rec.drift = obs::gate_drift(4096, 5120);

  const Json j = obs::gate_record_json(rec);
  // Field order is part of the deterministic byte contract.
  EXPECT_EQ(j.dump(),
            "{\"cycle\":3,\"evaluated\":true,\"accepted\":true,"
            "\"metric\":\"TotalV\",\"imbalance_old\":1.5,"
            "\"imbalance_new\":1.0625,\"gain_s\":0.75,\"cost_s\":0.25,"
            "\"moved_elems\":40,\"moved_sets\":6,"
            "\"predicted_move_bytes\":4096,\"measured_move_bytes\":5120,"
            "\"drift\":0.25}");

  const Json audit = obs::gate_audit_json({rec, obs::GateRecord{}});
  ASSERT_TRUE(audit.is_array());
  ASSERT_EQ(audit.size(), 2u);
  EXPECT_EQ(audit.at(1).find("evaluated")->as_bool(), false);

  // Recorder round-trip: records land in both forms of the run entry.
  obs::TraceRecorder tr;
  tr.add_gate_record(rec);
  ASSERT_EQ(tr.gate_records().size(), 1u);
  EXPECT_EQ(tr.gate_records()[0], rec);
  const obs::MetricsRegistry m;
  for (const bool wall : {false, true}) {
    EXPECT_NE(obs::run_entry(tr, m, nullptr, wall)
                  .find("gate_audit")
                  ->dump()
                  .find("\"predicted_move_bytes\":4096"),
              std::string::npos);
  }
}

TEST(Metrics, GaugeSeriesAppendAndRender) {
  obs::MetricsRegistry m;
  m.add_sample("imbalance", 1.5);
  m.add_sample("imbalance", 1.25);
  m.add_sample_int("edge_cut", 40);
  m.add_sample_int("edge_cut", 36);
  m.set("speedup", 2.0);

  EXPECT_TRUE(m.is_series("imbalance"));
  EXPECT_FALSE(m.is_series("speedup"));
  EXPECT_EQ(m.series("imbalance"), (std::vector<double>{1.5, 1.25}));
  EXPECT_EQ(m.series("edge_cut"), (std::vector<double>{40.0, 36.0}));
  // Series render as arrays (ints stay integers), scalars as before.
  EXPECT_EQ(m.to_json().dump(),
            R"({"edge_cut":[40,36],"imbalance":[1.5,1.25],"speedup":2})");
}

Json valid_report() {
  Json phase = Json::object();
  phase.set("name", Json::str("solve"))
      .set("wall_s", Json::number(0.25))
      .set("modeled_s", Json::number(0.5))
      .set("supersteps", Json::integer(7));
  Json run = Json::object();
  run.set("case", Json::str("Real_1"))
      .set("P", Json::integer(8))
      .set("metrics",
           Json::object().set("speedup", Json::number(9.3)))
      .set("phases", Json::array().push(std::move(phase)));
  Json doc = Json::object();
  doc.set("schema", Json::str("plum-bench/3"))
      .set("bench", Json::str("bench_fig4"))
      .set("runs", Json::array().push(std::move(run)));
  return doc;
}

TEST(BenchSchema, AcceptsValidReport) {
  EXPECT_EQ(obs::validate_bench_report(valid_report()), "");
}

TEST(BenchSchema, RejectsViolations) {
  EXPECT_NE(obs::validate_bench_report(Json::integer(3)), "");
  EXPECT_NE(obs::validate_bench_report(Json::object()), "");

  {
    Json doc = valid_report();
    doc.set("schema", Json::str("plum-bench/99"));
    EXPECT_NE(obs::validate_bench_report(doc), "");
  }
  {
    Json doc = valid_report();
    doc.set("runs", Json::array());  // empty runs
    EXPECT_NE(obs::validate_bench_report(doc), "");
  }
  {
    Json doc = valid_report();
    Json run = doc.find("runs")->at(0);
    run.set("P", Json::integer(0));  // P < 1
    doc.set("runs", Json::array().push(std::move(run)));
    EXPECT_NE(obs::validate_bench_report(doc), "");
  }
  {
    Json doc = valid_report();
    Json run = doc.find("runs")->at(0);
    run.set("metrics",
            Json::object().set("oops", Json::str("not a number")));
    doc.set("runs", Json::array().push(std::move(run)));
    EXPECT_NE(obs::validate_bench_report(doc), "");
  }
  {
    Json doc = valid_report();
    Json run = doc.find("runs")->at(0);
    Json phase = Json::object();
    phase.set("name", Json::str("solve"));  // missing wall_s etc.
    run.set("phases", Json::array().push(std::move(phase)));
    doc.set("runs", Json::array().push(std::move(run)));
    EXPECT_NE(obs::validate_bench_report(doc), "");
  }
  {
    // Two runs with one (case, P): the error names both.
    Json doc = valid_report();
    const Json run = doc.find("runs")->at(0);
    doc.set("runs", Json::array().push(run).push(run));
    const std::string err = obs::validate_bench_report(doc);
    EXPECT_NE(err.find("runs[1]"), std::string::npos) << err;
    EXPECT_NE(err.find("runs[0]"), std::string::npos) << err;
  }
  // A phase's superstep_s is optional, but a number >= 0 when present.
  for (const auto& [value, ok] :
       {std::pair{Json::number(0.125), true}, {Json::number(-1.0), false},
        {Json::str("fast"), false}}) {
    Json doc = valid_report();
    Json run = doc.find("runs")->at(0);
    Json phase = run.find("phases")->at(0);
    phase.set("superstep_s", value);
    run.set("phases", Json::array().push(std::move(phase)));
    doc.set("runs", Json::array().push(std::move(run)));
    EXPECT_EQ(obs::validate_bench_report(doc).empty(), ok) << value.dump();
  }
}

Json valid_v2_report() {
  Json doc = valid_report();
  Json run = doc.find("runs")->at(0);
  // Gauge series: arrays of numbers.
  Json metrics = *run.find("metrics");
  metrics.set("imbalance",
              Json::array().push(Json::number(1.5)).push(Json::number(1.1)));
  metrics.set("edge_cut",
              Json::array().push(Json::integer(40)).push(Json::integer(36)));
  run.set("metrics", std::move(metrics));
  // 2x2 comm matrix with matching msgs/bytes shapes.
  auto row = [](std::int64_t a, std::int64_t b) {
    return Json::array().push(Json::integer(a)).push(Json::integer(b));
  };
  Json cm = Json::object();
  cm.set("nranks", Json::integer(2))
      .set("msgs", Json::array().push(row(0, 1)).push(row(1, 0)))
      .set("bytes", Json::array().push(row(0, 8)).push(row(16, 0)));
  run.set("comm_matrix", std::move(cm));
  obs::GateRecord g;
  g.cycle = 0;
  g.evaluated = true;
  g.accepted = true;
  g.metric = "MaxV";
  g.predicted_move_bytes = 10;
  g.measured_move_bytes = 12;
  g.drift = obs::gate_drift(10, 12);
  run.set("gate_audit", obs::gate_audit_json({g}));
  doc.set("runs", Json::array().push(std::move(run)));
  return doc;
}

TEST(BenchSchema, V2AcceptsGaugesCommMatrixAndGateAudit) {
  EXPECT_EQ(obs::validate_bench_report(valid_v2_report()), "");
}

TEST(BenchSchema, V2RejectsMalformedCommMatrixAndGateAudit) {
  {
    Json doc = valid_v2_report();
    Json run = doc.find("runs")->at(0);
    Json cm = *run.find("comm_matrix");
    cm.set("nranks", Json::integer(3));  // rows no longer match nranks
    run.set("comm_matrix", std::move(cm));
    doc.set("runs", Json::array().push(std::move(run)));
    EXPECT_NE(obs::validate_bench_report(doc), "");
  }
  {
    Json doc = valid_v2_report();
    Json run = doc.find("runs")->at(0);
    Json cm = *run.find("comm_matrix");
    // Rebuild the byte rows with a negative count in (0,1).
    Json bad_row = Json::array().push(Json::integer(0)).push(Json::integer(-5));
    Json rebuilt =
        Json::array().push(std::move(bad_row)).push(cm.find("bytes")->at(1));
    cm.set("bytes", std::move(rebuilt));
    run.set("comm_matrix", std::move(cm));
    doc.set("runs", Json::array().push(std::move(run)));
    EXPECT_NE(obs::validate_bench_report(doc), "");
  }
  {
    Json doc = valid_v2_report();
    Json run = doc.find("runs")->at(0);
    Json bad = Json::object();
    bad.set("cycle", Json::integer(0));  // missing decision/cost fields
    run.set("gate_audit", Json::array().push(std::move(bad)));
    doc.set("runs", Json::array().push(std::move(run)));
    EXPECT_NE(obs::validate_bench_report(doc), "");
  }
  {
    // Tag-class traffic must be non-negative integer counts.
    Json doc = valid_v2_report();
    Json run = doc.find("runs")->at(0);
    Json bc = Json::object();
    bc.set("solver", Json::object()
                         .set("msgs", Json::integer(3))
                         .set("bytes", Json::number(2.5)));
    run.set("comm_by_class", std::move(bc));
    doc.set("runs", Json::array().push(std::move(run)));
    const std::string err = obs::validate_bench_report(doc);
    EXPECT_NE(err.find("comm_by_class"), std::string::npos) << err;
  }
}

TEST(BenchSchema, V2AcceptsRunEntrySections) {
  // Build the document the real producers build: a registry gauge and a
  // run entry's critical path and tag-class traffic, both through
  // JsonReport.
  rt::Engine eng(2);
  obs::TraceRecorder rec;
  eng.set_observer(&rec);
  eng.run(tick);

  obs::MetricsRegistry m;
  m.add_sample_int("edge_cut", 12);

  bench::JsonReport report("unit");
  report.add_run("caseA", 2)
      .metric("speedup", 2.0)
      .entry(obs::run_entry(rec, m, &eng.ledger(), /*wall=*/true));
  const Json doc = report.to_json();
  EXPECT_EQ(obs::validate_bench_report(doc), "") << doc.dump(2);
  const Json& run = doc.find("runs")->at(0);
  for (const char* section : {"critical_path", "gate_audit", "comm_by_class"}) {
    EXPECT_NE(run.find(section), nullptr) << section;
  }
  EXPECT_EQ(run.find("heap"), nullptr);
  EXPECT_NE(run.find("metrics")->find("edge_cut"), nullptr);
}

TEST(BenchSchema, V2RejectsObjectMetricAndMalformedCriticalPath) {
  // A metric is a number or an array of numbers, so even well-formed
  // histogram and wall-series objects are rejected.
  Json hist = Json::object();
  hist.set("histogram", Json::boolean(true))
      .set("wall", Json::boolean(false))
      .set("count", Json::integer(1))
      .set("max", Json::number(1.0))
      .set("p50", Json::number(1.0))
      .set("p95", Json::number(1.0))
      .set("bounds", Json::array().push(Json::number(1.0)))
      .set("counts",
           Json::array().push(Json::integer(1)).push(Json::integer(0)));
  Json wall_series = Json::object();
  wall_series.set("series", Json::boolean(true))
      .set("wall", Json::boolean(true))
      .set("samples",
           Json::array().push(Json::integer(100)).push(Json::integer(250)));
  for (Json* object : {&hist, &wall_series}) {
    Json doc = valid_v2_report();
    Json run = doc.find("runs")->at(0);
    Json metrics = *run.find("metrics");
    metrics.set("object_metric", *object);
    run.set("metrics", std::move(metrics));
    doc.set("runs", Json::array().push(std::move(run)));
    const std::string err = obs::validate_bench_report(doc);
    EXPECT_NE(err.find("object_metric"), std::string::npos)
        << object->dump() << ": " << err;
  }
  {
    // critical_path must carry its totals and section arrays.
    Json doc = valid_v2_report();
    Json run = doc.find("runs")->at(0);
    Json cp = Json::object();
    cp.set("critical_total", Json::number(1.0));  // missing everything else
    run.set("critical_path", std::move(cp));
    doc.set("runs", Json::array().push(std::move(run)));
    EXPECT_NE(obs::validate_bench_report(doc), "");
  }
}

TEST(BenchSchema, V2AcceptsGateRegressors) {
  Json doc = valid_v2_report();
  Json run = doc.find("runs")->at(0);
  // Gate records may carry the C and N the cost model priced.
  obs::GateRecord g;
  g.cycle = 1;
  g.evaluated = true;
  g.accepted = true;
  g.metric = "TotalV";
  g.moved_elems = 500;
  g.moved_sets = 12;
  g.predicted_move_bytes = 360960;
  g.measured_move_bytes = 401000;
  g.drift = obs::gate_drift(g.predicted_move_bytes, g.measured_move_bytes);
  run.set("gate_audit", obs::gate_audit_json({g}));
  doc.set("runs", Json::array().push(std::move(run)));
  EXPECT_EQ(obs::validate_bench_report(doc), "") << doc.dump(2);
}

TEST(BenchSchema, V2RejectsNegativeGateRegressors) {
  Json doc = valid_v2_report();
  Json run = doc.find("runs")->at(0);
  Json rec = run.find("gate_audit")->at(0);
  rec.set("moved_sets", Json::integer(-3));
  run.set("gate_audit", Json::array().push(std::move(rec)));
  doc.set("runs", Json::array().push(std::move(run)));
  EXPECT_NE(obs::validate_bench_report(doc), "");
}

TEST(JsonReport, WritesValidatedFileHonoringDirOverride) {
  const std::string dir = testing::TempDir();
  ASSERT_EQ(setenv("PLUM_BENCH_JSON_DIR", dir.c_str(), 1), 0);

  bench::JsonReport report("unit");
  report.add_run("caseA", 4)
      .metric("speedup", 2.5)
      .metric_int("elements", 123)
      .phase("solve", 0.1, 0.2, 3);

  const std::string path = report.write();
  ASSERT_NE(unsetenv("PLUM_BENCH_JSON_DIR"), -1);
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(path, dir + "/BENCH_unit.json");

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream buf;
  buf << in.rdbuf();
  Json doc;
  std::string err;
  ASSERT_TRUE(Json::parse(buf.str(), &doc, &err)) << err;
  EXPECT_EQ(obs::validate_bench_report(doc), "");
  EXPECT_EQ(doc.find("bench")->as_string(), "unit");
  const Json& run = doc.find("runs")->at(0);
  EXPECT_EQ(run.find("case")->as_string(), "caseA");
  EXPECT_EQ(run.find("P")->as_int(), 4);
  EXPECT_EQ(run.find("metrics")->find("elements")->as_int(), 123);
  EXPECT_EQ(run.find("phases")->at(0).find("supersteps")->as_int(), 3);
}

TEST(JsonReport, EntryMetricsOverrideBenchScalarsAndSectionsCopy) {
  obs::TraceRecorder trace;
  { obs::PhaseScope ph(trace, "solve"); }
  obs::MetricsRegistry m;
  m.add_sample_int("edge_cut", 40);

  bench::JsonReport report("unit");
  report.add_run("caseB", 2)
      .metric_int("edge_cut", 1)
      .metric("speedup", 2.5)
      .entry(obs::run_entry(trace, m, nullptr, /*wall=*/true));
  const Json doc = report.to_json();
  ASSERT_EQ(obs::validate_bench_report(doc), "") << doc.dump(2);
  const Json& run = doc.find("runs")->at(0);
  // The framework's gauge replaces the bench scalar of the same name.
  const Json* edge_cut = run.find("metrics")->find("edge_cut");
  ASSERT_NE(edge_cut, nullptr);
  ASSERT_TRUE(edge_cut->is_array());
  EXPECT_EQ(edge_cut->at(0).as_int(), 40);
  EXPECT_EQ(run.find("metrics")->find("speedup")->as_double(), 2.5);
  ASSERT_EQ(run.find("phases")->size(), 1u);
  EXPECT_EQ(run.find("phases")->at(0).find("name")->as_string(), "solve");
  EXPECT_NE(run.find("phases")->at(0).find("wall_s"), nullptr);
  EXPECT_EQ(run.find("comm_by_class"), nullptr);  // no ledger
}

TEST(JsonReport, RefusesToWriteInvalidReport) {
  bench::JsonReport report("empty");  // no runs -> schema violation
  EXPECT_EQ(report.write(), "");
}

// --- plum-scope: flight recorder, live stream records, postmortems ----------

/// Records one event for `rank` the way the engines do after its step.
void record(obs::FlightRecorder& rec, Rank rank, int step, std::int64_t ticks,
            std::int64_t wall_ns = 0) {
  rt::StepCounters counters;
  counters.compute_units = ticks;
  rec.record_rank_step(step, rank, counters, wall_ns);
}

TEST(FlightRecorder, RingOverwritesOldestKeepingNewestEvents) {
  obs::FlightRecorder rec(2, /*capacity=*/4);
  for (int i = 0; i < 10; ++i) record(rec, 0, i, i * 100);
  record(rec, 1, 7, 42);

  EXPECT_EQ(rec.events_recorded(0), 10u);
  EXPECT_EQ(rec.events_recorded(1), 1u);
  const auto ev0 = rec.last_events(0);
  ASSERT_EQ(ev0.size(), 4u);  // capacity events survive, oldest first
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(ev0[static_cast<std::size_t>(i)].step, 6 + i);
    EXPECT_EQ(ev0[static_cast<std::size_t>(i)].ticks, (6 + i) * 100);
    EXPECT_EQ(ev0[static_cast<std::size_t>(i)].rank, 0);
  }
  ASSERT_EQ(rec.last_events(1).size(), 1u);
  EXPECT_EQ(rec.last_events(1)[0].ticks, 42);
}

TEST(FlightRecorder, PhaseStampingInternsNamesOnce) {
  obs::FlightRecorder rec(1, 8);
  record(rec, 0, 0, 1);  // outside any phase
  rec.set_phase("solve");
  record(rec, 0, 1, 1);
  rec.set_phase("mark");
  record(rec, 0, 2, 1);
  rec.set_phase("solve");  // re-entering reuses the interned id
  record(rec, 0, 3, 1);
  rec.clear_phase();
  record(rec, 0, 4, 1);

  const auto ev = rec.last_events(0);
  ASSERT_EQ(ev.size(), 5u);
  EXPECT_EQ(ev[0].phase, -1);
  EXPECT_EQ(ev[1].phase, 0);
  EXPECT_EQ(ev[2].phase, 1);
  EXPECT_EQ(ev[3].phase, 0);
  EXPECT_EQ(ev[4].phase, -1);
  ASSERT_EQ(rec.phase_names().size(), 2u);
  EXPECT_EQ(rec.phase_names()[0], "solve");
  EXPECT_EQ(rec.phase_names()[1], "mark");
}

TEST(FlightRecorder, DeterministicJsonExcludesWallClock) {
  auto fill = [](std::int64_t wall) {
    obs::FlightRecorder rec(2, 4);
    rec.set_phase("solve");
    record(rec, 0, 0, 10, wall);
    record(rec, 1, 0, 20, wall * 3);
    return rec;
  };
  const obs::FlightRecorder fast = fill(1);
  const obs::FlightRecorder slow = fill(999999);
  // The full forensic view carries the differing wall clocks...
  EXPECT_NE(fast.to_json().dump(), slow.to_json().dump());
  EXPECT_NE(fast.to_json().dump().find("wall_ns"), std::string::npos);
  // ...but the deterministic view is byte-identical and wall-free.
  EXPECT_EQ(fast.deterministic_json().dump(), slow.deterministic_json().dump());
  EXPECT_EQ(fast.deterministic_json().dump().find("wall_ns"),
            std::string::npos);
}

Json valid_scope_record() {
  Json gate = Json::object();
  gate.set("evaluated", Json::boolean(true))
      .set("accepted", Json::boolean(false));
  Json ranks = Json::array();
  for (int r = 0; r < 2; ++r) {
    Json rk = Json::object();
    rk.set("rank", Json::integer(r))
        .set("busy", Json::integer(10 + r))
        .set("wait", Json::integer(2 - r));
    ranks.push(std::move(rk));
  }
  Json rec = Json::object();
  rec.set("schema", Json::str("plum-scope/1"))
      .set("name", Json::str("unit"))
      .set("cycle", Json::integer(0))
      .set("supersteps", Json::integer(12))
      .set("elements", Json::integer(500))
      .set("imbalance", Json::number(1.25))
      .set("wall_s", Json::number(0.25))
      .set("gate", std::move(gate))
      .set("ranks", std::move(ranks));
  return rec;
}

TEST(ScopeSchema, AcceptsRecordAndRejectsViolations) {
  EXPECT_EQ(obs::validate_scope_record(valid_scope_record()), "");

  {
    Json bad = valid_scope_record();
    bad.set("schema", Json::str("plum-scope/2"));
    EXPECT_NE(obs::validate_scope_record(bad), "");
  }
  {
    Json bad = valid_scope_record();
    bad.set("name", Json::str(""));
    EXPECT_NE(obs::validate_scope_record(bad), "");
  }
  {
    Json bad = valid_scope_record();
    bad.set("cycle", Json::integer(-1));
    EXPECT_NE(obs::validate_scope_record(bad), "");
  }
  {
    Json bad = valid_scope_record();
    bad.set("gate", Json::object().set("evaluated", Json::boolean(true)));
    EXPECT_NE(obs::validate_scope_record(bad), "");  // accepted missing
  }
  {
    Json bad = valid_scope_record();
    Json rk = bad.find("ranks")->at(0);
    rk.set("busy", Json::integer(-3));
    bad.set("ranks", Json::array().push(std::move(rk)));
    EXPECT_NE(obs::validate_scope_record(bad), "");
  }
}

TEST(ScopeStreamWriter, AppendsOneValidatedLinePerRecord) {
  const std::string path = testing::TempDir() + "scope_stream_unit.ndjson";
  std::remove(path.c_str());
  {
    obs::ScopeStreamWriter w(path);
    ASSERT_TRUE(w.ok());
    EXPECT_TRUE(w.append(valid_scope_record()));
    Json second = valid_scope_record();
    second.set("cycle", Json::integer(1));
    EXPECT_TRUE(w.append(second));
  }
  // A second writer appends rather than truncates — exactly what a
  // multi-sweep bench run relies on.
  {
    obs::ScopeStreamWriter w(path);
    ASSERT_TRUE(w.ok());
    Json third = valid_scope_record();
    third.set("cycle", Json::integer(2));
    EXPECT_TRUE(w.append(third));
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  int n = 0;
  while (std::getline(in, line)) {
    Json rec;
    std::string err;
    ASSERT_TRUE(Json::parse(line, &rec, &err)) << err;
    EXPECT_EQ(obs::validate_scope_record(rec), "");
    EXPECT_EQ(rec.find("cycle")->as_int(), n);
    ++n;
  }
  EXPECT_EQ(n, 3);
  std::remove(path.c_str());
}

TEST(Postmortem, BuilderEmitsValidatedDocumentWithCrashNotes) {
  obs::FlightRecorder rec(2, 4);
  record(rec, 0, 0, 5, 123);
  record(rec, 1, 0, 7, 456);

  obs::PostmortemConfig cfg;
  cfg.name = "unit";
  cfg.recorder = &rec;
  const Json doc = obs::postmortem_json(cfg, "x == y", "file.cpp", 42, "boom");

  EXPECT_EQ(obs::validate_postmortem(doc), "");
  EXPECT_EQ(doc.find("name")->as_string(), "unit");
  EXPECT_EQ(doc.find("reason")->find("expr")->as_string(), "x == y");
  EXPECT_EQ(doc.find("reason")->find("line")->as_int(), 42);
  EXPECT_EQ(doc.find("reason")->find("msg")->as_string(), "boom");
  const Json* scope = doc.find("scope");
  ASSERT_NE(scope, nullptr);
  EXPECT_EQ(scope->find("ranks")->size(), 2u);
  // Postmortems keep wall clocks: forensic output, never diffed.
  EXPECT_NE(doc.dump().find("wall_ns"), std::string::npos);

  {
    Json bad = doc;
    bad.set("schema", Json::str("plum-bench/3"));
    EXPECT_NE(obs::validate_postmortem(bad), "");
  }
  {
    Json bad = doc;
    bad.set("reason", Json::object());  // expr/file/line/msg all missing
    EXPECT_NE(obs::validate_postmortem(bad), "");
  }
  {
    Json bad = doc;
    bad.set("scope", Json::object());  // capacity/nranks/ranks missing
    EXPECT_NE(obs::validate_postmortem(bad), "");
  }
}

// --------------------------------------------------------------- plum-mem

TEST(Arena, AlignmentAndBumpReuseAfterReset) {
  obs::Arena arena(1024);
  void* a = arena.allocate(3, 1);
  void* b = arena.allocate(8, 8);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % 8, 0u);
  void* c = arena.allocate(16, 16);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(c) % 16, 0u);
  EXPECT_EQ(arena.live_bytes(), 3 + 8 + 16);
  EXPECT_EQ(arena.chunk_count(), 1u);

  // reset() rewinds: the same chunk is handed out again, no new chunk.
  arena.reset();
  EXPECT_EQ(arena.live_bytes(), 0);
  EXPECT_EQ(arena.allocate(3, 1), a);
  EXPECT_EQ(arena.chunk_count(), 1u);
}

TEST(Arena, PeakSurvivesReset) {
  obs::Arena arena(256);
  arena.allocate(100, 8);
  arena.allocate(100, 8);
  EXPECT_EQ(arena.peak_live_bytes(), 200);
  arena.reset();
  EXPECT_EQ(arena.live_bytes(), 0);
  EXPECT_EQ(arena.peak_live_bytes(), 200);
  arena.allocate(50, 8);
  EXPECT_EQ(arena.peak_live_bytes(), 200);  // below the old high water
}

TEST(Arena, OversizedAndOveralignedGetDedicatedBlocksFreedOnReset) {
  obs::Arena arena(128);
  EXPECT_NE(arena.allocate(4096, 8), nullptr);  // > chunk size
  EXPECT_EQ(arena.oversized_count(), 1u);
  void* aligned = arena.allocate(64, 128);  // beyond max_align_t
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(aligned) % 128, 0u);
  EXPECT_EQ(arena.oversized_count(), 2u);
  arena.reset();
  EXPECT_EQ(arena.oversized_count(), 0u);
}

TEST(TrackingAllocator, CountsThroughTapOnArenaAndHeapPaths) {
  obs::MemoryTracker mem(2);
  {
    obs::TrackedVec<std::int64_t> v{
        obs::TrackingAllocator<std::int64_t>{mem.scratch(0)}};
    v.reserve(8);
    EXPECT_EQ(mem.live_bytes(0), 64);
    v.reserve(32);  // reallocation: the old block is returned, same size
    EXPECT_EQ(mem.live_bytes(0), 256);
  }
  // Every deallocate returned what its allocate counted.
  EXPECT_EQ(mem.live_bytes(0), 0);
  EXPECT_EQ(mem.scratch(0)->peak_live_bytes(), 64 + 256);

  // Plain-heap path (no arena bound): no arena is ever touched.
  {
    obs::TrackedVec<std::int64_t> v{obs::TrackingAllocator<std::int64_t>{}};
    v.reserve(8);
    EXPECT_EQ(mem.total_live_bytes(), 0);
  }
  EXPECT_EQ(mem.total_live_bytes(), 0);
  EXPECT_EQ(mem.scratch(1)->peak_live_bytes(), 0);
  EXPECT_EQ(mem.host_scratch()->peak_live_bytes(), 0);
}

TEST(MemoryTrackerDeathTest, ResetArenasAbortsOnLiveScratch) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  obs::MemoryTracker mem(2);
  // Dead scratch rewinds quietly, on rank and host rows alike.
  {
    obs::TrackedVec<char> v(100, 'x',
                            obs::TrackingAllocator<char>{mem.scratch(1)});
    obs::TrackedVec<char> w(40, 'y',
                            obs::TrackingAllocator<char>{mem.host_scratch()});
  }
  mem.reset_arenas();
  // A container alive across the reset would read memory the next cycle
  // hands out again: the reset aborts instead.
  obs::TrackedVec<char> kept(8, 'z',
                             obs::TrackingAllocator<char>{mem.scratch(1)});
  EXPECT_DEATH(mem.reset_arenas(), "outlived its cycle");
}

TEST(TrackingAllocator, RebindSharesSourceAndPropagatesOnMove) {
  obs::MemoryTracker mem(1);
  const obs::TrackingAllocator<std::int64_t> a{mem.scratch(0)};
  const obs::TrackingAllocator<char> rebound(a);  // converting ctor
  EXPECT_TRUE(a == rebound);  // same arena => interchangeable
  const obs::TrackingAllocator<std::int64_t> plain;
  EXPECT_TRUE(a != plain);

  // propagate_on_container_move_assignment: the allocator travels with the
  // storage, so arena-backed contents land intact in a default-allocated
  // destination.
  obs::TrackedVec<std::int64_t> src{
      obs::TrackingAllocator<std::int64_t>{mem.scratch(0)}};
  src.assign(16, 7);
  obs::TrackedVec<std::int64_t> dst;
  dst = std::move(src);
  EXPECT_TRUE(dst.get_allocator() == a);
  ASSERT_EQ(dst.size(), 16u);
  EXPECT_EQ(dst.back(), 7);
}

TEST(ScopeTail, LatestStreamRecordTriState) {
  const std::string rec = valid_scope_record().dump();
  Json out;

  // No bytes at all.
  EXPECT_EQ(obs::latest_stream_record("", &out), obs::TailStatus::kNone);
  EXPECT_EQ(obs::latest_stream_record("\n", &out), obs::TailStatus::kNone);

  // A complete record, with and without newer torn tails.
  EXPECT_EQ(obs::latest_stream_record(rec + "\n", &out),
            obs::TailStatus::kRecord);
  EXPECT_EQ(out.find("cycle")->as_int(), 0);

  Json newer = valid_scope_record();
  newer.set("cycle", Json::integer(3));
  const std::string two = rec + "\n" + newer.dump() + "\n";
  EXPECT_EQ(obs::latest_stream_record(two, &out), obs::TailStatus::kRecord);
  EXPECT_EQ(out.find("cycle")->as_int(), 3);  // newest wins

  // Mid-append tail (no trailing newline): the older complete record is
  // served; the torn bytes are ignored.
  const std::string torn = two + rec.substr(0, rec.size() / 2);
  EXPECT_EQ(obs::latest_stream_record(torn, &out), obs::TailStatus::kRecord);
  EXPECT_EQ(out.find("cycle")->as_int(), 3);

  // Only torn bytes: kPartial (retryable), never kNone and never a parse
  // error escaping.
  EXPECT_EQ(obs::latest_stream_record(rec.substr(0, 20), &out),
            obs::TailStatus::kPartial);
  // A truncated line that happened to end on '\n' (crash mid-write).
  EXPECT_EQ(obs::latest_stream_record(rec.substr(0, 20) + "\n", &out),
            obs::TailStatus::kPartial);
  // Garbage that parses as JSON but is not a scope record.
  EXPECT_EQ(obs::latest_stream_record("{\"schema\":\"nope\"}\n", &out),
            obs::TailStatus::kPartial);
  // Older complete record survives a truncated newline-terminated tail.
  EXPECT_EQ(
      obs::latest_stream_record(two + rec.substr(0, rec.size() / 2) + "\n",
                                &out),
      obs::TailStatus::kRecord);
  EXPECT_EQ(out.find("cycle")->as_int(), 3);
}

TEST(Rss, ParseProcStatusAndReadSelf) {
  const std::string text =
      "Name:\tunit\nVmPeak:\t  999 kB\nVmRSS:\t    1234 kB\nVmHWM:\t2048 "
      "kB\nThreads:\t1\n";
  const auto s = util::parse_proc_status(text);
  EXPECT_EQ(s.vm_rss_bytes, 1234 * 1024);
  EXPECT_EQ(s.vm_hwm_bytes, 2048 * 1024);

  // Missing fields stay zero instead of inventing values.
  EXPECT_EQ(util::parse_proc_status("Name:\tx\n").vm_rss_bytes, 0);

  const auto self = util::read_rss();
  EXPECT_GT(self.vm_rss_bytes, 0);
  EXPECT_GE(self.vm_hwm_bytes, self.vm_rss_bytes);
}

}  // namespace
}  // namespace plum
