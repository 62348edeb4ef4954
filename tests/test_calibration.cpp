// sim::Calibration and the deterministic replay loop (plum-replay/1).
//
// The Calibration suite exercises the estimator in isolation: byte/timing
// fits converging on synthetic drift, gate-margin tracking and clamping,
// Wcomp blend factors, and the disabled no-op contract.
//
// The PlumReplay suite drives the real frameworks: a recorded timing book
// fed back through FrameworkOptions::replay_path must make the whole
// calibration control loop bit-exact across engines and thread counts, and
// replayed calibration must reduce the gate's predicted-vs-measured byte
// drift against the static SP2 constants (the ISSUE's acceptance
// criterion).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include "core/dist_framework.hpp"
#include "mesh/box_mesh.hpp"
#include "obs/gate_audit.hpp"
#include "pmesh/migrate.hpp"
#include "sim/calibration.hpp"
#include "solver/init_conditions.hpp"

namespace plum::sim {
namespace {

// --- estimator unit tests ---------------------------------------------------

CalibrationSample byte_sample(std::int64_t elems, std::int64_t sets,
                              std::int64_t predicted, std::int64_t measured) {
  CalibrationSample s;
  s.remap_executed = true;
  s.moved_elems = elems;
  s.moved_sets = sets;
  s.predicted_move_bytes = predicted;
  s.measured_move_bytes = measured;
  return s;
}

/// Bytes a "true" machine would send for (elems, sets).
std::int64_t true_bytes(const MachineParams& truth, std::int64_t elems,
                        std::int64_t sets) {
  return std::llround(
      CostModel(truth).move_bytes_per_element() *
          static_cast<double>(elems) +
      truth.bytes_per_set * static_cast<double>(sets));
}

TEST(Calibration, DisabledObserveIsANoOp) {
  Calibration calib;  // options().enabled defaults to false
  const MachineParams before = calib.params();
  calib.observe(byte_sample(100, 10, 1000, 9000));
  EXPECT_EQ(calib.cycles_observed(), 0);
  EXPECT_EQ(calib.remap_samples(), 0);
  EXPECT_EQ(calib.params().bytes_per_set, before.bytes_per_set);
  EXPECT_EQ(calib.params().gate_margin, before.gate_margin);
}

TEST(Calibration, BytesPerSetDefaultPinsMigrateFraming) {
  // The cost model's default per-set byte overhead mirrors the header every
  // pmesh::migrate pack carries per (sender, dest) element set; if one
  // side changes, predicted-vs-measured drift becomes structural.
  EXPECT_EQ(MachineParams{}.bytes_per_set,
            static_cast<double>(pmesh::kPackHeaderBytes));
}

TEST(Calibration, ByteFitConvergesMonotonicallyOnSyntheticDrift) {
  // Truth machine: 25% heavier element payload, doubled per-set framing.
  MachineParams truth;
  truth.bytes_per_element =
      static_cast<double>(truth.words_per_element) * 8.0 * 1.25;
  truth.bytes_per_set *= 2.0;

  CalibrationOptions opt;
  opt.enabled = true;
  opt.fit_timings = false;
  Calibration calib(MachineParams{}, opt);

  // Varying regressors so the 2-regressor least squares is well posed.
  const std::vector<std::pair<std::int64_t, std::int64_t>> moves = {
      {400, 12}, {900, 40}, {250, 6}, {1300, 55}, {700, 21}, {1800, 90}};
  double prev = 1e30;
  std::vector<double> drifts;
  for (const auto& [elems, sets] : moves) {
    auto s = byte_sample(elems, sets, calib.predicted_bytes(elems, sets),
                         true_bytes(truth, elems, sets));
    calib.observe(s);
    const double d = calib.recalibrated_abs_drift(s);
    drifts.push_back(d);
    // Monotone within a small tolerance: each damped update moves the
    // constants toward the noise-free truth.
    EXPECT_LE(d, prev + 1e-9) << "drift regressed at sample "
                              << drifts.size();
    prev = d;
  }
  EXPECT_LT(drifts.back(), 0.01);  // converged to <1% on the last move
  EXPECT_GT(drifts.front(), 0.10);  // started with real model error
  EXPECT_NEAR(CostModel(calib.params()).move_bytes_per_element(),
              truth.bytes_per_element, truth.bytes_per_element * 0.05);
  EXPECT_NEAR(calib.params().bytes_per_set, truth.bytes_per_set,
              truth.bytes_per_set * 0.10);
}

TEST(Calibration, TimingFitsConvergeToTruthConstants) {
  MachineParams truth;
  truth.t_iter = 130e-6;    // 2x the SP2 default
  truth.t_refine = 95e-6;   // 0.5x
  truth.t_lat = 4.8e-6;     // 2x
  truth.t_setup = 160e-6;   // 2x

  CalibrationOptions opt;
  opt.enabled = true;
  opt.fit_bytes = false;
  opt.tune_gate_margin = false;
  Calibration calib(MachineParams{}, opt);

  const std::vector<std::tuple<std::int64_t, std::int64_t, std::int64_t,
                               std::int64_t>>
      cycles = {{5000, 800, 400, 12}, {7000, 1200, 900, 40},
                {4000, 600, 250, 6},  {9000, 1500, 1300, 55},
                {6000, 900, 700, 21}, {8000, 1300, 1800, 90}};
  for (const auto& [work, children, elems, sets] : cycles) {
    CalibrationSample s;
    s.solve_work = work;
    s.refine_children = children;
    s.solve_seconds = truth.t_iter * static_cast<double>(work);
    s.subdivide_seconds = truth.t_refine * static_cast<double>(children);
    s.remap_executed = true;
    s.moved_elems = elems;
    s.moved_sets = sets;
    s.remap_seconds =
        static_cast<double>(truth.words_per_element) *
            static_cast<double>(elems) * truth.t_lat +
        static_cast<double>(sets) * truth.t_setup;
    calib.observe(s);
  }
  EXPECT_NEAR(calib.params().t_iter, truth.t_iter, truth.t_iter * 0.05);
  EXPECT_NEAR(calib.params().t_refine, truth.t_refine,
              truth.t_refine * 0.05);
  EXPECT_NEAR(calib.params().t_lat, truth.t_lat, truth.t_lat * 0.10);
  EXPECT_NEAR(calib.params().t_setup, truth.t_setup, truth.t_setup * 0.10);
}

TEST(Calibration, GateMarginTracksRealizedRatioAndClamps) {
  CalibrationOptions opt;
  opt.enabled = true;
  opt.fit_timings = false;
  opt.fit_bytes = false;  // keep predictions static so the ratio stays 3x
  opt.max_gate_margin = 2.0;
  Calibration calib(MachineParams{}, opt);
  for (int i = 0; i < 12; ++i) {
    calib.observe(byte_sample(100, 4, 1000, 3000));
  }
  // EWMA toward 3.0, clamped at the configured max.
  EXPECT_DOUBLE_EQ(calib.params().gate_margin, 2.0);

  Calibration under(MachineParams{}, opt);
  for (int i = 0; i < 12; ++i) {
    under.observe(byte_sample(100, 4, 1000, 100));  // 10x overprediction
  }
  EXPECT_DOUBLE_EQ(under.params().gate_margin, opt.min_gate_margin);

  // A calibrated margin gates the accept decision: same gain/cost, higher
  // margin, flipped verdict.
  MachineParams strict;
  strict.gate_margin = 2.0;
  EXPECT_TRUE(CostModel(MachineParams{}).accept_remap(1.5, 1.0));
  EXPECT_FALSE(CostModel(strict).accept_remap(1.5, 1.0));
}

TEST(Calibration, WeightBlendingScalesSlowRanksAndClamps) {
  CalibrationOptions opt;
  opt.enabled = true;
  opt.blend_measured_weights = true;
  opt.damping = 1.0;  // undamped so one sample fully determines the scale
  opt.max_weight_scale = 2.0;
  Calibration calib(MachineParams{}, opt);

  CalibrationSample s;
  // Rank 1 is 3x slower per element, rank 2 pathologically 10x faster.
  s.rank_elements = {100, 100, 100};
  s.rank_solve_seconds = {1.0, 3.0, 0.1};
  calib.observe(s);
  const auto& scale = calib.rank_weight_scale();
  ASSERT_EQ(scale.size(), 3u);
  const double mean_per_elem = (1.0 + 3.0 + 0.1) / 300.0;
  EXPECT_NEAR(scale[0], (1.0 / 100.0) / mean_per_elem, 1e-12);
  EXPECT_NEAR(scale[1], 2.0, 1e-12);  // 3x slower, clamped to max 2.0
  EXPECT_NEAR(scale[2], 0.5, 1e-12);  // clamped to 1/max

  // blend_weights keys by owner, rounds to integer Weight, floors at 1.
  std::vector<Weight> wcomp = {10, 10, 10, 1};
  const std::vector<Rank> owner = {0, 1, 2, 2};
  blend_weights(wcomp, owner, scale);
  EXPECT_EQ(wcomp[1], 20);
  EXPECT_EQ(wcomp[2], 5);
  EXPECT_EQ(wcomp[3], 1);  // 1 * 0.5 rounds to 1 via the floor

  std::vector<Weight> untouched = {7, 7};
  blend_weights(untouched, {0, 1}, {});
  EXPECT_EQ(untouched, (std::vector<Weight>{7, 7}));
}

TEST(Calibration, ToJsonCarriesScopeAndDeterministicParams) {
  CalibrationOptions opt;
  opt.enabled = true;
  opt.fit_timings = false;
  Calibration calib(MachineParams{}, opt);
  calib.observe(byte_sample(500, 20, calib.predicted_bytes(500, 20),
                            true_bytes(MachineParams{}, 500, 20) * 2));
  const obs::Json doc = calib.to_json();
  EXPECT_EQ(doc.find("schema")->as_string(), "plum-calibration/1");
  EXPECT_EQ(doc.find("cycles_observed")->as_int(), 1);
  EXPECT_EQ(doc.find("remap_samples")->as_int(), 1);
  EXPECT_GT(doc.find("mean_abs_drift")->as_double(), 0.5);
  const obs::Json* params = doc.find("params");
  ASSERT_NE(params, nullptr);
  for (const char* field : {"t_iter", "t_refine", "t_lat", "t_setup",
                            "bytes_per_element", "bytes_per_set",
                            "gate_margin"}) {
    EXPECT_NE(params->find(field), nullptr) << field;
  }
}

// --- replay book ------------------------------------------------------------

TEST(PlumReplay, BookRoundTripsThroughDiskByteIdentically) {
  sim::ReplayBook book;
  for (int i = 0; i < 3; ++i) {
    ReplayCycle c;
    c.solve_seconds = 0.001 * (i + 1);
    c.remap_seconds = 0.0005 * (i + 1);
    c.subdivide_seconds = 0.002 * (i + 1);
    if (i != 1) c.rank_solve_seconds = {0.0001, 0.0002, 0.0003};
    book.cycles.push_back(c);
  }
  const std::string path =
      testing::TempDir() + "/plum_replay_roundtrip.json";
  ASSERT_TRUE(book.save(path));
  ReplayBook loaded;
  std::string err;
  ASSERT_TRUE(ReplayBook::load(path, &loaded, &err)) << err;
  EXPECT_EQ(loaded.to_json().dump(), book.to_json().dump());
  std::remove(path.c_str());
}

TEST(PlumReplay, ParseRejectsMalformedBooks) {
  ReplayBook out;
  std::string err;
  obs::Json doc;
  ASSERT_TRUE(obs::Json::parse(R"({"schema":"plum-replay/2","cycles":[]})",
                               &doc, &err));
  EXPECT_FALSE(ReplayBook::parse(doc, &out, &err));
  EXPECT_NE(err.find("schema"), std::string::npos);

  ASSERT_TRUE(obs::Json::parse(
      R"({"schema":"plum-replay/1","cycles":[{"solve_seconds":-1}]})", &doc,
      &err));
  EXPECT_FALSE(ReplayBook::parse(doc, &out, &err));

  ASSERT_TRUE(obs::Json::parse(
      R"({"schema":"plum-replay/1","cycles":[{"rank_solve_seconds":[1,"x"]}]})",
      &doc, &err));
  EXPECT_FALSE(ReplayBook::parse(doc, &out, &err));

  ASSERT_TRUE(obs::Json::parse(R"({"schema":"plum-replay/1"})", &doc, &err));
  EXPECT_FALSE(ReplayBook::parse(doc, &out, &err));
}

TEST(PlumReplay, FixtureBookLoads) {
  ReplayBook book;
  std::string err;
  ASSERT_TRUE(ReplayBook::load(
      std::string(PLUM_REPLAY_FIXTURE_DIR) + "/book_small.json", &book, &err))
      << err;
  ASSERT_EQ(book.cycles.size(), 3u);
  EXPECT_DOUBLE_EQ(book.cycles[0].solve_seconds, 0.0024);
  EXPECT_EQ(book.cycles[2].rank_solve_seconds.size(), 8u);
}

// --- framework replay loop --------------------------------------------------

core::DistFramework make_dist(core::FrameworkOptions opt, int boxn) {
  auto mesh = mesh::make_box_mesh(mesh::small_box(boxn));
  core::DistFramework fw(std::move(mesh), opt);
  solver::BlastSpec blast;
  blast.radius = 0.2;
  for (Rank r = 0; r < opt.nranks; ++r) {
    solver::init_blast(fw.dist_mesh().local(r).mesh, fw.solver().solution(r),
                       blast);
  }
  return fw;
}

/// Options that reliably produce accepted remaps in consecutive cycles
/// (mirrors test_dist_framework's transport determinism setup).
core::FrameworkOptions remap_heavy_options() {
  core::FrameworkOptions opt;
  opt.nranks = 8;
  opt.refine_fraction = 0.08;
  opt.imbalance_trigger = 1.02;
  opt.solver_steps_per_cycle = 3;
  return opt;
}

TEST(PlumReplay, CalibrationIsByteIdenticalAcrossEnginesAndThreads) {
  // Full fits on: under replay every calibrated constant is a pure function
  // of the book and the deterministic counters, so the sequential Engine
  // (threads = 1) and the ParallelEngine (threads = 2, 4) must agree to the
  // byte — calibration document, deterministic trace view (which embeds the
  // calibration section), metrics gauges, and the re-recorded book shape.
  auto run = [](int threads) {
    core::FrameworkOptions opt = remap_heavy_options();
    opt.threads = threads;
    opt.replay_path =
        std::string(PLUM_REPLAY_FIXTURE_DIR) + "/book_small.json";
    opt.calibration.blend_measured_weights = true;
    auto fw = make_dist(opt, 5);
    for (int i = 0; i < 3; ++i) fw.cycle();
    return std::make_tuple(fw.calibration().to_json().dump(),
                           fw.trace().deterministic_json(),
                           fw.metrics().deterministic_json().dump(),
                           fw.replay_log().cycles.size());
  };
  const auto seq = run(1);
  const auto par2 = run(2);
  const auto par4 = run(4);
  EXPECT_EQ(std::get<0>(seq), std::get<0>(par2));
  EXPECT_EQ(std::get<0>(seq), std::get<0>(par4));
  EXPECT_EQ(std::get<1>(seq), std::get<1>(par2));
  EXPECT_EQ(std::get<1>(seq), std::get<1>(par4));
  EXPECT_EQ(std::get<2>(seq), std::get<2>(par2));
  EXPECT_EQ(std::get<2>(seq), std::get<2>(par4));
  EXPECT_EQ(std::get<3>(seq), 3u);
  EXPECT_EQ(std::get<3>(par4), 3u);

  // The replayed calibration actually moved: the solve constant follows the
  // book's seconds, not the SP2 default.
  EXPECT_GT(std::get<0>(seq).size(), 0u);
  EXPECT_NE(std::get<0>(seq).find("plum-calibration/1"), std::string::npos);
}

TEST(PlumReplay, ReplayedCalibrationReducesMeanAbsGateDrift) {
  // Pass 1: static constants. Record the timing book and the gate's
  // decision-time |drift| on every accepted remap.
  core::FrameworkOptions opt = remap_heavy_options();
  auto fw_static = make_dist(opt, 5);
  for (int i = 0; i < 3; ++i) fw_static.cycle();

  double static_sum = 0;
  int static_n = 0;
  for (const auto& rec : fw_static.trace().gate_records()) {
    if (!rec.evaluated || !rec.accepted) continue;
    static_sum += std::fabs(rec.drift);
    ++static_n;
  }
  ASSERT_GE(static_n, 2) << "scenario must accept remaps in >= 2 cycles";
  const double static_mean = static_sum / static_n;

  const std::string book_path =
      testing::TempDir() + "/plum_replay_recorded.json";
  ASSERT_TRUE(fw_static.replay_log().save(book_path));

  // Pass 2: replay the recorded book with only the byte fit active, so the
  // gate's gain/cost arithmetic — and therefore the accept decisions and
  // migrations — are identical to pass 1, while the byte predictions
  // recalibrate after every accepted remap.
  core::FrameworkOptions ropt = remap_heavy_options();
  ropt.replay_path = book_path;
  ropt.calibration.fit_timings = false;
  ropt.calibration.tune_gate_margin = false;
  auto fw_replay = make_dist(ropt, 5);
  for (int i = 0; i < 3; ++i) fw_replay.cycle();

  double replay_sum = 0;
  int replay_n = 0;
  for (const auto& rec : fw_replay.trace().gate_records()) {
    if (!rec.evaluated || !rec.accepted) continue;
    replay_sum += std::fabs(rec.drift);
    ++replay_n;
  }
  ASSERT_EQ(replay_n, static_n)
      << "byte-only calibration must not change gate decisions";
  const double replay_mean = replay_sum / replay_n;

  EXPECT_LT(replay_mean, static_mean)
      << "calibrated byte predictions must reduce mean |gate_drift|";
  EXPECT_EQ(fw_replay.calibration().remap_samples(), replay_n);
  std::remove(book_path.c_str());
}

TEST(PlumReplay, BookShorterThanRunStillCalibratesBytes) {
  // Replay past the end of the book: timing evidence stops, but the
  // counter-sourced byte fit keeps observing every cycle.
  sim::ReplayBook one;
  one.cycles.push_back({0.001, 0.0005, 0.002, {}});
  const std::string path = testing::TempDir() + "/plum_replay_short.json";
  ASSERT_TRUE(one.save(path));

  core::FrameworkOptions opt = remap_heavy_options();
  opt.replay_path = path;
  auto fw = make_dist(opt, 5);
  for (int i = 0; i < 2; ++i) fw.cycle();
  EXPECT_EQ(fw.calibration().cycles_observed(), 2);
  EXPECT_EQ(fw.replay_log().cycles.size(), 2u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace plum::sim
