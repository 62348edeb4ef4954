// End-to-end tests for the fully distributed framework: the complete Fig. 1
// loop over the BSP substrate, including migration with solution transfer
// and balanced parallel subdivision.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/dist_framework.hpp"
#include "core/framework.hpp"
#include "mesh/box_mesh.hpp"
#include "obs/critical_path.hpp"
#include "obs/gate_audit.hpp"
#include "obs/run_entry.hpp"
#include "obs/scope.hpp"
#include "run_view.hpp"
#include "runtime/engine.hpp"
#include "runtime/transport.hpp"
#include "solver/init_conditions.hpp"
#include "util/stats.hpp"

namespace plum::core {
namespace {

DistFramework make_dist(FrameworkOptions opt, int boxn) {
  auto mesh = mesh::make_box_mesh(mesh::small_box(boxn));
  DistFramework fw(std::move(mesh), opt);
  solver::BlastSpec blast;
  blast.radius = 0.2;
  for (Rank r = 0; r < opt.nranks; ++r) {
    solver::init_blast(fw.dist_mesh().local(r).mesh, fw.solver().solution(r),
                       blast);
  }
  return fw;
}

// Cross-transport determinism at the framework level: encoding every
// payload into frames and decoding it back (framed transport) must leave
// the whole adaption cycle bit-identical — element counts, solution
// fields, the wall-free run entry, the full ledger and the per-row live
// scratch bytes — at a strong-scaling size and at P=64 on a small box.
TEST(DistFramework, FramedTransportCyclesIdenticalToInProc) {
  auto run_cycles = [](rt::TransportKind transport, Rank nranks, int boxn) {
    FrameworkOptions opt;
    opt.nranks = nranks;
    opt.refine_fraction = 0.08;
    opt.imbalance_trigger = 1.02;  // make the remap path fire
    opt.solver_steps_per_cycle = 3;
    opt.transport = transport;
    auto fw = make_dist(opt, boxn);
    std::vector<CycleReport> reps;
    for (int i = 0; i < 2; ++i) reps.push_back(fw.cycle());
    fw.dist_mesh().validate();
    std::vector<std::vector<double>> rho(static_cast<std::size_t>(opt.nranks));
    for (Rank r = 0; r < opt.nranks; ++r) {
      rho[static_cast<std::size_t>(r)] = fw.solver().density_field(r);
    }
    return std::make_tuple(std::move(reps), fw.elements_per_rank(),
                           std::move(rho), test::run_view(fw));
  };

  for (const auto& [nranks, boxn] : {std::pair<Rank, int>{8, 5}, {64, 6}}) {
    SCOPED_TRACE("P=" + std::to_string(nranks));
    const auto inproc = run_cycles(rt::TransportKind::kInProc, nranks, boxn);
    const auto framed = run_cycles(rt::TransportKind::kFramed, nranks, boxn);

    const auto& ri = std::get<0>(inproc);
    const auto& rf = std::get<0>(framed);
    ASSERT_EQ(ri.size(), rf.size());
    for (std::size_t i = 0; i < ri.size(); ++i) {
      EXPECT_EQ(rf[i].elements_before, ri[i].elements_before);
      EXPECT_EQ(rf[i].elements_after, ri[i].elements_after);
      EXPECT_EQ(rf[i].accepted, ri[i].accepted);
      EXPECT_EQ(rf[i].elements_migrated, ri[i].elements_migrated);
      EXPECT_EQ(rf[i].volume.total_elems, ri[i].volume.total_elems);
    }
    EXPECT_EQ(std::get<1>(framed), std::get<1>(inproc));  // elems per rank
    EXPECT_EQ(std::get<2>(framed), std::get<2>(inproc));  // density fields
    const test::RunView& vi = std::get<3>(inproc);
    const test::RunView& vf = std::get<3>(framed);
    EXPECT_EQ(vf.entry, vi.entry);    // wall-free run entry
    EXPECT_EQ(vf.ledger, vi.ledger);  // full ledger
    EXPECT_EQ(vf.live_bytes, vi.live_bytes);  // plum-mem, row by row
    EXPECT_NE(vi.entry.find("\"comm_by_class\""), std::string::npos);
  }
}

// Every rank talks to its SPL peers and to rank 0, and rank 0 to every
// rank, so per-superstep outbox cells and the run's comm-matrix cells stay
// within P(d+1) + P, d the largest SPL peer count over both cycles. One
// all-to-all superstep would take both to P^2 = 4096.
TEST(DistFramework, QueueCellsStayLinearInP) {
  FrameworkOptions opt;
  opt.nranks = 64;
  opt.metric = sim::CostMetric::kTotalV;
  opt.refine_fraction = 0.08;
  opt.imbalance_trigger = 1.05;
  opt.solver_steps_per_cycle = 6;
  auto fw = make_dist(opt, 6);
  std::size_t d = 0;
  const auto sample_peers = [&] {
    for (Rank r = 0; r < opt.nranks; ++r) {
      std::set<Rank> peers;
      for (const auto& [v, spl] : fw.dist_mesh().local(r).shared_verts) {
        for (const auto& c : spl) peers.insert(c.rank);
      }
      d = std::max(d, peers.size());
    }
  };
  sample_peers();
  for (int i = 0; i < 2; ++i) {
    EXPECT_TRUE(fw.cycle().accepted) << "cycle " << i;
    sample_peers();
  }
  const auto P = static_cast<std::size_t>(opt.nranks);
  const std::size_t bound = P * (d + 1) + P;
  EXPECT_GT(d, 0U);
  EXPECT_LE(fw.engine().transport().peak_queue_cells(), bound);
  EXPECT_LE(static_cast<std::size_t>(
                fw.engine().ledger().comm_matrix().resident_cells()),
            bound);
}

TEST(DistFramework, CycleRefinesAndStaysConsistent) {
  FrameworkOptions opt;
  opt.nranks = 4;
  opt.refine_fraction = 0.06;
  opt.solver_steps_per_cycle = 5;
  auto fw = make_dist(opt, 4);
  const auto rep = fw.cycle();
  EXPECT_GT(rep.elements_after, rep.elements_before);
  fw.dist_mesh().validate();
  fw.solver().validate_replication();
}

TEST(DistFramework, AcceptedRemapBalancesSubdivisionWork) {
  FrameworkOptions opt;
  opt.nranks = 8;
  opt.refine_fraction = 0.05;
  opt.imbalance_trigger = 1.10;
  opt.solver_steps_per_cycle = 10;
  auto fw = make_dist(opt, 5);
  const auto rep = fw.cycle();
  if (rep.accepted) {
    EXPECT_GT(rep.elements_migrated, 0);
    EXPECT_LT(rep.imbalance_new, rep.imbalance_old);
    // Achieved element balance after the balanced refinement.
    const auto loads = fw.elements_per_rank();
    EXPECT_LT(imbalance(loads), rep.imbalance_old);
  }
  fw.dist_mesh().validate();
}

TEST(DistFramework, TwoCyclesWithMigrationKeepSolutionPhysical) {
  FrameworkOptions opt;
  opt.nranks = 4;
  opt.refine_fraction = 0.05;
  opt.imbalance_trigger = 1.05;
  opt.solver_steps_per_cycle = 5;
  auto fw = make_dist(opt, 4);
  int accepted = 0;
  for (int i = 0; i < 2; ++i) {
    const auto rep = fw.cycle();
    accepted += rep.accepted;
    fw.dist_mesh().validate();
    fw.solver().validate_replication();
    for (Rank r = 0; r < opt.nranks; ++r) {
      for (const auto& s : fw.solver().solution(r)) {
        ASSERT_GT(s[0], 0.0) << "density lost through cycle " << i;
      }
    }
  }
  // With the aggressive trigger the blast case must remap at least once.
  EXPECT_GE(accepted, 1);
}

// The solve phase runs inside rank supersteps that charge their flux work,
// so the deterministic (counter-sourced) critical path sees it.
TEST(DistFramework, SolvePhaseIsChargedAndOnTheCounterCriticalPath) {
  FrameworkOptions opt;
  opt.nranks = 4;
  opt.refine_fraction = 0.05;
  opt.solver_steps_per_cycle = 3;
  auto fw = make_dist(opt, 4);
  fw.cycle();

  int solve_steps = 0;
  std::int64_t solve_units = 0;
  for (const auto& st : fw.trace().supersteps()) {
    if (st.phase != "solve") continue;
    ++solve_steps;
    for (const auto& c : st.counters) solve_units += c.compute_units;
  }
  EXPECT_EQ(solve_steps, 4 * opt.solver_steps_per_cycle);
  EXPECT_GT(solve_units, 0);

  const auto cp = obs::analyze_critical_path(fw.trace());
  const obs::PhasePath* solve = nullptr;
  for (const auto& ph : cp.phases) {
    if (ph.name == "solve") solve = &ph;
  }
  ASSERT_NE(solve, nullptr);
  EXPECT_EQ(solve->busy, static_cast<double>(solve_units));
  EXPECT_GT(solve->critical, 0.0);
}

// plum-meter acceptance: a >= 4-rank run produces a P x P comm matrix that
// reconciles with the ledger, per-cycle paper-metric gauges, and a gate
// audit whose accepted records carry modeled cost and measured bytes.
TEST(DistFramework, ObservabilityCommMatrixGaugesAndGateAudit) {
  FrameworkOptions opt;
  opt.nranks = 4;
  opt.refine_fraction = 0.05;
  opt.imbalance_trigger = 1.05;
  opt.solver_steps_per_cycle = 5;
  auto fw = make_dist(opt, 4);
  const int cycles = 2;
  int accepted = 0;
  for (int i = 0; i < cycles; ++i) accepted += fw.cycle().accepted;
  ASSERT_GE(accepted, 1);  // same workload as TwoCyclesWithMigration...

  // --- comm matrix reconciles with the ledger ------------------------------
  const rt::Ledger& ledger = fw.engine().ledger();
  const rt::CommMatrix cm = ledger.comm_matrix();
  ASSERT_EQ(cm.nranks, opt.nranks);
  std::vector<std::int64_t> sent(static_cast<std::size_t>(opt.nranks), 0);
  for (const auto& step : ledger.steps) {
    for (Rank r = 0; r < opt.nranks; ++r) {
      sent[static_cast<std::size_t>(r)] +=
          step[static_cast<std::size_t>(r)].bytes_sent;
    }
  }
  std::int64_t row_total = 0;
  std::int64_t col_total = 0;
  for (Rank r = 0; r < opt.nranks; ++r) {
    EXPECT_EQ(cm.row_bytes(r), sent[static_cast<std::size_t>(r)]);
    row_total += cm.row_bytes(r);
    col_total += cm.col_bytes(r);
  }
  EXPECT_EQ(row_total, ledger.total_bytes());
  EXPECT_EQ(col_total, ledger.total_bytes());
  EXPECT_GT(ledger.total_bytes(), 0);
  // The run entry's tag-class split is folded from the same ledger cells:
  // its classes partition the matrix's traffic.
  const obs::Json entry =
      obs::run_entry(fw.trace(), fw.metrics(), &ledger, true);
  const obs::Json* by_class = entry.find("comm_by_class");
  ASSERT_NE(by_class, nullptr);
  EXPECT_GT(by_class->size(), 0u);
  std::int64_t class_msgs = 0;
  std::int64_t class_bytes = 0;
  for (const auto& [cls, t] : by_class->items()) {
    class_msgs += t.find("msgs")->as_int();
    class_bytes += t.find("bytes")->as_int();
  }
  EXPECT_EQ(class_msgs, cm.total_msgs());
  EXPECT_EQ(class_bytes, cm.total_bytes());

  // --- per-cycle gauges: exactly edge_cut and the seven remap_* series,
  //     one sample per cycle; every other number has its own section -------
  const obs::MetricsRegistry& m = fw.metrics();
  const obs::Json gauges = m.to_json();
  std::vector<std::string> names;
  for (const auto& [name, value] : gauges.items()) {
    names.push_back(name);
    ASSERT_TRUE(m.is_series(name)) << name;
    EXPECT_EQ(m.series(name).size(), static_cast<std::size_t>(cycles))
        << name;
  }
  EXPECT_EQ(names, (std::vector<std::string>{
                       "edge_cut", "remap_bottleneck_elems",
                       "remap_bottleneck_sets", "remap_max_recv",
                       "remap_max_sent", "remap_max_sent_or_recv",
                       "remap_total_elems", "remap_total_sets"}));

  // --- gate audit ----------------------------------------------------------
  const auto& gates = fw.trace().gate_records();
  ASSERT_EQ(gates.size(), static_cast<std::size_t>(cycles));
  int audited_accepts = 0;
  for (std::size_t i = 0; i < gates.size(); ++i) {
    const obs::GateRecord& g = gates[i];
    EXPECT_EQ(g.cycle, static_cast<int>(i));
    if (!g.accepted) continue;
    ++audited_accepts;
    EXPECT_TRUE(g.evaluated);
    EXPECT_TRUE(g.metric == "TotalV" || g.metric == "MaxV") << g.metric;
    EXPECT_GT(g.gain_s, g.cost_s);  // the gate's own acceptance condition
    EXPECT_GT(g.predicted_move_bytes, 0);
    EXPECT_GT(g.measured_move_bytes, 0);
    EXPECT_EQ(g.drift,
              obs::gate_drift(g.predicted_move_bytes, g.measured_move_bytes));
  }
  EXPECT_EQ(audited_accepts, accepted);
}

// plum-scope: the always-on flight recorder fills one ring per rank, the
// scope stream appends exactly one validating plum-scope/1 NDJSON record
// per cycle, and the recorder's deterministic view is transport-invariant.
TEST(DistFramework, ScopeStreamWritesOneValidatedRecordPerCycle) {
  const std::string stream =
      ::testing::TempDir() + "dist_scope_stream.ndjson";
  std::remove(stream.c_str());

  FrameworkOptions opt;
  opt.nranks = 4;
  opt.refine_fraction = 0.05;
  opt.imbalance_trigger = 1.05;
  opt.solver_steps_per_cycle = 5;
  opt.scope_name = "stream_unit";
  opt.scope_stream = stream;
  const int cycles = 3;
  std::string scope_det;
  std::vector<obs::GateRecord> gates;
  {
    auto fw = make_dist(opt, 4);
    for (int i = 0; i < cycles; ++i) fw.cycle();
    // The engine fed the ring: every rank recorded every superstep.
    const auto steps =
        static_cast<std::uint64_t>(fw.trace().supersteps().size());
    ASSERT_GT(steps, 0u);
    for (Rank r = 0; r < opt.nranks; ++r) {
      EXPECT_EQ(fw.scope().events_recorded(r), steps) << "rank " << r;
    }
    EXPECT_FALSE(fw.scope().phase_names().empty());
    scope_det = fw.scope().deterministic_json().dump();
    gates = fw.trace().gate_records();
  }

  std::ifstream in(stream);
  ASSERT_TRUE(in.good());
  std::string line;
  int n = 0;
  std::int64_t busy_total = 0;
  while (std::getline(in, line)) {
    obs::Json rec;
    std::string err;
    ASSERT_TRUE(obs::Json::parse(line, &rec, &err)) << err;
    ASSERT_EQ(obs::validate_scope_record(rec), "") << line;
    EXPECT_EQ(rec.find("name")->as_string(), "stream_unit");
    EXPECT_EQ(rec.find("cycle")->as_int(), n);
    // The imbalance of the partition in force after this cycle's gate.
    ASSERT_LT(static_cast<std::size_t>(n), gates.size());
    const obs::GateRecord& g = gates[static_cast<std::size_t>(n)];
    EXPECT_EQ(rec.find("imbalance")->as_double(),
              g.accepted ? g.imbalance_new : g.imbalance_old)
        << "cycle " << n;
    const obs::Json* ranks = rec.find("ranks");
    ASSERT_EQ(ranks->size(), static_cast<std::size_t>(opt.nranks));
    for (std::size_t r = 0; r < ranks->size(); ++r) {
      busy_total += ranks->at(r).find("busy")->as_int();
    }
    ++n;
  }
  EXPECT_EQ(n, cycles);
  EXPECT_GT(busy_total, 0);
  std::remove(stream.c_str());

  // Same workload over the framed transport: identical deterministic rings.
  FrameworkOptions fopt = opt;
  fopt.scope_stream.clear();
  fopt.transport = rt::TransportKind::kFramed;
  auto ffw = make_dist(fopt, 4);
  for (int i = 0; i < cycles; ++i) ffw.cycle();
  EXPECT_EQ(ffw.scope().deterministic_json().dump(), scope_det);
}

/// Drops one holder from the first 3-holder vertex SPL and validates: only
/// DistMesh::validate's holder-set check can catch it, so this aborts with
/// "vertex SPL holder sets differ".
void break_vertex_spl(pmesh::DistMesh& dm) {
  for (Rank r = 0; r < dm.nranks(); ++r) {
    for (auto& [lid, spl] : dm.local(r).shared_verts) {
      if (spl.size() == 2) {
        spl.pop_back();
        dm.validate();
        return;
      }
    }
  }
}

// A failed PLUM_ASSERT mid-run must leave a validating plum-postmortem/1
// document behind: the assertion's message and >= 1 ring event for every
// rank. The failure is a real invariant check: one holder dropped from a
// 3-holder vertex's SPL, which only DistMesh::validate's holder-set check
// can catch.
TEST(DistFrameworkDeathTest, FailedAssertWritesValidatingPostmortem) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string dir = ::testing::TempDir();
  const std::string pm_path = dir + "POSTMORTEM_death_unit.json";
  std::remove(pm_path.c_str());
  ASSERT_EQ(setenv("PLUM_BENCH_JSON_DIR", dir.c_str(), 1), 0);

  EXPECT_DEATH(
      {
        FrameworkOptions opt;
        opt.nranks = 4;
        opt.refine_fraction = 0.05;
        opt.imbalance_trigger = 1.05;
        opt.solver_steps_per_cycle = 3;
        opt.scope_name = "death_unit";
        auto fw = make_dist(opt, 4);
        fw.cycle();  // populate the rings before the failure
        break_vertex_spl(fw.dist_mesh());
      },
      "vertex SPL holder sets differ");
  ASSERT_EQ(unsetenv("PLUM_BENCH_JSON_DIR"), 0);

  std::ifstream in(pm_path);
  ASSERT_TRUE(in.good()) << "death run left no " << pm_path;
  std::ostringstream buf;
  buf << in.rdbuf();
  obs::Json doc;
  std::string err;
  ASSERT_TRUE(obs::Json::parse(buf.str(), &doc, &err)) << err;
  ASSERT_EQ(obs::validate_postmortem(doc), "");
  EXPECT_EQ(doc.find("name")->as_string(), "death_unit");
  EXPECT_NE(doc.find("reason")->find("msg")->as_string().find(
                "vertex SPL holder sets differ"),
            std::string::npos);
  // Every rank kept flight-recorder evidence of the run that failed.
  const obs::Json* scope = doc.find("scope");
  ASSERT_NE(scope, nullptr);
  const obs::Json* ranks = scope->find("ranks");
  ASSERT_EQ(ranks->size(), 4u);
  for (std::size_t r = 0; r < ranks->size(); ++r) {
    EXPECT_GE(ranks->at(r).find("events")->size(), 1u) << "rank " << r;
  }
  std::remove(pm_path.c_str());
}

// Destroying one framework must not silence another's postmortem: the
// abort hook belongs to the newest framework, so the older one's destructor
// leaves it alone. pm_a runs 2 ranks and pm_b 4, so the dumped ring shows
// whose recorder the hook flushed.
TEST(DistFrameworkDeathTest, DestroyingAnotherFrameworkKeepsThePostmortem) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string dir = ::testing::TempDir();
  const std::string pm_path = dir + "POSTMORTEM_pm_b.json";
  std::remove(pm_path.c_str());
  ASSERT_EQ(setenv("PLUM_BENCH_JSON_DIR", dir.c_str(), 1), 0);

  EXPECT_DEATH(
      {
        FrameworkOptions opt;
        opt.nranks = 2;
        opt.scope_name = "pm_a";
        auto pm_a = std::make_unique<DistFramework>(
            mesh::make_box_mesh(mesh::small_box(4)), opt);
        opt.nranks = 4;
        opt.scope_name = "pm_b";
        auto pm_b = make_dist(opt, 4);
        pm_a.reset();
        break_vertex_spl(pm_b.dist_mesh());
      },
      "vertex SPL holder sets differ");
  ASSERT_EQ(unsetenv("PLUM_BENCH_JSON_DIR"), 0);

  std::ifstream in(pm_path);
  ASSERT_TRUE(in.good()) << "death run left no " << pm_path;
  std::ostringstream buf;
  buf << in.rdbuf();
  obs::Json doc;
  std::string err;
  ASSERT_TRUE(obs::Json::parse(buf.str(), &doc, &err)) << err;
  ASSERT_EQ(obs::validate_postmortem(doc), "");
  EXPECT_EQ(doc.find("name")->as_string(), "pm_b");
  EXPECT_EQ(doc.find("scope")->find("ranks")->size(), 4u);
  std::remove(pm_path.c_str());
}

// The serial Framework is an exact oracle for DistFramework: both drivers
// share the balancer, the marking rule and the cycle log, so on the same
// flow field every decision agrees — element counts, gate records and root
// partitions, with remap and coarsening on, across mappers, F, metrics and
// remap before/after subdivision.
// The two flow solvers agree to 1e-10 rather than bitwise (the parallel one
// sums shared-vertex residuals in rank order), so the oracle holds the flow
// field fixed: zero solver steps on a smooth pulse, which refinement
// interpolates identically in both drivers.
TEST(DistFramework, MatchesSerialFrameworkExactly) {
  struct Variant {
    MapperKind mapper;
    Rank f;
    sim::CostMetric metric;
    double alpha;
    bool remap_before;
  };
  const Variant variants[] = {
      {MapperKind::kHeuristicGreedy, 1, sim::CostMetric::kTotalV, 1.0, true},
      {MapperKind::kOptimalMwbg, 2, sim::CostMetric::kTotalV, 1.0, true},
      {MapperKind::kOptimalBmcm, 1, sim::CostMetric::kMaxV, 2.0, true},
      {MapperKind::kHeuristicGreedy, 1, sim::CostMetric::kTotalV, 1.0, false},
  };
  solver::PulseSpec pulse;
  pulse.center = {0.3, 0.45, 0.55};
  pulse.width = 0.25;
  int accepted = 0;
  int coarsened = 0;
  for (const Variant& var : variants) {
    for (const Rank P : {1, 2, 4, 8}) {
      SCOPED_TRACE(testing::Message()
                   << "P=" << P << " F=" << var.f
                   << " mapper=" << static_cast<int>(var.mapper)
                   << " remap_before=" << var.remap_before);
      FrameworkOptions opt;
      opt.nranks = P;
      opt.partitions_per_proc = var.f;
      opt.mapper = var.mapper;
      opt.metric = var.metric;
      opt.machine.alpha = var.alpha;
      opt.remap_before_subdivision = var.remap_before;
      opt.refine_fraction = 0.1;
      opt.coarsen_fraction = 0.3;
      opt.imbalance_trigger = 1.02;
      opt.solver_steps_per_cycle = 0;

      Framework serial(mesh::make_box_mesh(mesh::small_box(4)), opt);
      solver::init_pulse(serial.mesh(), serial.solver().solution(), pulse);
      DistFramework dist(mesh::make_box_mesh(mesh::small_box(4)), opt);
      for (Rank r = 0; r < P; ++r) {
        solver::init_pulse(dist.dist_mesh().local(r).mesh,
                           dist.solver().solution(r), pulse);
      }
      ASSERT_EQ(dist.root_partition(), serial.root_partition());

      for (int c = 0; c < 3; ++c) {
        SCOPED_TRACE(testing::Message() << "cycle " << c);
        const CycleReport s = serial.cycle();
        const CycleReport d = dist.cycle();
        dist.dist_mesh().validate();
        EXPECT_EQ(d.elements_before, s.elements_before);
        EXPECT_EQ(d.elements_coarsened, s.elements_coarsened);
        EXPECT_EQ(d.elements_after, s.elements_after);
        EXPECT_EQ(d.evaluated_repartition, s.evaluated_repartition);
        EXPECT_EQ(d.accepted, s.accepted);
        EXPECT_EQ(d.used_previous_partition, s.used_previous_partition);
        EXPECT_EQ(d.imbalance_old, s.imbalance_old);
        EXPECT_EQ(d.imbalance_new, s.imbalance_new);
        EXPECT_EQ(d.wmax_old, s.wmax_old);
        EXPECT_EQ(d.wmax_new, s.wmax_new);
        EXPECT_EQ(d.gain_seconds, s.gain_seconds);
        EXPECT_EQ(d.cost_seconds, s.cost_seconds);
        EXPECT_EQ(remap::volume_fields(d.volume),
                  remap::volume_fields(s.volume));
        EXPECT_EQ(d.elements_migrated, s.elements_migrated);
        EXPECT_EQ(d.refine_work_per_rank, s.refine_work_per_rank);
        ASSERT_EQ(dist.root_partition(), serial.root_partition());
        accepted += s.accepted;
        coarsened += s.elements_coarsened > 0;
      }
      // Gate records agree up to what each driver measures of the move (the
      // serial driver prices its in-memory ownership change, the
      // distributed one counts the bytes its migration sent).
      auto gs = serial.trace().gate_records();
      auto gd = dist.trace().gate_records();
      ASSERT_EQ(gd.size(), gs.size());
      for (std::size_t i = 0; i < gs.size(); ++i) {
        gs[i].measured_move_bytes = gd[i].measured_move_bytes = 0;
        gs[i].drift = gd[i].drift = 0;
        EXPECT_EQ(gd[i], gs[i]) << "gate record " << i;
      }
    }
  }
  // The sweep exercises what it claims to: remaps and coarsening happen.
  EXPECT_GE(accepted, 25);
  EXPECT_GE(coarsened, 25);
}

// Both drivers reject an option neither can honour in the same way.
TEST(DistFrameworkDeathTest, BothDriversRejectOptionsNeitherCanHonour) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const auto expect_both_reject = [](const FrameworkOptions& opt,
                                     const char* why) {
    EXPECT_DEATH(Framework(mesh::make_box_mesh(mesh::small_box(2)), opt),
                 why);
    EXPECT_DEATH(DistFramework(mesh::make_box_mesh(mesh::small_box(2)), opt),
                 why);
  };
  FrameworkOptions base;
  base.nranks = 2;
  {
    FrameworkOptions opt = base;
    opt.partitions_per_proc = 2;
    opt.mapper = MapperKind::kOptimalBmcm;
    expect_both_reject(opt, "BMCM mapper needs partitions_per_proc == 1");
  }
  {
    FrameworkOptions opt = base;
    opt.calibration.enabled = true;
    expect_both_reject(opt, "calibration is an inert stub");
  }
  {
    FrameworkOptions opt = base;
    opt.replay_path = "book.json";
    expect_both_reject(opt, "replay_path is an inert stub");
  }
  {
    // A stream that cannot be opened fails the run instead of dropping
    // every record.
    FrameworkOptions opt = base;
    opt.scope_stream = ::testing::TempDir() + "no_such_dir/scope.ndjson";
    expect_both_reject(opt, "scope stream file cannot be opened");
  }
}

TEST(DistFramework, CoarseningPhaseRuns) {
  FrameworkOptions opt;
  opt.nranks = 3;
  opt.refine_fraction = 0.06;
  opt.coarsen_fraction = 0.4;
  opt.solver_steps_per_cycle = 4;
  auto fw = make_dist(opt, 3);
  fw.cycle();  // grow
  // Coarsen quiet regions + refine the front, over several cycles (the
  // re-refinement after coarsening must restore a conforming mesh, or the
  // next rebuild of the distributed mesh breaks).
  for (int c = 0; c < 4; ++c) {
    const auto rep = fw.cycle();
    fw.dist_mesh().validate();
    fw.solver().validate_replication();
    EXPECT_GT(rep.elements_after, 0);
  }
  for (Rank r = 0; r < opt.nranks; ++r) {
    for (const auto& s : fw.solver().solution(r)) EXPECT_GT(s[0], 0.0);
  }
}

}  // namespace
}  // namespace plum::core
