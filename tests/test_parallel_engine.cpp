// Cross-engine determinism: the ParallelEngine must reproduce the
// sequential Engine bit-for-bit — identical message delivery (content and
// order), identical StepCounters ledgers, identical floating-point results
// — on representative workloads: a raw message storm, the collectives, a
// parallel solver sweep, subtree migration (the remap data-movement path),
// and full adaption cycles through DistFramework.

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "core/dist_framework.hpp"
#include "obs/memory.hpp"
#include "obs/metrics.hpp"
#include "obs/run_entry.hpp"
#include "obs/scope.hpp"
#include "obs/trace.hpp"
#include "mesh/box_mesh.hpp"
#include "partition/multilevel.hpp"
#include "pmesh/dist_mesh.hpp"
#include "pmesh/migrate.hpp"
#include "pmesh/parallel_adapt.hpp"
#include "pmesh/parallel_solver.hpp"
#include "run_view.hpp"
#include "runtime/collectives.hpp"
#include "runtime/engine.hpp"
#include "solver/init_conditions.hpp"
#include "util/rng.hpp"

namespace plum {
namespace {

using rt::Engine;
using rt::Inbox;
using rt::Outbox;
using rt::ParallelEngine;

/// One rank's observation of one delivered message.
struct Delivery {
  int step;
  Rank to;
  Rank from;
  int tag;
  std::vector<std::byte> bytes;

  friend bool operator==(const Delivery&, const Delivery&) = default;
};

/// Runs a message storm: every rank sends a rank-seeded pseudo-random batch
/// of messages each superstep, and records everything it receives into its
/// own trace slot (rank-safe). Returns the per-rank traces.
std::vector<std::vector<Delivery>> run_storm(Engine& eng, int steps) {
  const Rank p = eng.nranks();
  std::vector<std::vector<Delivery>> trace(static_cast<std::size_t>(p));
  eng.run([&](Rank r, const Inbox& in, Outbox& out) {
    for (const auto& m : in.messages()) {
      trace[static_cast<std::size_t>(r)].push_back(
          {out.step(), r, m.from, m.tag, m.bytes});
    }
    if (out.step() >= steps) return false;
    // Seeded by (rank, step): both engines generate the identical sends.
    Rng rng(static_cast<std::uint64_t>(r) * 7919 +
            static_cast<std::uint64_t>(out.step()) * 104729 + 1);
    const int nsend = static_cast<int>(rng.below(4));
    for (int k = 0; k < nsend; ++k) {
      const Rank to = static_cast<Rank>(rng.below(static_cast<std::uint64_t>(p)));
      const int tag = static_cast<int>(rng.below(3));
      std::vector<std::int32_t> payload(rng.below(16) + 1);
      for (auto& v : payload) v = static_cast<std::int32_t>(rng.next());
      out.send_vec(to, tag, payload);
    }
    out.charge(static_cast<std::int64_t>(rng.below(100)));
    return true;
  });
  return trace;
}

TEST(CrossEngine, MessageStormIdenticalDeliveryAndLedger) {
  const Rank p = 8;
  Engine seq(p);
  const auto seq_trace = run_storm(seq, 6);

  for (int threads : {1, 2, 4, 13}) {
    ParallelEngine par(p, threads);
    const auto par_trace = run_storm(par, 6);
    EXPECT_EQ(par_trace, seq_trace) << "threads=" << threads;
    EXPECT_EQ(par.ledger(), seq.ledger()) << "threads=" << threads;
  }
}

// The transport contract (runtime/transport.hpp): InProc and Framed must
// be indistinguishable to rank programs. Same storm, both engines, up to
// P=64 — delivery traces (content and order), ledgers, and comm matrices
// must all be bit-identical to the sequential in-proc reference.
TEST(CrossTransport, MessageStormIdenticalInboxesLedgersAndCommMatrices) {
  for (Rank p : {4, 8, 64}) {
    Engine ref(p);
    const auto want = run_storm(ref, 6);
    for (int threads : {1, 4}) {
      auto eng = rt::make_engine(p, threads, rt::TransportKind::kFramed);
      const auto got = run_storm(*eng, 6);
      const std::string where =
          "p=" + std::to_string(p) + " threads=" + std::to_string(threads);
      EXPECT_EQ(got, want) << where;
      EXPECT_EQ(eng->ledger(), ref.ledger()) << where;
      EXPECT_EQ(eng->ledger().comm_matrix(), ref.ledger().comm_matrix())
          << where;
    }
  }
}

/// A trace as the determinism tests see it: the wall-free run entry (with
/// the engine's ledger) and every superstep record's step, phase and
/// per-rank counters.
std::pair<std::string, std::vector<std::tuple<int, std::string,
                                              std::vector<rt::StepCounters>>>>
trace_view(const obs::TraceRecorder& trace, const Engine& eng) {
  const obs::MetricsRegistry no_metrics;
  std::vector<std::tuple<int, std::string, std::vector<rt::StepCounters>>>
      steps;
  for (const auto& st : trace.supersteps()) {
    steps.emplace_back(st.step, st.phase, st.counters);
  }
  return {obs::run_entry(trace, no_metrics, &eng.ledger(), /*wall=*/false)
              .dump(),
          std::move(steps)};
}

// plum-scope determinism contract: with a FlightRecorder attached as the
// engine's RankScopeSink, the recorder's deterministic view (steps, phases,
// ticks — wall_ns excluded) must be byte-identical across the sequential
// engine and the parallel engine at every thread count, and attaching the
// recorder must not perturb what the trace records.
TEST(CrossEngine, FlightRecorderDeterministicViewByteIdentical) {
  const Rank p = 8;
  auto run_with_scope = [&](Engine& eng) {
    obs::FlightRecorder scope(p, 16);
    obs::TraceRecorder trace;
    eng.set_observer(&trace);
    eng.set_scope_sink(&scope);
    trace.set_flight_recorder(&scope);
    {
      obs::PhaseScope ph(trace, "storm");
      run_storm(eng, 6);
    }
    eng.set_observer(nullptr);
    eng.set_scope_sink(nullptr);
    return std::make_pair(scope.deterministic_json().dump(),
                          trace_view(trace, eng));
  };

  Engine seq(p);
  const auto want = run_with_scope(seq);
  // Every rank ran 7 supersteps (6 sending + the final quiescent one).
  {
    obs::FlightRecorder probe(p, 16);
    Engine again(p);
    again.set_scope_sink(&probe);
    run_storm(again, 6);
    for (Rank r = 0; r < p; ++r) {
      EXPECT_EQ(probe.events_recorded(r), 7u) << "rank " << r;
    }
  }

  for (int threads : {1, 2, 4}) {
    ParallelEngine par(p, threads);
    const auto got = run_with_scope(par);
    EXPECT_EQ(got.first, want.first) << "threads=" << threads;
    EXPECT_EQ(got.second, want.second) << "threads=" << threads;
  }

  // The recorder must not change what the trace records: a recorder-free
  // run records the identical trace.
  Engine bare(p);
  obs::TraceRecorder bare_trace;
  bare.set_observer(&bare_trace);
  {
    obs::PhaseScope ph(bare_trace, "storm");
    run_storm(bare, 6);
  }
  EXPECT_EQ(trace_view(bare_trace, bare), want.second);
}

TEST(CrossEngine, RingPassMatches) {
  const Rank p = 6;
  auto ring = [&](Engine& eng) {
    std::vector<int> received(static_cast<std::size_t>(p), -1);
    eng.run([&](Rank r, const Inbox& in, Outbox& out) {
      if (out.step() == 0) {
        out.send_vec<int>((r + 1) % p, 0, {static_cast<int>(r)});
        return true;
      }
      for (const auto& m : in.messages()) {
        received[static_cast<std::size_t>(r)] = rt::unpack<int>(m)[0];
      }
      return false;
    });
    return received;
  };
  Engine seq(p);
  ParallelEngine par(p);
  EXPECT_EQ(ring(par), ring(seq));
  for (Rank r = 0; r < p; ++r) {
    EXPECT_EQ(ring(seq)[static_cast<std::size_t>(r)], (r + p - 1) % p);
  }
}

TEST(CrossEngine, CollectivesMatch) {
  const Rank p = 5;
  Engine seq(p);
  ParallelEngine par(p, 4);

  std::vector<std::vector<double>> rows(static_cast<std::size_t>(p));
  for (Rank r = 0; r < p; ++r) {
    rows[static_cast<std::size_t>(r)] = {0.5 * r, 1.0 / (r + 1)};
  }
  EXPECT_EQ(rt::gather(par, rows, 0), rt::gather(seq, rows, 0));
  EXPECT_EQ(par.ledger(), seq.ledger());
}

/// Distributes a box mesh over `p` ranks (deterministic partition).
pmesh::DistMesh make_dist_mesh(int boxn, Rank p) {
  auto global = mesh::make_box_mesh(mesh::small_box(boxn));
  const auto dual = global.build_initial_dual();
  partition::MultilevelOptions popt;
  popt.nparts = p;
  const auto part = partition::partition(dual, popt).part;
  return pmesh::DistMesh(global, part, p);
}

TEST(CrossEngine, SolverSweepBitIdentical) {
  auto sweep = [&](Engine& eng) {
    const Rank p = eng.nranks();
    auto dm = make_dist_mesh(6, p);
    pmesh::ParallelEulerSolver solver(&dm, &eng);
    solver::BlastSpec blast;
    blast.radius = 0.25;
    for (Rank r = 0; r < p; ++r) {
      solver::init_blast(dm.local(r).mesh, solver.solution(r), blast);
    }
    std::vector<std::pair<double, std::vector<std::int64_t>>> infos;
    for (int s = 0; s < 5; ++s) {
      auto info = solver.step();
      infos.emplace_back(info.dt, std::move(info.edge_flux_evals));
    }
    solver.validate_replication();
    std::vector<std::vector<double>> rho(static_cast<std::size_t>(p));
    for (Rank r = 0; r < p; ++r) rho[static_cast<std::size_t>(r)] = solver.density_field(r);
    return std::make_tuple(solver.totals(), std::move(rho), std::move(infos),
                           eng.ledger());
  };

  // P=6 on 4 threads, and P=8 on 2/3/4 threads: more ranks than workers
  // and an uneven rank-to-thread split.
  const std::pair<Rank, int> configs[] = {{6, 4}, {8, 2}, {8, 3}, {8, 4}};
  for (const auto& [p, threads] : configs) {
    Engine seq(p);
    ParallelEngine par(p, threads);
    const auto [t_seq, rho_seq, info_seq, led_seq] = sweep(seq);
    const auto [t_par, rho_par, info_par, led_par] = sweep(par);

    // Bit-identical floating point: accumulation order is fixed by the
    // sender-ordered delivery contract, so == (not near) is correct.
    for (int c = 0; c < solver::kNumVars; ++c) {
      EXPECT_EQ(t_par[c], t_seq[c]) << "P=" << p << " threads=" << threads;
    }
    EXPECT_EQ(rho_par, rho_seq) << "P=" << p << " threads=" << threads;
    EXPECT_EQ(info_par, info_seq) << "P=" << p << " threads=" << threads;
    EXPECT_EQ(led_par, led_seq) << "P=" << p << " threads=" << threads;
  }
}

TEST(CrossEngine, ParallelMarkAndRefineIdentical) {
  const Rank p = 5;
  auto adaptit = [&](Engine& eng) {
    auto dm = make_dist_mesh(6, p);
    std::vector<std::vector<char>> seeds(static_cast<std::size_t>(p));
    for (Rank r = 0; r < p; ++r) {
      auto& lm = dm.local(r);
      auto& s = seeds[static_cast<std::size_t>(r)];
      s.assign(static_cast<std::size_t>(lm.mesh.num_edges()), 0);
      Rng rng(static_cast<std::uint64_t>(r) + 17);
      for (auto& v : s) v = rng.uniform() < 0.04;
    }
    const auto pm = pmesh::parallel_mark(dm, eng, seeds);
    const auto pf = pmesh::parallel_refine(dm, eng, pm);
    dm.validate();
    std::vector<Index> elems = dm.active_elements_per_rank();
    return std::make_tuple(pm.comm_rounds, pm.marks_exchanged,
                           pf.work_per_rank, pf.new_shared_edges,
                           pf.new_shared_verts, std::move(elems),
                           eng.ledger());
  };

  Engine seq(p);
  ParallelEngine par(p, 3);
  EXPECT_EQ(adaptit(par), adaptit(seq));
}

TEST(CrossEngine, MigrateRemapIdentical) {
  const Rank p = 4;
  auto migrateit = [&](Engine& eng) {
    auto dm = make_dist_mesh(5, p);
    pmesh::ParallelEulerSolver solver(&dm, &eng);
    solver::BlastSpec blast;
    for (Rank r = 0; r < p; ++r) {
      solver::init_blast(dm.local(r).mesh, solver.solution(r), blast);
    }
    solver.run(2);
    std::vector<std::vector<solver::State>> states;
    for (Rank r = 0; r < p; ++r) states.push_back(solver.solution(r));

    // Deterministically reassign a quarter of the roots round-robin — a
    // representative remap's data movement.
    const Index nroots = static_cast<Index>([&] {
      Index n = 0;
      for (Rank r = 0; r < p; ++r) {
        n += static_cast<Index>(dm.local(r).root_global.size());
      }
      return n;
    }());
    partition::PartVec new_part(static_cast<std::size_t>(nroots), kNoRank);
    for (Rank r = 0; r < p; ++r) {
      for (Index g : dm.local(r).root_global) {
        new_part[static_cast<std::size_t>(g)] =
            (g % 4 == 0) ? (r + 1) % p : r;
      }
    }
    const auto ms = pmesh::migrate(dm, eng, new_part, &states);
    dm.validate();
    return std::make_tuple(ms.roots_moved, ms.elements_moved, ms.bytes_sent,
                           ms.bytes_received, dm.active_elements_per_rank(),
                           std::move(states), eng.ledger());
  };

  Engine seq(p);
  ParallelEngine par(p, 4);
  const auto a = migrateit(seq);
  const auto b = migrateit(par);
  EXPECT_EQ(std::get<0>(a), std::get<0>(b));
  EXPECT_EQ(std::get<1>(a), std::get<1>(b));
  EXPECT_EQ(std::get<2>(a), std::get<2>(b));
  EXPECT_EQ(std::get<3>(a), std::get<3>(b));
  EXPECT_EQ(std::get<4>(a), std::get<4>(b));
  EXPECT_EQ(std::get<6>(a), std::get<6>(b));
  // Solution states bitwise equal.
  const auto& sa = std::get<5>(a);
  const auto& sb = std::get<5>(b);
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t r = 0; r < sa.size(); ++r) {
    ASSERT_EQ(sa[r].size(), sb[r].size());
    for (std::size_t v = 0; v < sa[r].size(); ++v) {
      for (int c = 0; c < solver::kNumVars; ++c) {
        EXPECT_EQ(sa[r][v][c], sb[r][v][c]);
      }
    }
  }
}

TEST(CrossEngine, DistFrameworkCyclesIdentical) {
  auto run_cycles = [](int threads) {
    core::FrameworkOptions opt;
    opt.nranks = 6;
    opt.refine_fraction = 0.08;
    opt.imbalance_trigger = 1.02;  // make the remap path fire
    opt.solver_steps_per_cycle = 3;
    opt.threads = threads;
    auto mesh = mesh::make_box_mesh(mesh::small_box(6));
    core::DistFramework fw(std::move(mesh), opt);
    solver::BlastSpec blast;
    blast.radius = 0.2;
    for (Rank r = 0; r < opt.nranks; ++r) {
      solver::init_blast(fw.dist_mesh().local(r).mesh, fw.solver().solution(r),
                         blast);
    }
    std::vector<core::CycleReport> reps;
    for (int i = 0; i < 2; ++i) reps.push_back(fw.cycle());
    fw.dist_mesh().validate();

    std::vector<std::vector<double>> rho(static_cast<std::size_t>(opt.nranks));
    for (Rank r = 0; r < opt.nranks; ++r) {
      rho[static_cast<std::size_t>(r)] = fw.solver().density_field(r);
    }
    return std::make_tuple(reps, fw.elements_per_rank(), std::move(rho),
                           test::run_view(fw));
  };

  const auto seq = run_cycles(1);
  const auto par = run_cycles(4);

  const auto& rs = std::get<0>(seq);
  const auto& rp = std::get<0>(par);
  ASSERT_EQ(rs.size(), rp.size());
  for (std::size_t i = 0; i < rs.size(); ++i) {
    EXPECT_EQ(rp[i].elements_before, rs[i].elements_before);
    EXPECT_EQ(rp[i].elements_after, rs[i].elements_after);
    EXPECT_EQ(rp[i].mark_rounds, rs[i].mark_rounds);
    EXPECT_EQ(rp[i].evaluated_repartition, rs[i].evaluated_repartition);
    EXPECT_EQ(rp[i].accepted, rs[i].accepted);
    EXPECT_EQ(rp[i].imbalance_old, rs[i].imbalance_old);
    EXPECT_EQ(rp[i].imbalance_new, rs[i].imbalance_new);
    EXPECT_EQ(rp[i].gain_seconds, rs[i].gain_seconds);
    EXPECT_EQ(rp[i].cost_seconds, rs[i].cost_seconds);
    EXPECT_EQ(rp[i].elements_migrated, rs[i].elements_migrated);
    EXPECT_EQ(rp[i].refine_work_per_rank, rs[i].refine_work_per_rank);
  }
  EXPECT_EQ(std::get<1>(par), std::get<1>(seq));
  EXPECT_EQ(std::get<2>(par), std::get<2>(seq));  // density bit-identical
  const test::RunView& vs = std::get<3>(seq);
  const test::RunView& vp = std::get<3>(par);
  // The wall-free run entry (phases, counter-sourced critical path, gate
  // audit, tag-class traffic and the deterministic metrics) is
  // byte-identical across engines.
  EXPECT_EQ(vp.entry, vs.entry);
  EXPECT_EQ(vp.ledger, vs.ledger);  // full ledger
  EXPECT_NE(vs.entry.find("\"subdivide\""), std::string::npos);
  EXPECT_NE(vs.entry.find("\"comm_by_class\""), std::string::npos);
  EXPECT_NE(vs.entry.find("\"gate_audit\""), std::string::npos);
  EXPECT_NE(vs.entry.find("\"critical_path\""), std::string::npos);
  // Live paper-metric gauges are in it.
  EXPECT_NE(vs.entry.find("\"edge_cut\""), std::string::npos);
  EXPECT_NE(vs.entry.find("\"remap_total_elems\""), std::string::npos);
  EXPECT_EQ(vp.live_bytes, vs.live_bytes);  // plum-mem, row by row
  // Intermediate pool size: same bytes again.
  const auto par2 = run_cycles(2);
  const test::RunView& v2 = std::get<3>(par2);
  EXPECT_EQ(v2.entry, vs.entry);
  EXPECT_EQ(v2.ledger, vs.ledger);
  EXPECT_EQ(v2.live_bytes, vs.live_bytes);
  // Sanity: the workload actually exercised the remap machinery.
  EXPECT_TRUE(rs[0].evaluated_repartition || rs[1].evaluated_repartition);
}

TEST(ParallelEngine, PoolSizeEdgeCases) {
  // One thread (the caller alone, no worker), and more threads than
  // ranks: both reduce to the same deterministic schedule.
  const Rank p = 3;
  Engine seq(p);
  const auto want = run_storm(seq, 4);

  ParallelEngine one(p, 1);
  EXPECT_EQ(run_storm(one, 4), want);
  EXPECT_EQ(one.num_threads(), 1);

  ParallelEngine many(p, 64);
  EXPECT_EQ(run_storm(many, 4), want);
  EXPECT_LE(many.num_threads(), 3);  // clamped to nranks, caller included

  ParallelEngine defaulted(p);  // hardware_concurrency, clamped
  EXPECT_GE(defaulted.num_threads(), 1);
  EXPECT_EQ(run_storm(defaulted, 4), want);
}

TEST(ParallelEngine, CallerThreadRunsRanks) {
  // At P=1 the engine starts no worker, so rank 0 can only run on the
  // thread that calls run().
  ParallelEngine solo(1, 4);
  EXPECT_EQ(solo.num_threads(), 1);
  std::vector<std::thread::id> ran_on(1);
  solo.run([&](Rank r, const Inbox&, Outbox&) {
    ran_on[static_cast<std::size_t>(r)] = std::this_thread::get_id();
    return false;
  });
  EXPECT_EQ(ran_on[0], std::this_thread::get_id());

  // `threads` counts every thread that runs ranks, the caller included.
  EXPECT_EQ(ParallelEngine(16, 4).num_threads(), 4);
  EXPECT_EQ(ParallelEngine(3, 64).num_threads(), 3);
}

/// A ring program with uneven work: at step s rank r mixes (7r + s) mod 5
/// units into its own accumulator, then passes it to rank r+1, which folds
/// it in next step. Returns every rank's final accumulator.
std::vector<std::uint64_t> run_uneven_ring(Engine& eng) {
  constexpr int kSteps = 6;
  constexpr int kRoundsPerUnit = 512;
  const Rank p = eng.nranks();
  std::vector<std::uint64_t> acc(static_cast<std::size_t>(p));
  for (Rank r = 0; r < p; ++r) {
    acc[static_cast<std::size_t>(r)] = static_cast<std::uint64_t>(r) + 1;
  }
  eng.run([&](Rank r, const Inbox& in, Outbox& out) {
    std::uint64_t& a = acc[static_cast<std::size_t>(r)];
    for (const auto& m : in.messages()) a ^= rt::unpack<std::uint64_t>(m)[0];
    const int units = (7 * r + out.step()) % 5;
    for (int i = 0; i < units * kRoundsPerUnit; ++i) {
      a = a * 6364136223846793005ULL + 1442695040888963407ULL;
      a ^= a >> 29;
    }
    out.charge(units);
    if (out.step() + 1 >= kSteps) return false;
    out.send_vec<std::uint64_t>((r + 1) % p, 0, {a});
    return true;
  });
  return acc;
}

TEST(ParallelEngine, ParkedAndSpinningWorkersMatchSequential) {
  // Back-to-back runs catch the workers while they spin; a pause well past
  // the spin bound lets them park, so the next superstep must wake them.
  // Threads 8 oversubscribes any host with fewer cores. Every ledger and
  // every rank's result must equal the sequential engine's.
  const auto park_pause = 20 * ParallelEngine::kSpinBound;
  for (Rank p : {2, 3, 5, 8, 17}) {
    Engine seq(p);
    const auto want = run_uneven_ring(seq);
    for (int threads : {2, 3, 4, 8}) {
      ParallelEngine par(p, threads);
      for (int run = 0; run < 6; ++run) {
        if (run >= 3) std::this_thread::sleep_for(park_pause);
        par.reset_ledger();
        EXPECT_EQ(run_uneven_ring(par), want)
            << "P=" << p << " threads=" << threads << " run " << run;
        EXPECT_EQ(par.ledger(), seq.ledger())
            << "P=" << p << " threads=" << threads << " run " << run;
      }
    }
  }
}

TEST(ParallelEngine, ReusableAcrossManyRuns) {
  // The pool must survive many run() calls (DistFramework reuses one
  // engine for every phase of every cycle).
  const Rank p = 4;
  ParallelEngine eng(p, 2);
  for (int i = 0; i < 50; ++i) {
    std::vector<std::int64_t> got(static_cast<std::size_t>(p), 0);
    eng.run([&](Rank r, const Inbox& in, Outbox& out) {
      if (out.step() == 0) {
        out.send_vec<std::int64_t>((r + i) % p, 0, {r + 1000LL * i});
        return true;
      }
      for (const auto& m : in.messages()) {
        got[static_cast<std::size_t>(r)] += rt::unpack<std::int64_t>(m)[0];
      }
      return false;
    });
    std::int64_t sum = std::accumulate(got.begin(), got.end(), std::int64_t{0});
    std::int64_t want = 0;
    for (Rank r = 0; r < p; ++r) want += r + 1000LL * i;
    EXPECT_EQ(sum, want);
  }
  EXPECT_EQ(eng.ledger().num_supersteps(), 100);
}

}  // namespace
}  // namespace plum
