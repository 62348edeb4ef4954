// Tests for the distributed Euler solver: metric globalization, agreement
// with the serial solver on the same mesh (bit for bit on one rank), state
// replication across shared copies, conservation, behavior on adapted
// distributions, the step's O(P) traffic, and rebind() against a fresh
// construction.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>
#include <string>

#include "adapt/adaptor.hpp"
#include "adapt/error_indicator.hpp"
#include "mesh/box_mesh.hpp"
#include "partition/multilevel.hpp"
#include "pmesh/migrate.hpp"
#include "pmesh/parallel_adapt.hpp"
#include "pmesh/parallel_solver.hpp"
#include "runtime/collectives.hpp"
#include "solver/init_conditions.hpp"

namespace plum::pmesh {
namespace {

using mesh::TetMesh;

partition::PartVec partition_roots(const TetMesh& global, Rank nranks) {
  partition::MultilevelOptions opt;
  opt.nparts = nranks;
  auto dual = global.build_initial_dual();
  return partition::partition(dual, opt).part;
}

/// Seeds the same blast on the serial solver and on every rank's region.
void init_both(TetMesh& global, solver::EulerSolver& serial,
               ParallelEulerSolver& par, const DistMesh& dm) {
  solver::BlastSpec blast;
  blast.radius = 0.3;
  solver::init_blast(global, serial.solution(), blast);
  for (Rank r = 0; r < dm.nranks(); ++r) {
    solver::init_blast(dm.local(r).mesh, par.solution(r), blast);
  }
}

class ParallelSolverSweep : public ::testing::TestWithParam<Rank> {};

TEST_P(ParallelSolverSweep, MatchesSerialSolver) {
  const Rank P = GetParam();
  auto global = mesh::make_box_mesh(mesh::small_box(3));
  const auto part = partition_roots(global, P);
  DistMesh dm(global, part, P);
  rt::Engine eng(P);

  solver::EulerSolver serial(&global);
  ParallelEulerSolver par(&dm, &eng);
  init_both(global, serial, par, dm);

  for (int s = 0; s < 8; ++s) {
    const auto st_serial = serial.step();
    const auto st_par = par.step();
    ASSERT_NEAR(st_par.dt, st_serial.dt, 1e-14 * st_serial.dt);
  }
  par.validate_replication();

  // Per-vertex agreement through the construction-time global map.
  double max_diff = 0;
  for (Rank r = 0; r < P; ++r) {
    const auto& lm = dm.local(r);
    for (Index v = 0; v < static_cast<Index>(lm.vert_global.size()); ++v) {
      const auto& a = par.solution(r)[static_cast<std::size_t>(v)];
      const auto& b =
          serial.solution()[static_cast<std::size_t>(lm.vert_global[v])];
      for (int c = 0; c < solver::kNumVars; ++c) {
        max_diff = std::max(max_diff, std::abs(a[c] - b[c]));
      }
    }
  }
  EXPECT_LT(max_diff, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Ranks, ParallelSolverSweep,
                         ::testing::Values<Rank>(2, 3, 5, 8));

TEST(ParallelSolver, ConservesMassAndEnergy) {
  const Rank P = 4;
  auto global = mesh::make_box_mesh(mesh::small_box(3));
  const auto part = partition_roots(global, P);
  DistMesh dm(global, part, P);
  rt::Engine eng(P);
  ParallelEulerSolver par(&dm, &eng);
  for (Rank r = 0; r < P; ++r) {
    solver::BlastSpec blast;
    blast.radius = 0.3;
    solver::init_blast(dm.local(r).mesh, par.solution(r), blast);
  }
  const auto t0 = par.totals();
  par.run(10);
  const auto t1 = par.totals();
  EXPECT_NEAR(t1[0], t0[0], 1e-10 * std::abs(t0[0]));
  EXPECT_NEAR(t1[4], t0[4], 1e-10 * std::abs(t0[4]));
}

TEST(ParallelSolver, TotalsCountSharedVerticesOnce) {
  const Rank P = 3;
  auto global = mesh::make_box_mesh(mesh::small_box(2));
  const auto part = partition_roots(global, P);
  DistMesh dm(global, part, P);
  rt::Engine eng(P);
  ParallelEulerSolver par(&dm, &eng);

  solver::EulerSolver serial(&global);
  // Uniform state: totals must equal volume-weighted constants exactly.
  const auto ts = serial.totals();
  const auto tp = par.totals();
  for (int c = 0; c < solver::kNumVars; ++c) {
    EXPECT_NEAR(tp[c], ts[c], 1e-12 * (std::abs(ts[c]) + 1));
  }
}

TEST(ParallelSolver, RunsOnAdaptedDistribution) {
  const Rank P = 4;
  auto global = mesh::make_box_mesh(mesh::small_box(2));
  adapt::MeshAdaptor ad(&global);
  std::vector<char> marks(static_cast<std::size_t>(global.num_edges()), 0);
  for (Index e = 0; e < global.num_edges(); e += 3) marks[e] = 1;
  ad.mark(marks);
  ad.refine();

  const auto part = partition_roots(global, P);
  DistMesh dm(global, part, P);
  rt::Engine eng(P);

  solver::EulerSolver serial(&global);
  ParallelEulerSolver par(&dm, &eng);
  init_both(global, serial, par, dm);

  serial.run(5);
  par.run(5);
  par.validate_replication();

  double max_diff = 0;
  for (Rank r = 0; r < P; ++r) {
    const auto& lm = dm.local(r);
    for (Index v = 0; v < static_cast<Index>(lm.vert_global.size()); ++v) {
      const auto& a = par.solution(r)[static_cast<std::size_t>(v)];
      const auto& b =
          serial.solution()[static_cast<std::size_t>(lm.vert_global[v])];
      for (int c = 0; c < solver::kNumVars; ++c) {
        max_diff = std::max(max_diff, std::abs(a[c] - b[c]));
      }
    }
  }
  EXPECT_LT(max_diff, 1e-10);
}

TEST(ParallelSolver, FluxWorkIsDisjointAcrossRanks) {
  // Owner-computes: total flux evaluations equal the active edge count of
  // the gathered mesh, with no double counting.
  const Rank P = 5;
  auto global = mesh::make_box_mesh(mesh::small_box(3));
  const auto part = partition_roots(global, P);
  DistMesh dm(global, part, P);
  rt::Engine eng(P);
  ParallelEulerSolver par(&dm, &eng);
  const auto info = par.step();
  std::int64_t total = 0;
  for (auto w : info.edge_flux_evals) total += w;
  // One RK2 step evaluates each edge's flux exactly twice, globally.
  EXPECT_EQ(total, 2 * global.num_active_edges());
}

TEST(ParallelSolver, StepIsOneFourSuperstepProgramChargingItsFluxWork) {
  // One step = CFL limit to rank 0 + stage-1 flux, dt broadcast + stage-1
  // closure, stage-1 update + stage-2 flux, final update; the flux
  // supersteps (0 and 2) charge exactly the edges they evaluate.
  const Rank P = 4;
  auto global = mesh::make_box_mesh(mesh::small_box(3));
  const auto part = partition_roots(global, P);
  DistMesh dm(global, part, P);
  rt::Engine eng(P);
  ParallelEulerSolver par(&dm, &eng);
  for (int s = 0; s < 2; ++s) {
    const std::size_t lo = eng.ledger().steps.size();
    const auto info = par.step();
    const auto& steps = eng.ledger().steps;
    ASSERT_EQ(steps.size(), lo + 4);
    for (Rank r = 0; r < P; ++r) {
      std::int64_t units = 0;
      for (std::size_t k = lo; k < steps.size(); ++k) {
        units += steps[k][static_cast<std::size_t>(r)].compute_units;
      }
      EXPECT_GT(units, 0) << "rank " << r;
      EXPECT_EQ(units, info.edge_flux_evals[static_cast<std::size_t>(r)])
          << "rank " << r;
    }
  }
}

/// The ranks holding a copy of any of `lm`'s shared vertices.
std::set<Rank> vertex_peers(const LocalMesh& lm) {
  std::set<Rank> peers;
  for (const auto& [v, spl] : lm.shared_verts) {
    for (const auto& c : spl) peers.insert(c.rank);
  }
  return peers;
}

TEST(ParallelSolver, StepTrafficIsLinearInP) {
  // The CFL minimum is reduced through rank 0 inside the step: in superstep
  // 0 every rank sends one collective message, to rank 0, and in superstep
  // 1 rank 0 alone sends one to every rank — 2P per step, where an
  // allreduce's all-to-all is P^2. Every other message goes to an SPL peer.
  for (const Rank P : {1, 4, 16, 64}) {
    SCOPED_TRACE("P=" + std::to_string(P));
    auto global = mesh::make_box_mesh(mesh::small_box(4));
    const auto part = partition_roots(global, P);
    DistMesh dm(global, part, P);
    rt::Engine eng(P);
    ParallelEulerSolver par(&dm, &eng);
    const std::size_t lo = eng.ledger().steps.size();
    par.step();
    const auto& steps = eng.ledger().steps;
    ASSERT_EQ(steps.size(), lo + 4);
    std::int64_t collective = 0, peer_msgs = 0;
    for (std::size_t k = 0; k < 4; ++k) {
      for (Rank r = 0; r < P; ++r) {
        const std::set<Rank> peers = vertex_peers(dm.local(r));
        std::int64_t mine = 0;
        for (const auto& c : steps[lo + k][static_cast<std::size_t>(r)].sends) {
          if (c.tag != rt::detail::kCollectiveTag) {
            EXPECT_TRUE(peers.count(c.to)) << "step " << k << " rank " << r
                                           << " sent to " << c.to;
            peer_msgs += c.msgs;
            continue;
          }
          if (k == 0) {
            EXPECT_EQ(c.to, 0) << "rank " << r;
          }
          mine += c.msgs;
        }
        const std::int64_t expected =
            k == 0 ? 1 : (k == 1 && r == 0 ? std::int64_t{P} : 0);
        EXPECT_EQ(mine, expected) << "step " << k << " rank " << r;
        collective += mine;
      }
    }
    EXPECT_EQ(collective, 2 * std::int64_t{P});
    if (P > 1) {
      EXPECT_GT(peer_msgs, 0);
    }
  }
}

TEST(ParallelSolver, SingleRankBitIdenticalToSerial) {
  // With every root on rank 0 the local mesh is the global one, and the
  // flux kernel performs the serial solver's operations on the same
  // inputs in the same order: the states agree bit for bit.
  auto global = mesh::make_box_mesh(mesh::small_box(5));
  const partition::PartVec part(
      static_cast<std::size_t>(global.num_initial_elements()), 0);
  DistMesh dm(global, part, 1);
  rt::Engine eng(1);

  solver::EulerSolver serial(&global);
  ParallelEulerSolver par(&dm, &eng);
  init_both(global, serial, par, dm);
  for (int s = 0; s < 5; ++s) {
    const double dt_serial = serial.step().dt;
    const double dt_par = par.step().dt;
    ASSERT_EQ(std::memcmp(&dt_serial, &dt_par, sizeof(double)), 0);
  }
  const auto& a = serial.solution();
  const auto& b = par.solution(0);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(solver::State)),
            0);
}

TEST(ParallelSolver, SetupIsTwoSuperstepsChargingItsElements) {
  // Construction and rebind() each run the two setup supersteps; in the
  // first, every rank charges its active elements.
  const Rank P = 4;
  auto global = mesh::make_box_mesh(mesh::small_box(3));
  const auto part = partition_roots(global, P);
  DistMesh dm(global, part, P);
  rt::Engine eng(P);
  const auto& steps = eng.ledger().steps;
  const auto expect_setup = [&](std::size_t lo) {
    ASSERT_EQ(steps.size(), lo + 2);
    for (Rank r = 0; r < P; ++r) {
      EXPECT_EQ(steps[lo][static_cast<std::size_t>(r)].compute_units,
                dm.local(r).mesh.num_active_elements())
          << "rank " << r;
      EXPECT_GT(steps[lo][static_cast<std::size_t>(r)].msgs_sent, 0)
          << "rank " << r;
    }
  };
  ParallelEulerSolver par(&dm, &eng);
  expect_setup(0);
  par.step();
  const std::size_t lo = steps.size();
  par.rebind();
  expect_setup(lo);
}

class RebindSweep : public ::testing::TestWithParam<Rank> {};

/// rebind() on `live` and a fresh solver given the same states add equal
/// ledger steps; two steps on each then agree exactly.
void expect_rebind_matches_fresh(DistMesh& dm, rt::Engine& eng,
                                 ParallelEulerSolver& live) {
  const Rank P = dm.nranks();
  const auto& steps = eng.ledger().steps;
  const std::size_t lo_live = steps.size();
  live.rebind();
  const std::size_t lo_fresh = steps.size();
  ParallelEulerSolver fresh(&dm, &eng);
  *fresh.states() = *live.states();
  ASSERT_EQ(lo_fresh - lo_live, 2U);
  ASSERT_EQ(steps.size() - lo_fresh, 2U);
  for (std::size_t k = 0; k < 2; ++k) {
    EXPECT_TRUE(steps[lo_live + k] == steps[lo_fresh + k]) << "setup step " << k;
  }
  for (int s = 0; s < 2; ++s) {
    const auto a = live.step();
    const auto b = fresh.step();
    EXPECT_EQ(std::memcmp(&a.dt, &b.dt, sizeof(double)), 0) << "step " << s;
    EXPECT_EQ(a.edge_flux_evals, b.edge_flux_evals) << "step " << s;
  }
  for (Rank r = 0; r < P; ++r) {
    const auto& a = live.solution(r);
    const auto& b = fresh.solution(r);
    ASSERT_EQ(a.size(), b.size()) << "rank " << r;
    EXPECT_EQ(
        std::memcmp(a.data(), b.data(), a.size() * sizeof(solver::State)), 0)
        << "rank " << r;
  }
  live.validate_replication();
}

TEST_P(RebindSweep, RebindMatchesFreshConstruction) {
  const Rank P = GetParam();
  auto global = mesh::make_box_mesh(mesh::small_box(3));
  auto part = partition_roots(global, P);
  DistMesh dm(global, part, P);
  rt::Engine eng(P);
  ParallelEulerSolver live(&dm, &eng);
  for (Rank r = 0; r < P; ++r) {
    solver::BlastSpec blast;
    blast.radius = 0.3;
    solver::init_blast(dm.local(r).mesh, live.solution(r), blast);
  }
  live.run(2);

  // A migrate that carries the live states: every root moves one rank on.
  for (auto& p : part) p = (p + 1) % P;
  migrate(dm, eng, part, live.states());
  expect_rebind_matches_fresh(dm, eng, live);

  // A parallel refinement that interpolates into the live states.
  std::vector<std::vector<char>> seeds(static_cast<std::size_t>(P));
  for (Rank r = 0; r < P; ++r) {
    const auto& m = dm.local(r).mesh;
    seeds[static_cast<std::size_t>(r)] = adapt::mark_above(
        m, adapt::edge_error(m, live.density_field(r), 1.0), 0.05);
  }
  const auto pm = parallel_mark(dm, eng, seeds);
  for (Rank r = 0; r < P; ++r) {
    dm.local(r).mesh.on_bisect = [&dm, &live, r](Index e, Index mid) {
      auto& u = live.solution(r);
      const auto& ed = dm.local(r).mesh.edge(e);
      if (static_cast<std::size_t>(mid) >= u.size()) {
        u.resize(static_cast<std::size_t>(mid) + 1);
      }
      for (int c = 0; c < solver::kNumVars; ++c) {
        u[static_cast<std::size_t>(mid)][c] =
            0.5 * (u[static_cast<std::size_t>(ed.v0)][c] +
                   u[static_cast<std::size_t>(ed.v1)][c]);
      }
    };
  }
  parallel_refine(dm, eng, pm);
  for (Rank r = 0; r < P; ++r) dm.local(r).mesh.on_bisect = nullptr;
  ASSERT_GT(dm.total_active_elements(), global.num_active_elements());
  expect_rebind_matches_fresh(dm, eng, live);
}

INSTANTIATE_TEST_SUITE_P(Ranks, RebindSweep, ::testing::Values<Rank>(4, 8));

}  // namespace
}  // namespace plum::pmesh
