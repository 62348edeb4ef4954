// Tests for the distributed Euler solver: metric globalization, agreement
// with the serial solver on the same mesh, state replication across shared
// copies, conservation, and behavior on adapted distributions.

#include <gtest/gtest.h>

#include <cmath>

#include "adapt/adaptor.hpp"
#include "mesh/box_mesh.hpp"
#include "partition/multilevel.hpp"
#include "pmesh/parallel_solver.hpp"
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
  // One step = CFL min, stage-1 flux, stage-1 update + stage-2 flux, final
  // update; the flux supersteps charge exactly the edges they evaluate.
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

}  // namespace
}  // namespace plum::pmesh
