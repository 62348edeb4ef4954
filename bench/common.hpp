#pragma once
// Shared workload for the paper-reproduction benches.
//
// The paper's evaluation (§5) marks 5%, 33% and 60% of the 78,343 edges of
// a 60,968-element rotor mesh (strategies Real_1/2/3), based on an error
// indicator computed from an actual flow solution. We reproduce the setup
// with the paper-scale box mesh (60,984 tets), a blast flow solution, and
// the same three marking fractions applied to the same edge-error
// indicator (DESIGN.md §3 and §4).

#include <charconv>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "adapt/adaptor.hpp"
#include "mesh/box_mesh.hpp"
#include "solver/euler.hpp"
#include "solver/init_conditions.hpp"
#include "util/timer.hpp"

namespace plum::bench {

struct PaperCase {
  const char* name;
  double fraction;  ///< fraction of active edges marked for refinement
};

inline constexpr PaperCase kRealCases[] = {
    {"Real_1", 0.05},
    {"Real_2", 0.33},
    {"Real_3", 0.60},
};

/// Parses a bench flag's count (--threads, --leak-check): true and *out
/// set only when `s` is a whole non-negative decimal integer.
inline bool parse_count(std::string_view s, int* out) {
  int v = 0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || end != s.data() + s.size() || v < 0) return false;
  *out = v;
  return true;
}

/// The paper's processor counts.
inline constexpr Rank kProcCounts[] = {2, 4, 8, 16, 32, 64};

struct Workload {
  mesh::TetMesh mesh;        ///< paper-scale initial mesh
  std::vector<double> err;   ///< per-edge error from the flow solution
};

/// Builds the paper-scale mesh and a short blast solve to obtain a
/// realistic, spatially localized error indicator. ~61k tets; a few seconds.
inline Workload make_paper_workload(int solver_steps = 12) {
  Workload w{mesh::make_box_mesh(mesh::paper_scale_box()), {}};
  solver::EulerSolver solver(&w.mesh);
  solver::BlastSpec blast;
  blast.center = {0.4, 0.45, 0.5};
  blast.radius = 0.18;
  blast.inner_pressure = 15.0;
  solver::init_blast(w.mesh, solver.solution(), blast);
  solver.run(solver_steps);
  w.err = adapt::edge_error(w.mesh, solver.density_field(), 1.0);
  return w;
}

/// A smaller workload for quick runs (set PLUM_BENCH_SMALL=1).
inline Workload make_small_workload() {
  Workload w{mesh::make_box_mesh(mesh::small_box(10)), {}};
  solver::EulerSolver solver(&w.mesh);
  solver::BlastSpec blast;
  blast.radius = 0.2;
  solver::init_blast(w.mesh, solver.solution(), blast);
  solver.run(10);
  w.err = adapt::edge_error(w.mesh, solver.density_field(), 1.0);
  return w;
}

inline Workload make_workload() {
  const char* small = std::getenv("PLUM_BENCH_SMALL");
  if (small && small[0] == '1') {
    std::printf("[plum-bench] PLUM_BENCH_SMALL=1: using reduced mesh\n");
    return make_small_workload();
  }
  return make_paper_workload();
}

}  // namespace plum::bench
