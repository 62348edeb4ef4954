#pragma once
// Edge-based vertex-centered finite-volume solver for the 3D compressible
// Euler equations — the flow-solver substrate of the framework (paper §2).
//
// Scheme: Rusanov (local Lax-Friedrichs) fluxes over median-dual interfaces
// accumulated in a single loop over active edges (the edge-based structure
// that makes the solver "particularly compatible with our mesh adaption
// procedure"), slip-wall boundary closure, explicit 2-stage Runge-Kutta in
// time with a CFL-limited step.
//
// Substitution note (DESIGN.md §3): the paper runs a rotor-blade hover case;
// any solution with localized features drives the same adaption/load-balance
// machinery, so the examples use a spherical blast (see init_conditions).

#include <array>
#include <vector>

#include "solver/dual_metrics.hpp"

namespace plum::solver {

inline constexpr int kNumVars = 5;  ///< rho, rho*u, rho*v, rho*w, E
using State = std::array<double, kNumVars>;

struct EulerOptions {
  double gamma = 1.4;
  double cfl = 0.4;
};

struct StepStats {
  double dt = 0;
  std::int64_t edge_flux_evals = 0;  ///< work units of the iteration
};

class EulerSolver {
 public:
  /// Binds to `mesh`'s current computational mesh. Call rebuild() after any
  /// adaption; the per-vertex solution array survives (it is indexed by
  /// vertex id and interpolated through TetMesh::on_bisect).
  explicit EulerSolver(mesh::TetMesh* mesh, EulerOptions opt = {});

  /// Re-derives dual metrics after refinement/coarsening. `vertex_remap`
  /// (new size, old index per new vertex or kInvalidIndex) must be supplied
  /// after coarsening compaction; pass {} if vertex ids are unchanged.
  void rebuild(const std::vector<Index>& vertex_remap = {});

  /// Permutes only the solution array (no metric rebuild) — the coarsening
  /// on_compaction hook, fired before the conformity re-refinement.
  void remap_solution(const std::vector<Index>& vertex_new_to_old);

  /// One explicit RK2 step at the CFL-limited dt; returns work stats.
  StepStats step();

  /// Runs n steps; returns accumulated edge-flux work.
  std::int64_t run(int nsteps);

  [[nodiscard]] const std::vector<State>& solution() const { return u_; }
  std::vector<State>& solution() { return u_; }

  /// Density per vertex — the field the error indicator consumes.
  [[nodiscard]] std::vector<double> density_field() const;

  /// Total mass / momentum / energy over the dual cells (conservation).
  [[nodiscard]] State totals() const;

  /// Interpolation hook body: mid = (a + b) / 2 (paper §3). Exposed so the
  /// framework can register it on TetMesh::on_bisect.
  void interpolate_midpoint(Index edge, Index mid);

  [[nodiscard]] const DualMetrics& metrics() const { return metrics_; }

  /// Pressure from a conserved state (unit test hook).
  [[nodiscard]] double pressure(const State& s) const;

 private:
  void compute_residual(const std::vector<State>& u,
                        std::vector<State>& res) const;
  [[nodiscard]] double max_wave_speed(const State& s) const;

  mesh::TetMesh* mesh_;
  EulerOptions opt_;
  DualMetrics metrics_;
  std::vector<State> u_;  ///< conserved state per vertex id
};

}  // namespace plum::solver
