#pragma once
// Distributed-memory Euler solver over a DistMesh — the parallel flow
// solver of the framework (paper §2 runs it on the same partitions the
// load balancer maintains; its per-processor cost is what Wcomp models).
//
// Scheme identical to solver::EulerSolver, parallelized the standard way
// for vertex-centered edge-based codes, with every rank's work inside its
// own supersteps:
//   setup:  rebind(), one BSP program of two supersteps, run by the
//           constructor and again after every change of the local meshes:
//             0  each rank builds its local dual metrics, owned flags,
//                edge-slot map and residual plan (its SPL peers, ascending,
//                each with the shared vertices it sends them), charges its
//                active elements, and sends the partial metric sums
//                (dual-face areas, cell volumes, boundary closure, CFL
//                lengths) of its shared vertices and edges to every copy;
//             1  each rank adds the partials it received, which makes the
//                quantities global, and lists its active vertices.
//           The per-rank metric arrays are reserved on the coordinating
//           thread first, so the ranks only fill them; the plan, O(shared
//           copies) per rank, keeps its capacity from one rebind to the
//           next.
//   step:   one BSP program of four supersteps, all rank work inside them:
//             0  primitives of u; local CFL limit over the active vertices,
//                sent to rank 0; stage-1 flux loop; send the shared-vertex
//                partial residuals to every copy along the plan;
//             1  rank 0 sends every rank dt = min of its inbox; every rank
//                sums the partials in sender-rank order and adds the
//                boundary closure;
//             2  u1 = u + dt/2 * R(u)/vol; primitives of u1; stage-2 flux
//                loop; send partials;
//             3  sum the partials, boundary closure, u += dt * R(u1)/vol.
//           R(u) does not depend on dt, so the CFL minimum costs 2P
//           messages per step and no superstep of its own, and every rank
//           sends only to rank 0 and its SPL peers (rank 0 also to all).
//           A flux stage first computes each active vertex's primitives
//           (velocity, pressure, wave speed) once, then loops over edges.
//           Each edge's flux is computed by its owner rank only and charged
//           to it (Outbox::charge), so the counter critical path sees the
//           solve. The time update runs redundantly on every copy, which
//           keeps shared vertex states bit-replicated without a broadcast.
//
// The result matches the serial solver on the gathered mesh up to
// floating-point summation order (bit for bit on one rank), and is
// bit-identical across engines and thread counts.

#include <utility>
#include <vector>

#include "pmesh/dist_mesh.hpp"
#include "solver/dual_metrics.hpp"
#include "solver/euler.hpp"

namespace plum::pmesh {

class ParallelEulerSolver {
 public:
  /// Free-stream states on every rank, then rebind().
  ParallelEulerSolver(DistMesh* dm, rt::Engine* eng,
                      solver::EulerOptions opt = {});

  /// Rebuilds the setup for the current local meshes and keeps the states,
  /// which must already follow them (one per local vertex): migrate() and
  /// parallel_coarsen() carry states(), subdivision interpolates into
  /// solution(r). Adds the two setup supersteps to the engine's ledger.
  void rebind();

  /// One RK2 step at the global CFL dt; returns dt and per-rank flux work.
  struct StepInfo {
    double dt = 0;
    std::vector<std::int64_t> edge_flux_evals;  ///< per rank
  };
  StepInfo step();

  /// Runs n steps; returns the edge flux evaluations summed over ranks.
  std::int64_t run(int nsteps);

  /// Per-rank conserved states (indexed by local vertex id).
  [[nodiscard]] const std::vector<solver::State>& solution(Rank r) const {
    return u_[static_cast<std::size_t>(r)];
  }
  std::vector<solver::State>& solution(Rank r) {
    return u_[static_cast<std::size_t>(r)];
  }
  /// Every rank's states, for a change of the local meshes to carry along
  /// (the `states` argument of migrate() and parallel_coarsen()).
  std::vector<std::vector<solver::State>>* states() { return &u_; }

  /// Global totals (mass/momentum/energy), each dual cell counted once.
  [[nodiscard]] solver::State totals() const;

  /// Per-rank density field (for the local error indicator).
  [[nodiscard]] std::vector<double> density_field(Rank r) const;

  /// Checks that every shared vertex holds identical states on all copies.
  void validate_replication() const;

 private:
  DistMesh* dm_;
  rt::Engine* eng_;
  solver::EulerOptions opt_;

  // Per-rank solver state.
  std::vector<solver::DualMetrics> metrics_;   ///< globalized quantities
  std::vector<std::vector<char>> edge_owned_;  ///< flux responsibility
  std::vector<std::vector<char>> vert_owned_;  ///< for global reductions
  std::vector<std::vector<Index>> active_;     ///< vertices with volume > 0
  /// A rank's residual exchange: its SPL peers in ascending rank order and,
  /// per peer, the (local vertex, remote id) pairs it sends them in
  /// ascending local id. Peer i's pairs are pairs[offsets[i], offsets[i+1]).
  struct ResidualPlan {
    std::vector<Rank> peers;
    std::vector<Index> offsets;
    std::vector<std::pair<Index, Index>> pairs;
  };
  std::vector<ResidualPlan> plan_;
  std::vector<std::vector<solver::State>> u_;

  [[nodiscard]] double pressure(const solver::State& s) const;
  /// Maximum wave speed of `s`, whose pressure is `p`.
  [[nodiscard]] double max_wave_speed(const solver::State& s, double p) const;
};

}  // namespace plum::pmesh
