#pragma once
// Fully distributed framework driver — the paper's Fig. 1 loop with every
// phase running on the distributed substrate:
//
//   parallel flow solver (owner-computes fluxes, SPL residual exchange)
//   -> local error indicator; each rank's owned edge errors gathered to
//      the host for the shared marking threshold (adapt::refine_threshold)
//   -> parallel edge marking with cross-partition propagation
//   -> per-rank predicted weights gathered to the host
//   -> host: the shared core::Balancer (repartition the initial-mesh dual,
//      processor reassignment, gain/cost gate, §4.2-4.6)
//   -> accepted: migrate subtrees + solution (remap before subdivision)
//   -> parallel refinement with SPL repair
//
// Complements core::Framework (the single-address-space driver): both make
// their decisions through the same Balancer, marking rule and CycleLog, so
// on the same flow field they agree exactly. Everything here moves through
// the BSP engine, so the ledger records the true communication pattern of
// one adaption cycle.

#include <memory>

#include "core/driver.hpp"
#include "obs/scope.hpp"
#include "pmesh/dist_mesh.hpp"
#include "pmesh/parallel_solver.hpp"

namespace plum::core {

class DistFramework : public Driver {
 public:
  DistFramework(mesh::TetMesh initial_global, FrameworkOptions opt);
  ~DistFramework();
  // Move-only, like the engine it owns. NB the engine's observer/sink and
  // the postmortem hook hold addresses into this object, so a framework
  // may only be moved before use (the factory-return pattern; in practice
  // NRVO elides even that).
  DistFramework(DistFramework&&) = default;
  DistFramework& operator=(DistFramework&&) = delete;

  CycleReport cycle();

  [[nodiscard]] pmesh::DistMesh& dist_mesh() { return *dm_; }
  [[nodiscard]] rt::Engine& engine() { return *eng_; }
  [[nodiscard]] pmesh::ParallelEulerSolver& solver() { return *solver_; }
  /// Per-rank active element counts (the solver load balance achieved).
  [[nodiscard]] std::vector<Index> elements_per_rank() const {
    return dm_->active_elements_per_rank();
  }

  /// plum-scope flight recorder: a fixed-capacity per-rank event ring the
  /// engine feeds as a rt::RankScopeSink (one event per rank per
  /// superstep, overwrite-oldest). Always on; a failed PLUM_ASSERT
  /// flushes its last-N events per rank to POSTMORTEM_<scope_name>.json
  /// before aborting.
  [[nodiscard]] obs::FlightRecorder& scope() { return scope_; }
  [[nodiscard]] const obs::FlightRecorder& scope() const { return scope_; }

 private:
  /// Copies the solver's per-rank states into `states_`, for a change of
  /// the local meshes to carry along before rebind_solver().
  std::vector<std::vector<solver::State>>* save_states();
  /// Rebinds the parallel solver to the current distribution, keeping the
  /// per-rank states in `states_`.
  void rebind_solver();

  // Declared before eng_ (like the base's trace_ and mem_): the engine
  // holds raw observer/sink pointers to the recorders, so they must be
  // destroyed after the engine.
  obs::FlightRecorder scope_;
  std::unique_ptr<rt::Engine> eng_;
  std::unique_ptr<pmesh::DistMesh> dm_;
  std::unique_ptr<pmesh::ParallelEulerSolver> solver_;
  std::vector<std::vector<solver::State>> states_;
};

}  // namespace plum::core
