#pragma once
// The PLUM framework driver — the paper's Fig. 1 loop.
//
//   flow solver -> edge marking (error indicator) -> balance evaluation ->
//   [repartition -> processor reassignment -> gain/cost gate -> remap] ->
//   subdivision -> resume solver.
//
// The two-phase refinement split is what makes the "remap before
// subdivision" optimization possible: after mark(), the post-refinement
// dual-graph weights are exactly known, so the repartitioner balances the
// *future* mesh while the remapper moves only the *current* (smaller) one.
//
// This is the single-address-space driver: it solves, marks and refines
// one global mesh, and a remap installs the new ownership. The balance
// decision (core::Balancer), the marking rule (adapt::refine_threshold)
// and the cycle telemetry (core::CycleLog) are the ones core::DistFramework
// uses, so on the same flow field both drivers make the same decisions.

#include <memory>

#include "adapt/adaptor.hpp"
#include "core/driver.hpp"
#include "solver/euler.hpp"

namespace plum::core {

class Framework : public Driver {
 public:
  Framework(mesh::TetMesh mesh, FrameworkOptions opt);

  /// One full Fig. 1 cycle.
  CycleReport cycle();

  /// Runs n cycles; returns the reports.
  std::vector<CycleReport> run(int cycles);

  [[nodiscard]] const mesh::TetMesh& mesh() const { return *mesh_; }
  [[nodiscard]] mesh::TetMesh& mesh() { return *mesh_; }
  [[nodiscard]] solver::EulerSolver& solver() { return *solver_; }

  /// Per-processor solver load (current wcomp) under the current partition.
  [[nodiscard]] std::vector<Weight> processor_loads() const;

 private:
  // unique_ptr: the solver and adaptor hold stable pointers to the mesh.
  std::unique_ptr<mesh::TetMesh> mesh_;
  std::unique_ptr<solver::EulerSolver> solver_;
  std::unique_ptr<adapt::MeshAdaptor> adaptor_;
};

}  // namespace plum::core
