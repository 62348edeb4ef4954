#pragma once
// Traced replica of core::DistFramework. It makes the same construction and
// the same Fig. 1 call sequence as DistFramework::cycle() (coarsening and
// calibration off, as in every plum-bench workload), but drives it from
// here through each layer's public entry points and opens one span around
// every call. A span's superstep time is the wall time of the engine
// supersteps it ran (from the TraceRecorder the engine already feeds); the
// rest of the span is host time.
//
// The replica must stay call-for-call identical to the driver: main.cpp
// compares its fingerprint (elements, migration, gate verdict, ledger
// traffic, partition and solution hashes) with DistFramework::cycle() on
// the same seed, so a drift between the two fails the benchmark.

#include <array>
#include <memory>
#include <vector>

#include "core/dist_framework.hpp"
#include "workload.hpp"

namespace plumbench {

/// The traced layers. kRebind is the solver's metric setup after the mesh
/// changes (ParallelEulerSolver construction); it counts toward solver time.
enum Layer { kSolve, kRebind, kMark, kPartition, kRemap, kSim, kMigrate,
             kRefine, kNumLayers };

struct Span {
  double wall_s = 0;
  double superstep_s = 0;  ///< engine superstep wall time inside the span
};

/// One traced cycle: spans per layer plus the counts each layer produced.
struct TracedCycle {
  double wall_s = 0;
  double superstep_s = 0;  ///< all supersteps of the cycle
  std::array<Span, kNumLayers> spans{};
  CommDelta comm;           ///< engine ledger delta over the cycle

  Index solve_elements = 0;  ///< active elements during the solve
  std::int64_t flux_evals = 0;
  int mark_rounds = 0;       ///< propagation rounds of the first marking
  std::int64_t marks_exchanged = 0;
  int partition_levels = 0;
  plum::Weight edge_cut = 0;  ///< of the partition in force after the gate
  plum::remap::RemapVolume volume;
  bool evaluated = false;
  bool accepted = false;
  double gain_s = 0;
  double cost_s = 0;
  std::int64_t migrate_elems = 0;
  std::int64_t migrate_bytes = 0;
  double refine_work_imbalance = 1;
  Index elements_after = 0;
};

class Replica {
 public:
  /// Mirrors DistFramework's constructor, then sets the blast initial state.
  Replica(plum::mesh::TetMesh initial_global,
          const plum::core::FrameworkOptions& opt,
          const plum::solver::BlastSpec& blast);
  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  TracedCycle cycle();

  [[nodiscard]] plum::pmesh::DistMesh& dist_mesh() { return *dm_; }
  [[nodiscard]] plum::pmesh::ParallelEulerSolver& solver() { return *solver_; }
  [[nodiscard]] plum::rt::Engine& engine() { return *eng_; }
  [[nodiscard]] const plum::partition::PartVec& root_partition() const {
    return root_part_;
  }

 private:
  template <class F>
  void span(Layer layer, TracedCycle& tc, F&& call);
  void rebind_solver();

  plum::core::FrameworkOptions opt_;
  // Declared before eng_, which holds raw pointers to them.
  plum::obs::TraceRecorder trace_;
  plum::obs::FlightRecorder scope_;
  plum::obs::MemoryTracker mem_;
  std::unique_ptr<plum::rt::Engine> eng_;
  std::unique_ptr<plum::pmesh::DistMesh> dm_;
  std::unique_ptr<plum::pmesh::ParallelEulerSolver> solver_;
  std::vector<std::vector<plum::solver::State>> states_;
  plum::graph::Csr dual_;
  plum::partition::PartVec root_part_;
};

}  // namespace plumbench
