#pragma once
// The host-side half of the paper's Fig. 1 loop that both drivers share
// (§4.2–4.6): the dual graph of the initial mesh, each root's processor,
// and the balance decision made on the predicted post-refinement weights —
//
//   loads -> trigger -> repartition -> similarity matrix -> mapper ->
//   remap volume -> gain vs cost -> GateRecord -> [remap]
//
// core::Framework and core::DistFramework differ only in how they solve,
// mark, refine and move data; the move is the callback an accepted
// decision runs, so the same inputs give both drivers the same decision.

#include <functional>

#include "core/options.hpp"
#include "mesh/tet_mesh.hpp"
#include "obs/gate_audit.hpp"
#include "obs/trace.hpp"
#include "partition/multilevel.hpp"

namespace plum::core {

/// Per-root weights (indexed by initial element) a decision reads.
struct RootLoads {
  std::vector<Weight> wcomp_pred;   ///< leaves after the pending subdivision
  std::vector<Weight> wremap_pred;  ///< tree sizes after it
  std::vector<Weight> wremap_cur;   ///< tree sizes now
};

/// Rejects options neither driver can honour, identically for both.
void check_options(const FrameworkOptions& opt);

/// Per-processor sums of per-root `weights` under root -> processor `owner`.
std::vector<Weight> proc_sums(const partition::PartVec& owner,
                              const std::vector<Weight>& weights,
                              Rank nprocs);

class Balancer {
 public:
  /// Builds the dual of `initial` and its initial F = 1 partition (one part
  /// per processor, seeded by opt.seed).
  Balancer(const mesh::TetMesh& initial, const FrameworkOptions& opt,
           obs::MemoryTracker& mem);

  /// Root -> processor now in force.
  [[nodiscard]] const partition::PartVec& owner() const { return owner_; }
  [[nodiscard]] const graph::Csr& dual() const { return dual_; }

  /// Executes an accepted remap to `new_owner` (in its own "remap" phase),
  /// moving `move_w` per root: the current trees before subdivision, the
  /// predicted ones after. Returns the bytes it moved, or 0 when the driver
  /// defers the move past subdivision and measures it there.
  using Move = std::function<std::int64_t(const partition::PartVec& new_owner,
                                          const std::vector<Weight>& move_w)>;

  /// One gate of cycle `cycle` (the "gate" phase and its
  /// repartition/reassign children), priced by sim::CostModel(opt.machine):
  /// fills the gate fields of `rep`, runs `move` when the gain beats the
  /// cost, then installs the new ownership. Returns the cycle's GateRecord
  /// (CycleLog::end records it).
  obs::GateRecord run(const FrameworkOptions& opt, int cycle,
                      const RootLoads& w, obs::TraceRecorder& trace,
                      obs::MemoryTracker& mem, CycleReport& rep,
                      const Move& move);

 private:
  graph::Csr dual_;
  partition::PartVec owner_;
};

}  // namespace plum::core
