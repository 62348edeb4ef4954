#pragma once
// MeshAdaptor — the 3D_TAG facade. Exposes the two-phase refinement split
// (marking, then subdivision) that the load balancer exploits: after
// mark(), the post-refinement dual-graph weights are exactly predictable,
// so remapping can run on the small pre-refinement mesh (paper §4.6).

#include <vector>

#include "adapt/coarsen.hpp"
#include "adapt/error_indicator.hpp"
#include "adapt/marking.hpp"
#include "adapt/refine.hpp"
#include "mesh/tet_mesh.hpp"
#include "util/timer.hpp"

namespace plum::adapt {

/// Predicted dual-graph weights as if the pending subdivision had already
/// happened — what the load balancer repartitions on.
struct PredictedWeights {
  std::vector<Weight> wcomp;
  std::vector<Weight> wremap;
};

class MeshAdaptor {
 public:
  explicit MeshAdaptor(mesh::TetMesh* mesh) : mesh_(mesh) {
    PLUM_ASSERT(mesh != nullptr);
  }

  /// Marking phase: propagates `seed_marks` to valid patterns. Stores the
  /// result for the subsequent refine() and weight prediction.
  const MarkingResult& mark(const std::vector<char>& seed_marks);

  /// Convenience: marks at most `fraction` of the active edges, the
  /// highest-error ones, by the shared refine_threshold rule.
  const MarkingResult& mark_fraction(const std::vector<double>& err,
                                     double fraction);

  /// Dual weights of the initial mesh adjusted "as though subdivision has
  /// already taken place" (paper §4.6). Valid after mark().
  [[nodiscard]] PredictedWeights predicted_weights() const;

  /// Subdivision phase for the pending marks. `scratch` arena-backs the
  /// pass-local leaf snapshot (plum-mem); default = plain heap.
  RefineStats refine(obs::Arena* scratch = nullptr);

  /// Coarsening (invalidates any pending marking — ids change). The hook
  /// semantics are those of coarsen_mesh's on_compaction.
  CoarsenStats coarsen(
      const std::vector<char>& coarsen_marks,
      const std::function<void(const std::vector<Index>&)>& on_compaction =
          {});

  [[nodiscard]] mesh::TetMesh& mesh() { return *mesh_; }

  /// Wall-clock accounting per phase.
  PhaseTimer mark_timer;
  PhaseTimer refine_timer;
  PhaseTimer coarsen_timer;

 private:
  mesh::TetMesh* mesh_;
  MarkingResult marks_;
  bool has_marks_ = false;
};

}  // namespace plum::adapt
