#pragma once
// Subdivision phase (paper §3): bisects every marked edge and replaces each
// targeted element by its 2 / 4 / 8 children, then subdivides boundary
// faces to match. Requires a MarkingResult whose patterns are all valid
// (i.e. propagate_marks already ran).

#include "adapt/marking.hpp"
#include "obs/memory.hpp"

namespace plum::adapt {

struct RefineStats {
  Index edges_bisected = 0;
  Index elements_refined = 0;
  Index children_created = 0;
  Index bfaces_refined = 0;
  /// Work units (children created) — the subdivision-phase load metric the
  /// remap-before-refinement strategy balances.
  [[nodiscard]] Index work_units() const { return children_created; }
};

/// `scratch` (optional) arena-backs the subdivision pass's leaf-id
/// snapshot (plum-mem).
RefineStats refine_mesh(mesh::TetMesh& mesh, const MarkingResult& marks,
                        obs::Arena* scratch = nullptr);

}  // namespace plum::adapt
