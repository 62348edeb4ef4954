#pragma once
// Parallel mesh adaption over the distributed mesh (paper §3, "execution
// phase"): every rank runs the serial 3D_TAG kernels on its local region
// while explicit messages keep the shared-edge markings and the SPLs of
// newly created boundary objects globally consistent.
//
//  - parallel_mark: local pattern-upgrade propagation; after each sweep the
//    newly marked local copies of shared edges are sent to every rank in
//    their SPL; repeats until global quiescence ("the process may continue
//    for several iterations, and edge markings could propagate back and
//    forth across partitions").
//  - parallel_refine: local subdivision per the final patterns, then the
//    post-processing phase that assigns shared-processor information to new
//    boundary objects: children/midpoints of bisected shared edges inherit
//    the SPL; face-crossing edges are matched by exchanging their (shared)
//    endpoint correspondences.

#include <functional>
#include <vector>

#include "adapt/marking.hpp"
#include "adapt/refine.hpp"
#include "obs/memory.hpp"
#include "pmesh/dist_mesh.hpp"

namespace plum::pmesh {

struct ParallelMarkResult {
  /// Per-rank final MarkingResult on the local mesh.
  std::vector<adapt::MarkingResult> per_rank;
  /// Number of cross-partition propagation rounds (communication steps).
  int comm_rounds = 0;
  /// Total shared-edge mark notifications exchanged.
  std::int64_t marks_exchanged = 0;
};

/// Rank r's seed marks (indexed by local edge id), built by `r` inside the
/// marking program's first superstep.
using SeedRowFn = std::function<std::vector<char>(Rank, rt::Outbox&)>;

/// Runs distributed marking from per-rank seed marks. The engine's ledger
/// accumulates the traffic. A non-null `mem` arena-backs each rank's
/// per-destination mark staging buckets through that rank's scratch row
/// (plum-mem ownership rule).
ParallelMarkResult parallel_mark(DistMesh& dm, rt::Engine& eng,
                                 const SeedRowFn& seed_row,
                                 obs::MemoryTracker* mem = nullptr);

/// As above, with the seeds built beforehand (one row per rank).
ParallelMarkResult parallel_mark(
    DistMesh& dm, rt::Engine& eng,
    const std::vector<std::vector<char>>& seed_marks,
    obs::MemoryTracker* mem = nullptr);

struct ParallelRefineResult {
  std::vector<adapt::RefineStats> per_rank;
  /// Subdivision work units (children created) per rank — the load whose
  /// balance the remap-before-refinement strategy improves (Fig. 4).
  std::vector<Index> work_per_rank;
  /// New shared-object records created in the post-processing phase.
  std::int64_t new_shared_edges = 0;
  std::int64_t new_shared_verts = 0;
};

/// Subdivides every rank's local mesh per `marks` (from parallel_mark) and
/// repairs the SPL maps for objects created on partition boundaries. A
/// non-null `mem` arena-backs the subdivision snapshots and the
/// post-processing staging buckets per rank row.
ParallelRefineResult parallel_refine(DistMesh& dm, rt::Engine& eng,
                                     const ParallelMarkResult& marks,
                                     obs::MemoryTracker* mem = nullptr);

}  // namespace plum::pmesh
