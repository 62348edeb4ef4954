#pragma once
// Greedy k-way boundary refinement — the uncoarsening-phase "combination of
// boundary greedy and Kernighan-Lin refinement" (paper §4.2). Boundary
// vertices move to the adjacent part with the best cut gain, subject to a
// balance constraint; negative-gain moves are only taken to fix imbalance.

#include "obs/memory.hpp"
#include "partition/quality.hpp"
#include "util/rng.hpp"

namespace plum::partition {

struct RefineOptions {
  double imbalance_tol = 0.05;  ///< max part load <= (1+tol) * mean
  int max_passes = 8;
  /// When true, moves that worsen the cut are allowed from overloaded parts
  /// (load diffusion) — what makes warm-start repartitioning converge.
  bool allow_balancing_moves = true;
};

struct RefineStats {
  int passes = 0;
  std::int64_t moves = 0;
  Weight cut_before = 0;
  Weight cut_after = 0;
};

/// Refines `part` in place. Never empties a part. `scratch` (optional)
/// backs the KL-FM pass buffers (loads, counts, order, connection/stamp
/// tables) with a plum-mem arena.
RefineStats refine_kway(const graph::Csr& g, PartVec& part, Rank nparts,
                        const RefineOptions& opt, Rng& rng,
                        obs::Arena* scratch = nullptr);

}  // namespace plum::partition
