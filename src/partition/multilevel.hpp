#pragma once
// Multilevel k-way graph partitioner (our from-scratch stand-in for the
// "alpha version of parallel MeTiS" of paper §4.2).
//
// partition():   HEM coarsening -> GGGP recursive bisection on the coarsest
//                graph -> uncoarsening with greedy k-way boundary refinement.
// repartition(): uses the previous partition as the initial guess (the
//                property of parallel MeTiS the paper highlights, because it
//                shrinks the remapping volume); falls back to a scratch
//                partition when diffusion cannot restore balance.
//
// Level statistics are recorded so the SP2 machine model can estimate what
// the *parallel* partitioner's execution time would be (DESIGN.md §3).

#include <vector>

#include "obs/memory.hpp"
#include "partition/quality.hpp"
#include "util/rng.hpp"

namespace plum::partition {

struct MultilevelOptions {
  Rank nparts = 2;
  double imbalance_tol = 0.05;
  /// Coarsening stops at max(coarsen_to_per_part * nparts, 64) vertices or
  /// when a level shrinks by < 10%.
  Index coarsen_to_per_part = 15;
  int refine_passes = 8;
  std::uint64_t seed = 12345;
  /// Optional plum-mem arena threaded down to coarsen_hem and refine_kway
  /// so their phase-local buffers are arena-backed. nullptr (the default)
  /// means plain heap.
  obs::Arena* scratch = nullptr;
};

struct LevelStat {
  Index num_vertices = 0;
  std::int64_t num_edges = 0;
};

struct MultilevelResult {
  PartVec part;
  Weight cut = 0;
  double imbalance = 0;
  std::vector<LevelStat> levels;   ///< finest..coarsest
  bool used_previous = false;      ///< repartition kept the warm start
};

MultilevelResult partition(const graph::Csr& g, const MultilevelOptions& opt);

/// Repartition with warm start from `previous` (same graph, new weights).
MultilevelResult repartition(const graph::Csr& g, const PartVec& previous,
                             const MultilevelOptions& opt);

}  // namespace plum::partition
