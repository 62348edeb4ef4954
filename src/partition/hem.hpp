#pragma once
// Heavy-edge-matching coarsening (one multilevel level). "MeTiS reduces the
// size of the graph by collapsing vertices and edges using a heavy edge
// matching scheme" (paper §4.2) — matched pairs merge into one coarse
// vertex; both vertex weights add; parallel edges between coarse vertices
// merge with summed weights.

#include <vector>

#include "graph/csr.hpp"
#include "obs/memory.hpp"
#include "util/rng.hpp"

namespace plum::partition {

struct CoarseLevel {
  graph::Csr graph;            ///< the coarser graph
  std::vector<Index> cmap;     ///< fine vertex -> coarse vertex
};

/// One HEM pass: visits vertices in a seeded random order; each unmatched
/// vertex matches its heaviest-edge unmatched neighbor (or stays single).
/// `scratch` (optional) backs the matching's phase-local buffers with a
/// plum-mem arena; the result never aliases arena memory.
CoarseLevel coarsen_hem(const graph::Csr& g, Rng& rng,
                        obs::Arena* scratch = nullptr);

}  // namespace plum::partition
