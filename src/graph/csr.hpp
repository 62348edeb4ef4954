#pragma once
// Compressed-sparse-row undirected graph with per-vertex weights.
//
// This is the common currency of the load balancer: the dual graph of the
// initial mesh (DESIGN.md #4), every coarsened level inside the multilevel
// partitioner, and the inputs of the repartition evaluator are all `Csr`.
//
// Each vertex carries the paper's two weights:
//   wcomp  — computational weight (leaf count of the element's refinement
//            tree; what the flow solver pays per iteration),
//   wremap — remapping weight (total node count of the tree; what migration
//            pays when the element changes processor).
// Edge weights model communication volume across the corresponding face.

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "util/assert.hpp"
#include "util/types.hpp"

namespace plum::graph {

class Csr {
 public:
  Csr() = default;

  /// Builds from an undirected edge list; each {u,v} pair is stored in both
  /// adjacency rows. Self loops and duplicate edges are rejected by debug
  /// validation (call `validate()`), not silently merged.
  static Csr from_edges(Index num_vertices,
                        std::span<const std::pair<Index, Index>> edges,
                        std::span<const Weight> edge_weights = {});

  [[nodiscard]] Index num_vertices() const {
    return static_cast<Index>(xadj_.size()) - 1;
  }
  [[nodiscard]] std::int64_t num_edges() const {
    return static_cast<std::int64_t>(adjncy_.size()) / 2;
  }

  /// Neighbors of `v` (unordered).
  [[nodiscard]] std::span<const Index> neighbors(Index v) const {
    return {adjncy_.data() + xadj_[v], adjncy_.data() + xadj_[v + 1]};
  }
  /// Weights of the incident edges, aligned with neighbors(v).
  [[nodiscard]] std::span<const Weight> edge_weights(Index v) const {
    return {adjwgt_.data() + xadj_[v], adjwgt_.data() + xadj_[v + 1]};
  }

  [[nodiscard]] Index degree(Index v) const {
    return static_cast<Index>(xadj_[v + 1] - xadj_[v]);
  }

  [[nodiscard]] Weight wcomp(Index v) const { return wcomp_[v]; }
  [[nodiscard]] Weight wremap(Index v) const { return wremap_[v]; }

  void set_weights(std::vector<Weight> wcomp, std::vector<Weight> wremap);

  [[nodiscard]] Weight total_wcomp() const;
  [[nodiscard]] Weight total_wremap() const;

  /// Checks structural invariants (symmetry, sorted-free duplicates, no self
  /// loops, weight array sizes). Aborts on violation. O(V + E log E).
  void validate() const;

 private:
  // xadj_ has V+1 entries; adjncy_/adjwgt_ have 2E entries.
  std::vector<std::int64_t> xadj_{0};
  std::vector<Index> adjncy_;
  std::vector<Weight> adjwgt_;
  std::vector<Weight> wcomp_;
  std::vector<Weight> wremap_;
};

}  // namespace plum::graph
