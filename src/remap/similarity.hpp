#pragma once
// Similarity matrix S (paper §4.3): entry S(i,j) is the sum of the
// remapping weights Wremap of all dual-graph vertices in *new partition j*
// that currently reside on *processor i*. In the parallel system each
// processor computes its own row and a host gathers them (one P×F-integer
// row per processor — "a minuscule amount of time"); we expose the same
// row-wise construction so the runtime benches can charge that traffic.

#include <span>
#include <vector>

#include "util/assert.hpp"
#include "util/types.hpp"

namespace plum::remap {

/// One non-zero of a processor's similarity row: weight headed for new
/// partition `part`. A processor's row has O(F + cut-neighbors) of these
/// regardless of P, so gathering sparse rows moves O(nonzeros) bytes where
/// the dense gather moved O(P * P * F).
struct SimilarityCell {
  Rank part = kNoRank;
  Weight w = 0;
  friend bool operator==(const SimilarityCell&, const SimilarityCell&) =
      default;
};

class SimilarityMatrix {
 public:
  SimilarityMatrix() = default;

  /// Dense P x (P*F) matrix, zero-initialized.
  SimilarityMatrix(Rank nprocs, Rank nparts);

  /// Builds from per-dual-vertex data: current owner processor, new
  /// partition id, and remap weight.
  static SimilarityMatrix build(std::span<const Rank> current_proc,
                                std::span<const Rank> new_part,
                                std::span<const Weight> wremap, Rank nprocs,
                                Rank nparts);

  /// One row in sparse form: only the partitions this processor actually
  /// sends weight to, sorted by partition id. This is what a rank ships
  /// to the host gather.
  static std::vector<SimilarityCell> build_row_sparse(
      Rank proc, std::span<const Rank> current_proc,
      std::span<const Rank> new_part, std::span<const Weight> wremap);

  /// Assembles from gathered sparse rows (rows[i] is processor i's row).
  /// The dense fold happens here, host-side, after the gather.
  static SimilarityMatrix from_sparse_rows(
      const std::vector<std::vector<SimilarityCell>>& rows, Rank nparts);

  [[nodiscard]] Rank nprocs() const { return nprocs_; }
  [[nodiscard]] Rank nparts() const { return nparts_; }
  /// Partitions per processor (the paper's F).
  [[nodiscard]] Rank f() const { return nparts_ / nprocs_; }

  [[nodiscard]] Weight at(Rank i, Rank j) const {
    return s_[index(i, j)];
  }
  Weight& at(Rank i, Rank j) { return s_[index(i, j)]; }

  /// Row sum R_i: total weight currently on processor i.
  [[nodiscard]] Weight row_sum(Rank i) const;
  /// Column sum W_j: total weight of new partition j.
  [[nodiscard]] Weight col_sum(Rank j) const;

  /// Number of non-zero entries (candidate "sets" of elements to move).
  [[nodiscard]] int nonzeros() const;

 private:
  [[nodiscard]] std::size_t index(Rank i, Rank j) const {
    PLUM_ASSERT(i >= 0 && i < nprocs_ && j >= 0 && j < nparts_);
    return static_cast<std::size_t>(i) * static_cast<std::size_t>(nparts_) +
           static_cast<std::size_t>(j);
  }

  Rank nprocs_ = 0;
  Rank nparts_ = 0;
  std::vector<Weight> s_;
};

}  // namespace plum::remap
