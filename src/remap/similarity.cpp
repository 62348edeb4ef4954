#include "remap/similarity.hpp"

#include <algorithm>

namespace plum::remap {

SimilarityMatrix::SimilarityMatrix(Rank nprocs, Rank nparts)
    : nprocs_(nprocs), nparts_(nparts) {
  PLUM_ASSERT(nprocs >= 1 && nparts >= nprocs && nparts % nprocs == 0);
  // plum-scale: host-only -- dense similarity fold happens host-side after the sparse row gather
  s_.assign(static_cast<std::size_t>(nprocs) * static_cast<std::size_t>(nparts),
            0);
}

SimilarityMatrix SimilarityMatrix::build(std::span<const Rank> current_proc,
                                         std::span<const Rank> new_part,
                                         std::span<const Weight> wremap,
                                         Rank nprocs, Rank nparts) {
  PLUM_ASSERT(current_proc.size() == new_part.size());
  PLUM_ASSERT(current_proc.size() == wremap.size());
  SimilarityMatrix S(nprocs, nparts);
  for (std::size_t v = 0; v < current_proc.size(); ++v) {
    S.at(current_proc[v], new_part[v]) += wremap[v];
  }
  return S;
}

std::vector<SimilarityCell> SimilarityMatrix::build_row_sparse(
    Rank proc, std::span<const Rank> current_proc,
    std::span<const Rank> new_part, std::span<const Weight> wremap) {
  std::vector<SimilarityCell> row;
  for (std::size_t v = 0; v < current_proc.size(); ++v) {
    if (current_proc[v] != proc) continue;
    row.push_back({new_part[v], wremap[v]});
  }
  std::sort(row.begin(), row.end(),
            [](const SimilarityCell& a, const SimilarityCell& b) {
              return a.part < b.part;
            });
  // Merge duplicates in place: the row ends up sorted and unique.
  std::size_t w = 0;
  for (std::size_t r = 0; r < row.size(); ++r) {
    if (w > 0 && row[w - 1].part == row[r].part) {
      row[w - 1].w += row[r].w;
    } else {
      row[w++] = row[r];
    }
  }
  row.resize(w);
  return row;
}

SimilarityMatrix SimilarityMatrix::from_sparse_rows(
    const std::vector<std::vector<SimilarityCell>>& rows, Rank nparts) {
  PLUM_ASSERT(!rows.empty());
  const auto nprocs = static_cast<Rank>(rows.size());
  SimilarityMatrix S(nprocs, nparts);
  for (Rank i = 0; i < nprocs; ++i) {
    for (const SimilarityCell& c : rows[static_cast<std::size_t>(i)]) {
      S.at(i, c.part) += c.w;
    }
  }
  return S;
}

Weight SimilarityMatrix::row_sum(Rank i) const {
  Weight sum = 0;
  for (Rank j = 0; j < nparts_; ++j) sum += at(i, j);
  return sum;
}

Weight SimilarityMatrix::col_sum(Rank j) const {
  Weight sum = 0;
  for (Rank i = 0; i < nprocs_; ++i) sum += at(i, j);
  return sum;
}

int SimilarityMatrix::nonzeros() const {
  int nz = 0;
  for (const Weight w : s_) nz += (w != 0);
  return nz;
}

}  // namespace plum::remap
