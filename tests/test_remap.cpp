// Unit + property tests for the similarity matrix and the three processor
// reassignment algorithms, including the paper's Theorem 1 bound
// (heuristic objective >= 1/2 optimal) verified over random matrices.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <limits>
#include <set>

#include "remap/mapping.hpp"
#include "remap/matching.hpp"
#include "remap/similarity.hpp"
#include "remap/volume.hpp"
#include "util/rng.hpp"

namespace plum::remap {
namespace {

/// The original recursive Hopcroft-Karp DFS, kept verbatim as the reference
/// the iterative production kernel (remap/matching.cpp) must reproduce
/// exactly — same traversal order, same matching, not just the same size.
int hopcroft_karp_reference(const std::vector<std::vector<Rank>>& adj, Rank n,
                            std::vector<Rank>& match_l) {
  std::vector<Rank> match_r(static_cast<std::size_t>(n), kNoRank);
  match_l.assign(static_cast<std::size_t>(n), kNoRank);
  std::vector<Rank> dist(static_cast<std::size_t>(n));
  constexpr Rank kInfDist = std::numeric_limits<Rank>::max();

  auto bfs = [&]() {
    std::deque<Rank> q;
    for (Rank l = 0; l < n; ++l) {
      if (match_l[static_cast<std::size_t>(l)] == kNoRank) {
        dist[static_cast<std::size_t>(l)] = 0;
        q.push_back(l);
      } else {
        dist[static_cast<std::size_t>(l)] = kInfDist;
      }
    }
    bool found = false;
    while (!q.empty()) {
      const Rank l = q.front();
      q.pop_front();
      for (Rank r : adj[static_cast<std::size_t>(l)]) {
        const Rank next = match_r[static_cast<std::size_t>(r)];
        if (next == kNoRank) {
          found = true;
        } else if (dist[static_cast<std::size_t>(next)] == kInfDist) {
          dist[static_cast<std::size_t>(next)] =
              dist[static_cast<std::size_t>(l)] + 1;
          q.push_back(next);
        }
      }
    }
    return found;
  };

  std::function<bool(Rank)> dfs = [&](Rank l) -> bool {
    for (Rank r : adj[static_cast<std::size_t>(l)]) {
      const Rank next = match_r[static_cast<std::size_t>(r)];
      if (next == kNoRank ||
          (dist[static_cast<std::size_t>(next)] ==
               dist[static_cast<std::size_t>(l)] + 1 &&
           dfs(next))) {
        match_l[static_cast<std::size_t>(l)] = r;
        match_r[static_cast<std::size_t>(r)] = l;
        return true;
      }
    }
    dist[static_cast<std::size_t>(l)] = std::numeric_limits<Rank>::max();
    return false;
  };

  int matched = 0;
  while (bfs()) {
    for (Rank l = 0; l < n; ++l) {
      if (match_l[static_cast<std::size_t>(l)] == kNoRank && dfs(l)) {
        ++matched;
      }
    }
  }
  return matched;
}

bool is_permutation_assignment(const Assignment& a, Rank nprocs, Rank f) {
  std::vector<int> count(static_cast<std::size_t>(nprocs), 0);
  for (Rank p : a.part_to_proc) {
    if (p < 0 || p >= nprocs) return false;
    ++count[static_cast<std::size_t>(p)];
  }
  return std::all_of(count.begin(), count.end(),
                     [&](int c) { return c == f; });
}

SimilarityMatrix random_matrix(Rank P, Rank F, Rng& rng, int density = 60) {
  SimilarityMatrix S(P, P * F);
  for (Rank i = 0; i < P; ++i) {
    for (Rank j = 0; j < P * F; ++j) {
      if (rng.below(100) < static_cast<std::uint64_t>(density)) {
        S.at(i, j) = static_cast<Weight>(rng.below(1000));
      }
    }
  }
  return S;
}

/// Brute-force optimal objective for tiny P (F = 1).
Weight brute_force_optimal(const SimilarityMatrix& S) {
  const Rank P = S.nprocs();
  std::vector<Rank> perm(static_cast<std::size_t>(P));
  for (Rank i = 0; i < P; ++i) perm[static_cast<std::size_t>(i)] = i;
  Weight best = -1;
  do {
    Weight obj = 0;
    for (Rank i = 0; i < P; ++i) obj += S.at(i, perm[static_cast<std::size_t>(i)]);
    best = std::max(best, obj);
  } while (std::next_permutation(perm.begin(), perm.end()));
  return best;
}

/// Brute-force optimal MaxV bottleneck for tiny P.
double brute_force_bmcm(const SimilarityMatrix& S) {
  const Rank P = S.nprocs();
  std::vector<Weight> R(static_cast<std::size_t>(P)), W(static_cast<std::size_t>(P));
  for (Rank i = 0; i < P; ++i) R[static_cast<std::size_t>(i)] = S.row_sum(i);
  for (Rank j = 0; j < P; ++j) W[static_cast<std::size_t>(j)] = S.col_sum(j);
  std::vector<Rank> perm(static_cast<std::size_t>(P));
  for (Rank i = 0; i < P; ++i) perm[static_cast<std::size_t>(i)] = i;
  double best = 1e30;
  do {
    double bottleneck = 0;
    for (Rank i = 0; i < P; ++i) {
      const Rank j = perm[static_cast<std::size_t>(i)];
      const double sent = static_cast<double>(R[static_cast<std::size_t>(i)] - S.at(i, j));
      const double recv = static_cast<double>(W[static_cast<std::size_t>(j)] - S.at(i, j));
      bottleneck = std::max(bottleneck, std::max(sent, recv));
    }
    best = std::min(best, bottleneck);
  } while (std::next_permutation(perm.begin(), perm.end()));
  return best;
}

TEST(Similarity, BuildFromVertexData) {
  // 4 dual vertices on 2 procs mapping into 2 new partitions.
  std::vector<Rank> cur = {0, 0, 1, 1};
  std::vector<Rank> npart = {0, 1, 1, 1};
  std::vector<Weight> w = {5, 3, 7, 2};
  const auto S = SimilarityMatrix::build(cur, npart, w, 2, 2);
  EXPECT_EQ(S.at(0, 0), 5);
  EXPECT_EQ(S.at(0, 1), 3);
  EXPECT_EQ(S.at(1, 0), 0);
  EXPECT_EQ(S.at(1, 1), 9);
  EXPECT_EQ(S.row_sum(0), 8);
  EXPECT_EQ(S.col_sum(1), 12);
  EXPECT_EQ(S.nonzeros(), 3);
}

TEST(Similarity, SparseRowsRoundTripMatchesDense) {
  Rng rng(7);
  std::vector<Rank> cur, npart;
  std::vector<Weight> w;
  for (int v = 0; v < 300; ++v) {
    cur.push_back(static_cast<Rank>(rng.below(4)));
    npart.push_back(static_cast<Rank>(rng.below(8)));
    w.push_back(static_cast<Weight>(rng.below(10) + 1));
  }
  const auto dense = SimilarityMatrix::build(cur, npart, w, 4, 8);
  std::vector<std::vector<SimilarityCell>> rows;
  int total_cells = 0;
  for (Rank p = 0; p < 4; ++p) {
    rows.push_back(SimilarityMatrix::build_row_sparse(p, cur, npart, w));
    // Sparse rows are sorted by partition, unique, and hold no zeros.
    for (std::size_t k = 0; k < rows.back().size(); ++k) {
      if (k > 0) {
        EXPECT_LT(rows.back()[k - 1].part, rows.back()[k].part);
      }
      EXPECT_NE(rows.back()[k].w, 0);
    }
    total_cells += static_cast<int>(rows.back().size());
  }
  const auto assembled = SimilarityMatrix::from_sparse_rows(rows, 8);
  for (Rank i = 0; i < 4; ++i) {
    for (Rank j = 0; j < 8; ++j) EXPECT_EQ(dense.at(i, j), assembled.at(i, j));
  }
  // The gather moves exactly the nonzeros, not P*P*F weights.
  EXPECT_EQ(total_cells, dense.nonzeros());
}

TEST(Similarity, SparseRowOfIdleProcessorIsEmpty) {
  std::vector<Rank> cur = {0, 0, 1, 1};
  std::vector<Rank> npart = {0, 1, 1, 1};
  std::vector<Weight> w = {5, 3, 7, 2};
  EXPECT_TRUE(SimilarityMatrix::build_row_sparse(3, cur, npart, w).empty());
  const auto row0 = SimilarityMatrix::build_row_sparse(0, cur, npart, w);
  ASSERT_EQ(row0.size(), 2u);
  EXPECT_EQ(row0[0], (SimilarityCell{0, 5}));
  EXPECT_EQ(row0[1], (SimilarityCell{1, 3}));
}

TEST(Mwbg, OptimalOnTinyMatrixMatchesBruteForce) {
  Rng rng(5);
  for (int trial = 0; trial < 30; ++trial) {
    const auto S = random_matrix(4, 1, rng);
    const auto opt = map_optimal_mwbg(S);
    EXPECT_TRUE(is_permutation_assignment(opt, 4, 1));
    EXPECT_EQ(opt.objective, brute_force_optimal(S)) << "trial " << trial;
  }
}

TEST(Mwbg, DiagonalDominantKeepsIdentity) {
  SimilarityMatrix S(3, 3);
  for (Rank i = 0; i < 3; ++i) S.at(i, i) = 100;
  S.at(0, 1) = 5;
  const auto opt = map_optimal_mwbg(S);
  for (Rank j = 0; j < 3; ++j) EXPECT_EQ(opt.part_to_proc[j], j);
}

TEST(Mwbg, HandlesFGreaterThanOne) {
  Rng rng(6);
  const Rank P = 3, F = 2;
  const auto S = random_matrix(P, F, rng);
  const auto opt = map_optimal_mwbg(S);
  EXPECT_TRUE(is_permutation_assignment(opt, P, F));
  // Optimal must be at least as good as greedy.
  const auto heu = map_heuristic_greedy(S);
  EXPECT_GE(opt.objective, heu.objective);
}

TEST(Greedy, ProducesValidAssignment) {
  Rng rng(7);
  const auto S = random_matrix(8, 1, rng);
  const auto heu = map_heuristic_greedy(S);
  EXPECT_TRUE(is_permutation_assignment(heu, 8, 1));
}

TEST(Greedy, Theorem1HalfOptimalBound) {
  // Paper Theorem 1: heuristic objective > optimal / 2, over many random
  // matrices of varying shape and density.
  Rng rng(8);
  for (int trial = 0; trial < 200; ++trial) {
    const Rank P = static_cast<Rank>(2 + rng.below(5));  // 2..6
    const auto S = random_matrix(P, 1, rng, 30 + static_cast<int>(rng.below(70)));
    const auto heu = map_heuristic_greedy(S);
    const auto opt = map_optimal_mwbg(S);
    EXPECT_GE(2 * heu.objective, opt.objective)
        << "P=" << P << " trial=" << trial;
    EXPECT_LE(heu.objective, opt.objective);
  }
}

TEST(Greedy, CorollaryDataMovementAtMostTwiceOptimal) {
  // Corollary to Theorem 1: moved volume <= 2 * optimal moved volume...
  // verified in its equivalent form sum(S) - Heu <= 2 (sum(S) - Opt).
  Rng rng(9);
  for (int trial = 0; trial < 100; ++trial) {
    const auto S = random_matrix(5, 1, rng);
    Weight total = 0;
    for (Rank i = 0; i < 5; ++i) total += S.row_sum(i);
    const auto heu = map_heuristic_greedy(S);
    const auto opt = map_optimal_mwbg(S);
    EXPECT_LE(total - heu.objective, 2 * (total - opt.objective));
  }
}

TEST(Greedy, MatchesPaperExampleShape) {
  // Greedy on a diagonal-heavy matrix assigns every large entry.
  SimilarityMatrix S(4, 4);
  S.at(0, 0) = 50;
  S.at(1, 1) = 40;
  S.at(2, 2) = 30;
  S.at(3, 3) = 20;
  S.at(0, 1) = 10;
  const auto heu = map_heuristic_greedy(S);
  EXPECT_EQ(heu.objective, 140);
}

TEST(Matching, IterativeHopcroftKarpIdenticalToRecursiveReference) {
  // The explicit-stack DFS must be observationally identical to the old
  // recursive one: identical matching vectors on random graphs of varying
  // density, including graphs with no perfect matching.
  Rng rng(21);
  for (int trial = 0; trial < 300; ++trial) {
    const Rank n = static_cast<Rank>(1 + rng.below(12));
    const int density = 5 + static_cast<int>(rng.below(95));
    std::vector<std::vector<Rank>> adj(static_cast<std::size_t>(n));
    for (Rank l = 0; l < n; ++l) {
      for (Rank r = 0; r < n; ++r) {
        if (rng.below(100) < static_cast<std::uint64_t>(density)) {
          adj[static_cast<std::size_t>(l)].push_back(r);
        }
      }
    }
    std::vector<Rank> got, want;
    const int got_n = hopcroft_karp(adj, n, got);
    const int want_n = hopcroft_karp_reference(adj, n, want);
    EXPECT_EQ(got_n, want_n) << "n=" << n << " trial=" << trial;
    EXPECT_EQ(got, want) << "n=" << n << " trial=" << trial;
  }
}

TEST(Matching, EmptyAndCompleteGraphs) {
  std::vector<Rank> m;
  EXPECT_EQ(hopcroft_karp({{}, {}}, 2, m), 0);
  EXPECT_EQ(m, (std::vector<Rank>{kNoRank, kNoRank}));

  const Rank n = 40;  // deep augmenting paths exercise the explicit stack
  std::vector<std::vector<Rank>> adj(static_cast<std::size_t>(n));
  for (Rank l = 0; l < n; ++l) {
    // Every left vertex prefers the same few right vertices first, forcing
    // long alternating chains before the matching completes.
    for (Rank r = 0; r < n; ++r) adj[static_cast<std::size_t>(l)].push_back(r % n);
  }
  EXPECT_EQ(hopcroft_karp(adj, n, m), n);
  std::vector<Rank> ref;
  EXPECT_EQ(hopcroft_karp_reference(adj, n, ref), n);
  EXPECT_EQ(m, ref);
}

TEST(Bmcm, OptimalBottleneckMatchesBruteForce) {
  Rng rng(10);
  for (int trial = 0; trial < 30; ++trial) {
    const auto S = random_matrix(4, 1, rng);
    const auto bm = map_optimal_bmcm(S);
    EXPECT_TRUE(is_permutation_assignment(bm, 4, 1));
    const auto vol = evaluate_assignment(S, bm);
    EXPECT_NEAR(vol.maxv_cost, brute_force_bmcm(S), 1e-9) << trial;
  }
}

TEST(Bmcm, NeverWorseBottleneckThanMwbg) {
  Rng rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    const auto S = random_matrix(6, 1, rng);
    const auto bm = evaluate_assignment(S, map_optimal_bmcm(S));
    const auto mw = evaluate_assignment(S, map_optimal_mwbg(S));
    EXPECT_LE(bm.maxv_cost, mw.maxv_cost + 1e-9);
  }
}

TEST(Bmcm, AlphaBetaAsymmetry) {
  // With beta >> alpha receives dominate; the mapper must adapt.
  Rng rng(12);
  const auto S = random_matrix(5, 1, rng);
  const auto sym = map_optimal_bmcm(S, 1.0, 1.0);
  const auto asym = map_optimal_bmcm(S, 1.0, 8.0);
  const auto v_asym = evaluate_assignment(S, asym, 1.0, 8.0);
  const auto v_sym = evaluate_assignment(S, sym, 1.0, 8.0);
  EXPECT_LE(v_asym.maxv_cost, v_sym.maxv_cost + 1e-9);
}

TEST(Volume, IdentityAssignmentOnDiagonalMatrixMovesNothing) {
  SimilarityMatrix S(3, 3);
  for (Rank i = 0; i < 3; ++i) S.at(i, i) = 10;
  const auto vol = evaluate_assignment(S, map_identity(S));
  EXPECT_EQ(vol.total_elems, 0);
  EXPECT_EQ(vol.total_sets, 0);
  EXPECT_EQ(vol.max_sent_or_recv, 0);
}

TEST(Volume, CountsMovedSetsAndElements) {
  SimilarityMatrix S(2, 2);
  S.at(0, 0) = 5;
  S.at(0, 1) = 3;  // moves to proc 1
  S.at(1, 1) = 7;
  S.at(1, 0) = 2;  // moves to proc 0
  const auto vol = evaluate_assignment(S, map_identity(S));
  EXPECT_EQ(vol.total_elems, 5);
  EXPECT_EQ(vol.total_sets, 2);
  EXPECT_EQ(vol.max_sent, 3);
  EXPECT_EQ(vol.max_recv, 3);
  EXPECT_EQ(vol.max_sent_or_recv, 3);
}

TEST(Volume, ConservationSentEqualsReceived) {
  Rng rng(13);
  const auto S = random_matrix(6, 1, rng);
  const auto heu = map_heuristic_greedy(S);
  const auto vol = evaluate_assignment(S, heu);
  // Total moved counted from the send side equals objective complement.
  Weight total = 0;
  for (Rank i = 0; i < 6; ++i) total += S.row_sum(i);
  EXPECT_EQ(vol.total_elems, total - heu.objective);
}

TEST(ReassignmentTimes, HeuristicFasterThanOptimalAtScale) {
  // The paper's Table 2 shows ~10x gap; on modern hardware we only assert
  // the ordering to keep the test robust.
  Rng rng(14);
  const auto S = random_matrix(64, 1, rng, 90);
  const auto heu = map_heuristic_greedy(S);
  const auto opt = map_optimal_mwbg(S);
  EXPECT_LE(heu.objective, opt.objective);
  EXPECT_GE(opt.objective, 1);  // sanity: something assigned
}

TEST(Bmcm, RejectsFGreaterThanOne) {
  SimilarityMatrix S(2, 4);  // F = 2
  EXPECT_DEATH(map_optimal_bmcm(S), "F = 1");
}

TEST(Greedy, TiesConsumedInEnumerationOrder) {
  // Regression for the radix_sort_descending stability bug: the mapper
  // enumerates entries row-major ((0,0), (0,1), ..., (1,0), ...), and the
  // paper's stable descending sort must hand tied entries back in that
  // order. With the old reverse-only sort, ties came back in *reversed*
  // enumeration order and S(1,0) below won partition 0 instead of S(0,0).
  SimilarityMatrix S(2, 2);
  S.at(0, 0) = 10;
  S.at(1, 0) = 10;
  const auto heu = map_heuristic_greedy(S);
  EXPECT_EQ(heu.objective, 10);
  EXPECT_EQ(heu.part_to_proc[0], 0);  // first tied entry in row-major order
  EXPECT_EQ(heu.part_to_proc[1], 1);  // proc 1 takes the leftover partition

  // Larger tied block: row-major order assigns the diagonal of the first
  // F-feasible entries, i.e. partition j -> processor j.
  SimilarityMatrix T(3, 3);
  for (Rank i = 0; i < 3; ++i) {
    for (Rank j = 0; j < 3; ++j) T.at(i, j) = 7;
  }
  const auto a = map_heuristic_greedy(T);
  for (Rank j = 0; j < 3; ++j) EXPECT_EQ(a.part_to_proc[j], j);
}

TEST(Greedy, DeterministicOnTies) {
  // Equal entries: the radix sort's stable order fixes the outcome.
  SimilarityMatrix S(3, 3);
  for (Rank i = 0; i < 3; ++i) {
    for (Rank j = 0; j < 3; ++j) S.at(i, j) = 10;
  }
  const auto a = map_heuristic_greedy(S);
  const auto b = map_heuristic_greedy(S);
  EXPECT_EQ(a.part_to_proc, b.part_to_proc);
  EXPECT_EQ(a.objective, 30);
}

TEST(Similarity, FAccessor) {
  SimilarityMatrix S(4, 8);
  EXPECT_EQ(S.f(), 2);
  EXPECT_EQ(S.nprocs(), 4);
  EXPECT_EQ(S.nparts(), 8);
}

}  // namespace
}  // namespace plum::remap
