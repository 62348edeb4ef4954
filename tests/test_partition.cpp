// Unit + property tests for the multilevel partitioner, HEM coarsening,
// GGGP initial partitioning, k-way refinement and warm-start repartitioning.

#include <gtest/gtest.h>

#include "graph/dual.hpp"
#include "mesh/box_mesh.hpp"
#include "partition/hem.hpp"
#include "partition/initpart.hpp"
#include "partition/multilevel.hpp"
#include "partition/refine_kway.hpp"

namespace plum::partition {
namespace {

graph::Csr grid_graph(Index nx, Index ny) {
  std::vector<std::pair<Index, Index>> edges;
  auto id = [&](Index i, Index j) { return j * nx + i; };
  for (Index j = 0; j < ny; ++j) {
    for (Index i = 0; i < nx; ++i) {
      if (i + 1 < nx) edges.emplace_back(id(i, j), id(i + 1, j));
      if (j + 1 < ny) edges.emplace_back(id(i, j), id(i, j + 1));
    }
  }
  return graph::Csr::from_edges(nx * ny, edges);
}

graph::Csr box_dual(int n) {
  return mesh::make_box_mesh(mesh::small_box(n)).build_initial_dual();
}

TEST(Hem, HalvesVertexCountRoughly) {
  const auto g = grid_graph(20, 20);
  Rng rng(1);
  const auto level = coarsen_hem(g, rng);
  level.graph.validate();
  EXPECT_LT(level.graph.num_vertices(), g.num_vertices());
  EXPECT_GE(level.graph.num_vertices(), g.num_vertices() / 2);
}

TEST(Hem, PreservesTotalWeight) {
  auto g = grid_graph(10, 10);
  std::vector<Weight> wc(100), wr(100);
  for (int i = 0; i < 100; ++i) {
    wc[i] = i % 7 + 1;
    wr[i] = i % 3 + 1;
  }
  g.set_weights(wc, wr);
  Rng rng(2);
  const auto level = coarsen_hem(g, rng);
  EXPECT_EQ(level.graph.total_wcomp(), g.total_wcomp());
  EXPECT_EQ(level.graph.total_wremap(), g.total_wremap());
}

TEST(Hem, CmapIsOnto) {
  const auto g = grid_graph(8, 8);
  Rng rng(3);
  const auto level = coarsen_hem(g, rng);
  std::vector<char> hit(static_cast<std::size_t>(level.graph.num_vertices()), 0);
  for (Index c : level.cmap) {
    ASSERT_GE(c, 0);
    ASSERT_LT(c, level.graph.num_vertices());
    hit[static_cast<std::size_t>(c)] = 1;
  }
  for (char h : hit) EXPECT_TRUE(h);
}

TEST(InitPart, ProducesValidBalancedParts) {
  const auto g = grid_graph(16, 16);
  Rng rng(4);
  const auto part = initial_partition(g, 4, rng);
  EXPECT_TRUE(is_valid_partition(g, part, 4));
  EXPECT_LT(load_imbalance(g, part, 4), 1.35);
}

TEST(InitPart, SinglePart) {
  const auto g = grid_graph(4, 4);
  Rng rng(5);
  const auto part = initial_partition(g, 1, rng);
  for (Rank p : part) EXPECT_EQ(p, 0);
}

TEST(RefineKway, NeverWorsensCut) {
  const auto g = grid_graph(16, 16);
  Rng rng(6);
  auto part = initial_partition(g, 4, rng);
  RefineOptions opt;
  opt.allow_balancing_moves = false;
  const auto stats = refine_kway(g, part, 4, opt, rng);
  EXPECT_LE(stats.cut_after, stats.cut_before);
  EXPECT_TRUE(is_valid_partition(g, part, 4));
}

TEST(RefineKway, BalancesOverloadedPart) {
  const auto g = grid_graph(16, 16);
  // Everything on part 0 except one vertex per other part.
  PartVec part(static_cast<std::size_t>(g.num_vertices()), 0);
  part[0] = 1;
  part[1] = 2;
  part[2] = 3;
  Rng rng(7);
  RefineOptions opt;
  opt.max_passes = 64;
  refine_kway(g, part, 4, opt, rng);
  EXPECT_LT(load_imbalance(g, part, 4), 1.15);
}

// Regression for two refiner biases. (1) Truncating-average balance
// condition: with total = 100 over 3 parts, the floor average is 33 but a
// balanced part holds ceil(100/3) = 34. The only legal move (v1, weight 4,
// part 0 -> part 1) lands the receiver at exactly 34 with zero cut gain, so
// the old `to_after <= total / nparts` test rejected it and the 35-heavy
// part 0 could never shed load toward its only neighbor. (2) Cross-pass
// stamp staleness: the conn stamps hold vertex ids, so without a per-pass
// reset a revisited vertex saw accumulated connection weights and phantom
// cut gains — here that manifested as v1 oscillating 0 -> 1 -> 0 on
// fictitious gain for all max_passes. The cut_after == cut_before assert
// pins both: one real move, no phantom-gain churn.
TEST(RefineKway, DiffusesIntoPartAtCeilingAverage) {
  // Path graph 0-1-2-3 with unit edge weights: v1 is the sole boundary
  // vertex with a candidate move (part 2 holds one vertex and may not
  // empty; v0/v2 moves are not downhill).
  const std::vector<std::pair<Index, Index>> edges = {{0, 1}, {1, 2}, {2, 3}};
  auto g = graph::Csr::from_edges(4, edges);
  g.set_weights({31, 4, 30, 35}, {31, 4, 30, 35});
  PartVec part = {0, 0, 1, 2};  // loads 35 / 30 / 35
  Rng rng(8);
  RefineOptions opt;
  const auto stats = refine_kway(g, part, 3, opt, rng);
  EXPECT_EQ(part[1], 1) << "weight-4 vertex must diffuse into the part that "
                           "ends at the ceiling average";
  EXPECT_GE(stats.moves, 1);
  // Cut is unchanged (gain 0): the move is purely a balance move.
  EXPECT_EQ(stats.cut_after, stats.cut_before);
  EXPECT_TRUE(is_valid_partition(g, part, 3));
}

class MultilevelSweep
    : public ::testing::TestWithParam<std::tuple<int, Rank>> {};

TEST_P(MultilevelSweep, BalancedValidPartitions) {
  const auto [boxn, nparts] = GetParam();
  const auto g = box_dual(boxn);
  MultilevelOptions opt;
  opt.nparts = nparts;
  const auto res = partition(g, opt);
  EXPECT_TRUE(is_valid_partition(g, res.part, nparts));
  EXPECT_LT(res.imbalance, 1.0 + opt.imbalance_tol + 0.05);
  EXPECT_GT(res.cut, 0);
  EXPECT_GE(res.levels.size(), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, MultilevelSweep,
    ::testing::Combine(::testing::Values(3, 4, 5),
                       ::testing::Values<Rank>(2, 4, 8, 16)));

TEST(Multilevel, CutBeatsRandomPartition) {
  const auto g = box_dual(5);
  MultilevelOptions opt;
  opt.nparts = 8;
  const auto res = partition(g, opt);

  Rng rng(8);
  PartVec random_part(static_cast<std::size_t>(g.num_vertices()));
  for (auto& p : random_part) p = static_cast<Rank>(rng.below(8));
  EXPECT_LT(res.cut, edge_cut(g, random_part) / 3);
}

TEST(Multilevel, WeightedBalance) {
  auto g = box_dual(4);
  // Skewed weights: one corner heavy (simulating local refinement).
  std::vector<Weight> wc(static_cast<std::size_t>(g.num_vertices()), 1);
  for (Index v = 0; v < g.num_vertices() / 8; ++v) wc[v] = 8;
  g.set_weights(wc, wc);
  MultilevelOptions opt;
  opt.nparts = 4;
  const auto res = partition(g, opt);
  EXPECT_LT(res.imbalance, 1.12);
}

TEST(Multilevel, DeterministicForSeed) {
  const auto g = box_dual(3);
  MultilevelOptions opt;
  opt.nparts = 4;
  const auto a = partition(g, opt);
  const auto b = partition(g, opt);
  EXPECT_EQ(a.part, b.part);
}

TEST(Repartition, WarmStartKeepsMostVerticesHome) {
  auto g = box_dual(4);
  MultilevelOptions opt;
  opt.nparts = 8;
  const auto base = partition(g, opt);

  // Mildly perturb the weights (small adaption) and repartition.
  std::vector<Weight> wc(static_cast<std::size_t>(g.num_vertices()), 1);
  for (Index v = 0; v < g.num_vertices() / 10; ++v) wc[v] = 3;
  g.set_weights(wc, wc);
  const auto rep = repartition(g, base.part, opt);
  EXPECT_TRUE(rep.used_previous);
  EXPECT_LT(rep.imbalance, 1.0 + opt.imbalance_tol + 0.05);

  Index moved = 0;
  for (Index v = 0; v < g.num_vertices(); ++v) {
    moved += (rep.part[v] != base.part[v]);
  }
  // A warm start moves far fewer vertices than a scratch repartition would.
  EXPECT_LT(moved, g.num_vertices() / 4);
}

TEST(Repartition, FallsBackOnExtremeImbalance) {
  auto g = box_dual(4);
  MultilevelOptions opt;
  opt.nparts = 8;
  const auto base = partition(g, opt);

  // Blow up one part's weights so diffusion alone cannot restore balance.
  std::vector<Weight> wc(static_cast<std::size_t>(g.num_vertices()), 1);
  for (Index v = 0; v < g.num_vertices(); ++v) {
    if (base.part[v] == 0) wc[static_cast<std::size_t>(v)] = 200;
  }
  g.set_weights(wc, wc);
  const auto rep = repartition(g, base.part, opt);
  // One vertex weighs 200 vs a ~1300 part target: balance granularity alone
  // allows ~15% slack, so only assert we got within two vertex-weights.
  EXPECT_LT(rep.imbalance, 1.3);
  EXPECT_FALSE(rep.used_previous && rep.imbalance > 1.2);
}

}  // namespace
}  // namespace plum::partition
