// Unit tests for src/graph: CSR construction and the dual graph.

#include <gtest/gtest.h>

#include <array>

#include "graph/csr.hpp"
#include "graph/dual.hpp"

namespace plum::graph {
namespace {

Csr path_graph(Index n) {
  std::vector<std::pair<Index, Index>> edges;
  for (Index i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
  return Csr::from_edges(n, edges);
}

TEST(Csr, BuildsSymmetricAdjacency) {
  const auto g = path_graph(4);
  g.validate();
  EXPECT_EQ(g.num_vertices(), 4);
  EXPECT_EQ(g.num_edges(), 3);
  EXPECT_EQ(g.degree(0), 1);
  EXPECT_EQ(g.degree(1), 2);
}

TEST(Csr, EdgeWeightsAlignedWithNeighbors) {
  std::vector<std::pair<Index, Index>> edges = {{0, 1}, {1, 2}};
  std::vector<Weight> w = {10, 20};
  const auto g = Csr::from_edges(3, edges, w);
  const auto n1 = g.neighbors(1);
  const auto w1 = g.edge_weights(1);
  for (std::size_t i = 0; i < n1.size(); ++i) {
    if (n1[i] == 0) {
      EXPECT_EQ(w1[i], 10);
    }
    if (n1[i] == 2) {
      EXPECT_EQ(w1[i], 20);
    }
  }
}

TEST(Csr, DefaultWeightsAreUnit) {
  const auto g = path_graph(3);
  EXPECT_EQ(g.total_wcomp(), 3);
  EXPECT_EQ(g.total_wremap(), 3);
}

TEST(Csr, SetWeights) {
  auto g = path_graph(3);
  g.set_weights({1, 2, 3}, {4, 5, 6});
  EXPECT_EQ(g.wcomp(1), 2);
  EXPECT_EQ(g.wremap(2), 6);
  EXPECT_EQ(g.total_wcomp(), 6);
  EXPECT_EQ(g.total_wremap(), 15);
}

TEST(Csr, EmptyGraph) {
  const auto g = Csr::from_edges(0, {});
  EXPECT_EQ(g.num_vertices(), 0);
  EXPECT_EQ(g.num_edges(), 0);
}

TEST(Dual, TwoTetsSharingFace) {
  // Tets (0,1,2,3) and (1,2,3,4) share face {1,2,3}.
  std::vector<std::array<Index, 4>> tets = {{0, 1, 2, 3}, {1, 2, 3, 4}};
  const auto d = build_dual(tets);
  d.validate();
  EXPECT_EQ(d.num_vertices(), 2);
  EXPECT_EQ(d.num_edges(), 1);
}

TEST(Dual, IsolatedTetsHaveNoEdges) {
  std::vector<std::array<Index, 4>> tets = {{0, 1, 2, 3}, {4, 5, 6, 7}};
  const auto d = build_dual(tets);
  EXPECT_EQ(d.num_edges(), 0);
}

TEST(Dual, MaxDegreeIsFour) {
  // A fan of tets around a central one cannot exceed 4 dual neighbors.
  std::vector<std::array<Index, 4>> tets = {
      {0, 1, 2, 3}, {1, 2, 3, 4}, {0, 2, 3, 5}, {0, 1, 3, 6}, {0, 1, 2, 7}};
  const auto d = build_dual(tets);
  EXPECT_EQ(d.degree(0), 4);
}

}  // namespace
}  // namespace plum::graph
