// Unit tests for src/adapt: pattern classification/upgrade, marking
// propagation, 1:2 / 1:4 / 1:8 subdivision, boundary faces, coarsening,
// predicted weights, error indicators.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "adapt/adaptor.hpp"
#include "mesh/box_mesh.hpp"
#include "mesh/quality.hpp"

namespace plum::adapt {
namespace {

using mesh::TetMesh;

TetMesh single_tet() {
  std::vector<mesh::Vec3> v = {{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1}};
  std::vector<std::array<Index, 4>> t = {{0, 1, 2, 3}};
  return TetMesh::from_cells(v, t);
}

std::vector<char> mark_edges(const TetMesh& m,
                             std::initializer_list<Index> ids) {
  std::vector<char> marks(static_cast<std::size_t>(m.num_edges()), 0);
  for (Index e : ids) marks[static_cast<std::size_t>(e)] = 1;
  return marks;
}

// --- patterns ---------------------------------------------------------------

TEST(Patterns, ClassifyValid) {
  EXPECT_EQ(classify_pattern(0).type, SubdivType::kNone);
  EXPECT_TRUE(classify_pattern(0).valid);

  const auto one = classify_pattern(0b000100);
  EXPECT_EQ(one.type, SubdivType::kOneToTwo);
  EXPECT_EQ(one.edge, 2);

  // Face 3 = edges {0,1,3}.
  const auto four = classify_pattern(0b001011);
  EXPECT_EQ(four.type, SubdivType::kOneToFour);
  EXPECT_EQ(four.face, 3);

  EXPECT_EQ(classify_pattern(0b111111).type, SubdivType::kOneToEight);
}

TEST(Patterns, ClassifyInvalid) {
  EXPECT_FALSE(classify_pattern(0b000011).valid);   // 2 edges
  EXPECT_FALSE(classify_pattern(0b011110).valid);   // 4 edges
  EXPECT_FALSE(classify_pattern(0b100011).valid);   // 3 edges, not a face
}

TEST(Patterns, UpgradeTwoEdgesSharingFace) {
  // Edges 0 (0-1) and 1 (0-2) lie in face 3 = {0,1,3}... edges {0,1} share
  // vertex 0 and both lie in face {0,1,2} whose edge set is {0,1,3}.
  const Pattern up = upgrade_pattern(0b000011);
  EXPECT_EQ(up, 0b001011);  // completed to face 3's mask
  EXPECT_TRUE(classify_pattern(up).valid);
}

TEST(Patterns, UpgradeOppositeEdgesGoesIsotropic) {
  // Edge 0 = (0,1), edge 5 = (2,3): no common face.
  EXPECT_EQ(upgrade_pattern(0b100001), 0b111111);
}

TEST(Patterns, UpgradeIdempotentOnValid) {
  for (unsigned p = 0; p < 64; ++p) {
    const auto pat = static_cast<Pattern>(p);
    if (classify_pattern(pat).valid) {
      EXPECT_EQ(upgrade_pattern(pat), pat);
    }
  }
}

TEST(Patterns, UpgradeAlwaysProducesValid) {
  for (unsigned p = 0; p < 64; ++p) {
    EXPECT_TRUE(classify_pattern(upgrade_pattern(static_cast<Pattern>(p))).valid)
        << "pattern " << p;
  }
}

TEST(Patterns, NumChildren) {
  EXPECT_EQ(num_children(SubdivType::kNone), 1);
  EXPECT_EQ(num_children(SubdivType::kOneToTwo), 2);
  EXPECT_EQ(num_children(SubdivType::kOneToFour), 4);
  EXPECT_EQ(num_children(SubdivType::kOneToEight), 8);
}

// --- marking ----------------------------------------------------------------

TEST(Marking, SingleEdgeGivesOneToTwo) {
  const auto m = single_tet();
  const auto res = propagate_marks(m, mark_edges(m, {0}));
  EXPECT_EQ(classify_pattern(res.pattern[0]).type, SubdivType::kOneToTwo);
  EXPECT_EQ(res.marked_edges.size(), 1u);
}

TEST(Marking, AllEdgesGivesOneToEight) {
  const auto m = single_tet();
  const auto res = propagate_marks(m, mark_edges(m, {0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(classify_pattern(res.pattern[0]).type, SubdivType::kOneToEight);
}

TEST(Marking, PropagatesAcrossElements) {
  // Two tets sharing a face; marking two adjacent edges of one face forces
  // a 1:4 upgrade whose marks the neighbor must also absorb.
  std::vector<mesh::Vec3> v = {
      {0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1}, {1, 1, 1}};
  std::vector<std::array<Index, 4>> t = {{0, 1, 2, 3}, {1, 2, 3, 4}};
  const auto m = TetMesh::from_cells(v, t);
  // Mark two edges of the shared face {1,2,3}.
  const Index e12 = m.find_edge(1, 2);
  const Index e13 = m.find_edge(1, 3);
  std::vector<char> marks(static_cast<std::size_t>(m.num_edges()), 0);
  marks[e12] = marks[e13] = 1;
  const auto res = propagate_marks(m, marks);
  EXPECT_TRUE(res.edge_marked[m.find_edge(2, 3)]);  // face completed
  EXPECT_TRUE(classify_pattern(res.pattern[0]).valid);
  EXPECT_TRUE(classify_pattern(res.pattern[1]).valid);
  EXPECT_GE(res.propagation_rounds, 1);
}

TEST(Marking, PredictsNewElementCount) {
  const auto m = single_tet();
  const auto res = propagate_marks(m, mark_edges(m, {0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(res.predicted_new_elements(m), 8);
}

TEST(Marking, IgnoresMarksOnUnusedEdges) {
  auto m = single_tet();
  // Refine fully, then mark a (now interior-tree) parent edge.
  MeshAdaptor ad(&m);
  ad.mark(mark_edges(m, {0, 1, 2, 3, 4, 5}));
  ad.refine();
  std::vector<char> marks(static_cast<std::size_t>(m.num_edges()), 0);
  marks[0] = 1;  // edge 0 is bisected, no longer in active mesh
  const auto res = propagate_marks(m, marks);
  EXPECT_TRUE(res.marked_edges.empty());
}

// --- refinement -------------------------------------------------------------

TEST(Refine, OneToTwoProducesTwoChildren) {
  auto m = single_tet();
  MeshAdaptor ad(&m);
  ad.mark(mark_edges(m, {0}));
  const auto stats = ad.refine();
  m.validate();
  EXPECT_EQ(stats.elements_refined, 1);
  EXPECT_EQ(stats.children_created, 2);
  EXPECT_EQ(m.num_active_elements(), 2);
  EXPECT_NEAR(m.total_volume(), 1.0 / 6.0, 1e-12);
}

TEST(Refine, OneToFourProducesFourChildren) {
  auto m = single_tet();
  // Mark all edges of face {1,2,3}: edges (1,2),(1,3),(2,3).
  std::vector<char> marks(static_cast<std::size_t>(m.num_edges()), 0);
  marks[m.find_edge(1, 2)] = 1;
  marks[m.find_edge(1, 3)] = 1;
  marks[m.find_edge(2, 3)] = 1;
  MeshAdaptor ad(&m);
  const auto& res = ad.mark(marks);
  EXPECT_EQ(classify_pattern(res.pattern[0]).type, SubdivType::kOneToFour);
  const auto stats = ad.refine();
  m.validate();
  EXPECT_EQ(stats.children_created, 4);
  EXPECT_EQ(m.num_active_elements(), 4);
  EXPECT_NEAR(m.total_volume(), 1.0 / 6.0, 1e-12);
}

TEST(Refine, OneToEightProducesEightChildren) {
  auto m = single_tet();
  MeshAdaptor ad(&m);
  ad.mark(mark_edges(m, {0, 1, 2, 3, 4, 5}));
  const auto stats = ad.refine();
  m.validate();
  EXPECT_EQ(stats.children_created, 8);
  EXPECT_EQ(m.num_active_elements(), 8);
  EXPECT_NEAR(m.total_volume(), 1.0 / 6.0, 1e-12);
  // All children equal volume for isotropic split of any tet.
  for (Index t = 1; t <= 8; ++t) {
    EXPECT_NEAR(m.element_volume(t), 1.0 / 48.0, 1e-12);
  }
}

TEST(Refine, BoundaryFacesFollowElements) {
  auto m = single_tet();
  MeshAdaptor ad(&m);
  ad.mark(mark_edges(m, {0, 1, 2, 3, 4, 5}));
  ad.refine();
  // Isotropic: each of the 4 boundary faces splits 1:4.
  EXPECT_EQ(m.num_active_bfaces(), 16);
}

TEST(Refine, SolutionHookFiresPerBisection) {
  auto m = single_tet();
  int fired = 0;
  m.on_bisect = [&](Index, Index) { ++fired; };
  MeshAdaptor ad(&m);
  ad.mark(mark_edges(m, {0, 1, 2, 3, 4, 5}));
  ad.refine();
  EXPECT_EQ(fired, 6);
}

TEST(Refine, RepeatedRefinementKeepsQuality) {
  auto m = make_box_mesh(mesh::small_box(1));
  MeshAdaptor ad(&m);
  for (int round = 0; round < 3; ++round) {
    std::vector<char> all(static_cast<std::size_t>(m.num_edges()), 1);
    ad.mark(all);
    ad.refine();
  }
  m.validate();
  EXPECT_EQ(m.num_active_elements(), 6 * 8 * 8 * 8);
  // Shortest-diagonal octahedron split keeps quality bounded away from 0.
  EXPECT_GT(mesh::mesh_quality(m).min, 0.1);
  EXPECT_NEAR(m.total_volume(), 1.0, 1e-9);
}

TEST(Refine, ConformingAfterLocalizedMarks) {
  auto m = make_box_mesh(mesh::small_box(2));
  MeshAdaptor ad(&m);
  ad.mark(mark_edges(m, {0}));
  ad.refine();
  m.validate();
  EXPECT_NEAR(m.total_volume(), 1.0, 1e-12);
}

// --- predicted weights -------------------------------------------------------

TEST(PredictedWeights, MatchActualAfterRefine) {
  auto m = make_box_mesh(mesh::small_box(2));
  MeshAdaptor ad(&m);
  std::vector<char> marks(static_cast<std::size_t>(m.num_edges()), 0);
  for (Index e = 0; e < m.num_edges(); e += 7) marks[e] = 1;
  ad.mark(marks);
  const auto predicted = ad.predicted_weights();
  ad.refine();
  const auto actual = m.root_weights();
  EXPECT_EQ(predicted.wcomp, actual.wcomp);
  EXPECT_EQ(predicted.wremap, actual.wremap);
}

// --- coarsening ---------------------------------------------------------------

TEST(Coarsen, UndoesUniformRefinement) {
  auto m = single_tet();
  MeshAdaptor ad(&m);
  ad.mark(mark_edges(m, {0, 1, 2, 3, 4, 5}));
  ad.refine();
  ASSERT_EQ(m.num_active_elements(), 8);

  // Target every leaf edge for coarsening.
  std::vector<char> cm(static_cast<std::size_t>(m.num_edges()), 1);
  const auto stats = ad.coarsen(cm);
  m.validate();
  EXPECT_EQ(stats.groups_removed, 1);
  EXPECT_EQ(m.num_active_elements(), 1);
  EXPECT_EQ(m.num_vertices(), 4);  // midpoints purged
  EXPECT_EQ(m.num_edges(), 6);
  EXPECT_EQ(m.num_active_bfaces(), 4);
  EXPECT_NEAR(m.total_volume(), 1.0 / 6.0, 1e-12);
}

TEST(Coarsen, CannotCoarsenInitialMesh) {
  auto m = single_tet();
  MeshAdaptor ad(&m);
  std::vector<char> cm(static_cast<std::size_t>(m.num_edges()), 1);
  const auto stats = ad.coarsen(cm);
  EXPECT_EQ(stats.groups_removed, 0);
  EXPECT_EQ(m.num_active_elements(), 1);
}

TEST(Coarsen, SiblingRuleBlocksLonelyMark) {
  auto m = single_tet();
  MeshAdaptor ad(&m);
  ad.mark(mark_edges(m, {0, 1, 2, 3, 4, 5}));
  ad.refine();
  // Mark exactly one child of one bisected parent edge: sibling rule and
  // the interior-edge passthrough must both decline.
  std::vector<char> cm(static_cast<std::size_t>(m.num_edges()), 0);
  const Index parent_children0 = m.edge(0).child[0];
  cm[static_cast<std::size_t>(parent_children0)] = 1;
  const auto stats = ad.coarsen(cm);
  EXPECT_EQ(stats.groups_removed, 0);
  EXPECT_EQ(m.num_active_elements(), 8);
}

TEST(Coarsen, PartialCoarseningStaysConforming) {
  auto m = make_box_mesh(mesh::small_box(2));
  MeshAdaptor ad(&m);
  std::vector<char> all(static_cast<std::size_t>(m.num_edges()), 1);
  ad.mark(all);
  ad.refine();
  const Index refined_elems = m.num_active_elements();

  // Coarsen only edges in the z < 0.5 half.
  std::vector<char> cm(static_cast<std::size_t>(m.num_edges()), 0);
  for (Index e = 0; e < m.num_edges(); ++e) {
    const auto& ed = m.edge(e);
    if (!ed.is_leaf()) continue;
    const double z0 = m.vertex(ed.v0).pos.z;
    const double z1 = m.vertex(ed.v1).pos.z;
    if (z0 < 0.5 && z1 < 0.5) cm[e] = 1;
  }
  ad.coarsen(cm);
  m.validate();
  EXPECT_LT(m.num_active_elements(), refined_elems);
  EXPECT_GT(m.num_active_elements(), 6 * 8);
  EXPECT_NEAR(m.total_volume(), 1.0, 1e-9);
}

TEST(Coarsen, RefineCoarsenCycleIsStable) {
  auto m = make_box_mesh(mesh::small_box(1));
  MeshAdaptor ad(&m);
  for (int round = 0; round < 3; ++round) {
    std::vector<char> all(static_cast<std::size_t>(m.num_edges()), 1);
    ad.mark(all);
    ad.refine();
    std::vector<char> cm(static_cast<std::size_t>(m.num_edges()), 1);
    ad.coarsen(cm);
    m.validate();
    EXPECT_EQ(m.num_active_elements(), 6);
    EXPECT_EQ(m.num_vertices(), 8);
  }
}

// --- error indicator ----------------------------------------------------------

TEST(ErrorIndicator, JumpTimesLength) {
  auto m = single_tet();
  std::vector<double> u = {0.0, 2.0, 0.0, 0.0};
  const auto err = edge_error(m, u, 1.0);
  EXPECT_NEAR(err[m.find_edge(0, 1)], 2.0 * 1.0, 1e-12);
  EXPECT_NEAR(err[m.find_edge(2, 3)], 0.0, 1e-12);
}

TEST(ErrorIndicator, MarkTopFractionCountsExact) {
  const auto m = make_box_mesh(mesh::small_box(2));
  std::vector<double> u(static_cast<std::size_t>(m.num_vertices()));
  for (Index v = 0; v < m.num_vertices(); ++v) {
    u[v] = m.vertex(v).pos.x;  // gradient along x
  }
  const auto err = edge_error(m, u);
  const auto marks = mark_top_fraction(m, err, 0.25);
  Index marked = 0;
  for (char c : marks) marked += c;
  const Index active = m.num_active_edges();
  EXPECT_EQ(marked, static_cast<Index>(std::llround(0.25 * active)));
}

TEST(ErrorIndicator, ThresholdMarking) {
  auto m = single_tet();
  std::vector<double> u = {0.0, 2.0, 0.1, 0.0};
  const auto err = edge_error(m, u, 0.0);  // pure jump
  const auto above = mark_above(m, err, 1.0);
  EXPECT_TRUE(above[m.find_edge(0, 1)]);
  EXPECT_FALSE(above[m.find_edge(0, 2)]);
  const auto below = mark_below(m, err, 0.05);
  EXPECT_TRUE(below[m.find_edge(0, 3)]);
  EXPECT_FALSE(below[m.find_edge(0, 2)]);
}

// The drivers' shared marking rule: a cut on the values alone, so any
// order (or split) of the same values marks the same edges.
TEST(ErrorIndicator, FractionThresholdsDependOnValuesOnly) {
  const std::vector<double> v = {5, 1, 3, 3, 9, 0, 0, 0, 7, 3};
  // floor(0.3 * 10) = 3 edges (9, 7, 5): strictly above the 4th largest.
  EXPECT_EQ(refine_threshold(v, 0.3), 3.0);
  // Ties at the cut stay unmarked: the 4th and 5th largest are both 3.
  EXPECT_EQ(refine_threshold({3, 3, 3, 1}, 0.5), 3.0);
  // Coarsening takes the 2 lowest plus their ties: every 0.
  const double low = coarsen_threshold(v, 0.2);
  EXPECT_EQ(std::count_if(v.begin(), v.end(), [&](double x) { return x < low; }),
            3);
  EXPECT_LT(0.0, low);
  EXPECT_LT(low, 1.0);
  // A fraction that selects no edge marks nothing.
  EXPECT_EQ(refine_threshold(v, 0.05), std::numeric_limits<double>::max());
  EXPECT_EQ(coarsen_threshold(v, 0.05), std::numeric_limits<double>::lowest());
  EXPECT_EQ(refine_threshold({}, 0.5), std::numeric_limits<double>::max());
  auto reversed = v;
  std::reverse(reversed.begin(), reversed.end());
  EXPECT_EQ(refine_threshold(reversed, 0.3), refine_threshold(v, 0.3));
  EXPECT_EQ(coarsen_threshold(reversed, 0.2), coarsen_threshold(v, 0.2));
}

TEST(MeshAdaptor, MarkFractionUsesTheSharedThreshold) {
  auto m = make_box_mesh(mesh::small_box(3));
  std::vector<double> u(static_cast<std::size_t>(m.num_vertices()));
  for (Index v = 0; v < m.num_vertices(); ++v) {
    const auto& p = m.vertex(v).pos;
    u[v] = p.x * p.x + 0.3 * p.y;
  }
  const auto err = edge_error(m, u);
  const auto seeds =
      mark_above(m, err, refine_threshold(active_values(m, err), 0.1));
  MeshAdaptor adaptor(&m);
  const auto& marks = adaptor.mark_fraction(err, 0.1);
  EXPECT_EQ(marks.edge_marked, propagate_marks(m, seeds).edge_marked);
  Index seeded = 0;
  for (char c : seeds) seeded += c;
  EXPECT_GT(seeded, 0);
  EXPECT_LE(seeded, static_cast<Index>(0.1 * m.num_active_edges()));
}

// Coarsening re-refines reinstated parents whose edges stay bisected; a
// re-refined parent's children can hold an edge bisected deeper still, so
// the re-refinement must repeat until the mesh is conforming again.
TEST(Coarsen, RepeatedCyclesLeaveNoHangingEdges) {
  auto m = make_box_mesh(mesh::small_box(4));
  std::vector<double> rho;
  for (Index v = 0; v < m.num_vertices(); ++v) {
    const auto d = m.vertex(v).pos - mesh::Vec3{0.3, 0.45, 0.55};
    rho.push_back(1.0 + 0.3 * std::exp(-dot(d, d) / 0.125));
  }
  m.on_bisect = [&](Index e, Index mid) {
    rho.resize(std::max(rho.size(), static_cast<std::size_t>(mid) + 1));
    rho[mid] = 0.5 * (rho[m.edge(e).v0] + rho[m.edge(e).v1]);
  };
  MeshAdaptor ad(&m);
  for (int cycle = 0; cycle < 3; ++cycle) {
    const auto err = edge_error(m, rho);
    ad.coarsen(mark_below(m, err,
                          coarsen_threshold(active_values(m, err), 0.3)),
               [&](const std::vector<Index>& map) {
                 std::vector<double> kept(map.size());
                 for (std::size_t v = 0; v < map.size(); ++v) {
                   kept[v] = rho[static_cast<std::size_t>(map[v])];
                 }
                 rho = std::move(kept);
               });
    int hanging = 0;
    for (Index t = 0; t < m.num_elements(); ++t) {
      const auto& el = m.element(t);
      if (!el.alive || !el.is_leaf()) continue;
      for (Index e : el.edges) hanging += !m.edge(e).is_leaf();
    }
    EXPECT_EQ(hanging, 0) << "cycle " << cycle;
    m.validate();
    ad.mark_fraction(edge_error(m, rho), 0.1);
    ad.refine();
    m.validate();
  }
}

// --- refinement inside a sphere ------------------------------------------------

TEST(GeometryMarking, RefineSphereGivesConformingLocalizedMesh) {
  auto m = make_box_mesh(mesh::small_box(3));
  // Mark the active edges whose midpoint lies inside the sphere.
  const mesh::Vec3 c{0.5, 0.5, 0.5};
  std::vector<char> marks(static_cast<std::size_t>(m.num_edges()), 0);
  for (Index e = 0; e < m.num_edges(); ++e) {
    if (m.edge_elements(e).empty()) continue;
    const mesh::Vec3 d = mesh::midpoint(m.vertex(m.edge(e).v0).pos,
                                        m.vertex(m.edge(e).v1).pos) -
                         c;
    marks[static_cast<std::size_t>(e)] = dot(d, d) < 0.3 * 0.3;
  }
  MeshAdaptor ad(&m);
  ad.mark(marks);
  ad.refine();
  m.validate();
  EXPECT_GT(m.num_active_elements(), 6 * 27);
  EXPECT_NEAR(m.total_volume(), 1.0, 1e-9);
}

TEST(Coarsen, CompactionMapTracksVertices) {
  auto m = single_tet();
  MeshAdaptor ad(&m);
  ad.mark(mark_edges(m, {0, 1, 2, 3, 4, 5}));
  ad.refine();
  std::vector<char> cm(static_cast<std::size_t>(m.num_edges()), 1);
  std::vector<Index> map;
  const auto stats = ad.coarsen(
      cm, [&](const std::vector<Index>& new_to_old) { map = new_to_old; });
  EXPECT_EQ(stats.vertex_new_to_old, map);
  ASSERT_EQ(map.size(), 4u);
  for (Index v = 0; v < 4; ++v) EXPECT_EQ(map[v], v);  // initial verts stable
}

}  // namespace
}  // namespace plum::adapt
