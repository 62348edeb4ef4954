#include "adapt/refine.hpp"

#include <array>

#include "util/assert.hpp"

namespace plum::adapt {

namespace {

using mesh::TetMesh;

/// Midpoint vertex of local edge k of element t (edge must be bisected).
Index mid_of(const TetMesh& m, Index t, int k) {
  const Index e = m.element(t).edges[k];
  const Index mid = m.edge(e).mid;
  PLUM_ASSERT(mid != kInvalidIndex);
  return mid;
}

void subdivide_1to2(TetMesh& m, Index t, int edge_k) {
  const auto v = m.element(t).verts;
  const int a = mesh::kEdgeVerts[edge_k][0];
  const int b = mesh::kEdgeVerts[edge_k][1];
  // The two locals not on the split edge.
  std::array<int, 2> cd{};
  int n = 0;
  for (int i = 0; i < 4; ++i) {
    if (i != a && i != b) cd[n++] = i;
  }
  const Index mid = mid_of(m, t, edge_k);
  m.add_child_element(t, {mid, v[cd[0]], v[cd[1]], v[a]});
  m.add_child_element(t, {mid, v[cd[0]], v[cd[1]], v[b]});
}

void subdivide_1to4(TetMesh& m, Index t, int face_f) {
  const auto v = m.element(t).verts;
  const auto& fv = mesh::kFaceVerts[face_f];  // the fully marked face
  const Index apex = v[face_f];               // face f is opposite vertex f
  const Index p = v[fv[0]], q = v[fv[1]], r = v[fv[2]];
  const Index mpq = mid_of(m, t, mesh::local_edge_between(fv[0], fv[1]));
  const Index mqr = mid_of(m, t, mesh::local_edge_between(fv[1], fv[2]));
  const Index mpr = mid_of(m, t, mesh::local_edge_between(fv[0], fv[2]));
  m.add_child_element(t, {p, mpq, mpr, apex});
  m.add_child_element(t, {q, mpq, mqr, apex});
  m.add_child_element(t, {r, mpr, mqr, apex});
  m.add_child_element(t, {mpq, mqr, mpr, apex});
}

void subdivide_1to8(TetMesh& m, Index t) {
  const auto v = m.element(t).verts;
  // Midpoints indexed like kEdgeVerts: m01,m02,m03,m12,m13,m23.
  std::array<Index, 6> mm{};
  for (int k = 0; k < kTetEdges; ++k) mm[k] = mid_of(m, t, k);
  const Index m01 = mm[0], m02 = mm[1], m03 = mm[2], m12 = mm[3],
              m13 = mm[4], m23 = mm[5];

  // Four corner tetrahedra.
  m.add_child_element(t, {v[0], m01, m02, m03});
  m.add_child_element(t, {v[1], m01, m12, m13});
  m.add_child_element(t, {v[2], m02, m12, m23});
  m.add_child_element(t, {v[3], m03, m13, m23});

  // Interior octahedron {m01,m02,m03,m12,m13,m23}: split by the shortest of
  // the three diagonals (keeps element quality bounded under repeated
  // refinement). Deterministic: lengths are exact midpoint arithmetic, ties
  // resolved by diagonal order.
  struct Diag {
    Index a, b;        // the diagonal
    Index e0, e1, e2, e3;  // equatorial cycle around it
  };
  const std::array<Diag, 3> diags = {{
      {m01, m23, m02, m03, m13, m12},
      {m02, m13, m01, m03, m23, m12},
      {m03, m12, m01, m02, m23, m13},
  }};
  auto len2 = [&](Index a, Index b) {
    const auto d = m.vertex(a).pos - m.vertex(b).pos;
    return dot(d, d);
  };
  int best = 0;
  for (int i = 1; i < 3; ++i) {
    if (len2(diags[i].a, diags[i].b) < len2(diags[best].a, diags[best].b)) {
      best = i;
    }
  }
  const Diag& d = diags[best];
  const std::array<Index, 4> eq = {d.e0, d.e1, d.e2, d.e3};
  for (int i = 0; i < 4; ++i) {
    m.add_child_element(t, {d.a, d.b, eq[i], eq[(i + 1) % 4]});
  }
}

/// Subdivides a leaf boundary face whose edges were bisected this round.
/// Valid triangle patterns are 1 or 3 bisected edges — a direct consequence
/// of the element patterns being valid (each tet face carries 0/1/3 marks).
Index subdivide_bface(TetMesh& m, Index f) {
  const auto bf = m.bface(f);  // copy: adding children reallocates
  std::array<Index, 3> mids{kInvalidIndex, kInvalidIndex, kInvalidIndex};
  int bisected = 0;
  for (int k = 0; k < 3; ++k) {
    const auto& e = m.edge(bf.edges[k]);
    if (!e.is_leaf()) {
      mids[k] = e.mid;
      ++bisected;
    }
  }
  if (bisected == 0) return 0;
  PLUM_ASSERT_MSG(bisected == 1 || bisected == 3,
                  "boundary face with 2 bisected edges");

  if (bisected == 1) {
    int k = 0;
    while (mids[k] == kInvalidIndex) ++k;
    const Index a = bf.verts[k], b = bf.verts[(k + 1) % 3],
                c = bf.verts[(k + 2) % 3];
    m.add_child_bface(f, {a, mids[k], c});
    m.add_child_bface(f, {mids[k], b, c});
    return 2;
  }
  const Index a = bf.verts[0], b = bf.verts[1], c = bf.verts[2];
  const Index mab = mids[0], mbc = mids[1], mca = mids[2];
  m.add_child_bface(f, {a, mab, mca});
  m.add_child_bface(f, {b, mbc, mab});
  m.add_child_bface(f, {c, mca, mbc});
  m.add_child_bface(f, {mab, mbc, mca});
  return 4;
}

}  // namespace

RefineStats refine_mesh(mesh::TetMesh& mesh, const MarkingResult& marks,
                        obs::Arena* scratch) {
  RefineStats stats;

  // 1. Bisect every marked edge (once, globally shared).
  for (Index e : marks.marked_edges) {
    if (mesh.edge(e).is_leaf()) {
      mesh.bisect_edge(e);
      ++stats.edges_bisected;
    }
  }

  // 2. Subdivide each targeted element independently — after marking, "each
  //    element is independently subdivided based on its binary pattern".
  //    The leaf-id snapshot must be taken up front (adding children grows
  //    the element table); it dies with this pass, so it stages through the
  //    plum-mem arena instead of mesh-side heap.
  // plum-scale: scratch -- subdivision-pass leaf snapshot, arena staging
  obs::TrackedVec<Index> snapshot{obs::TrackingAllocator<Index>{scratch}};
  snapshot.reserve(static_cast<std::size_t>(mesh.num_elements()));
  for (Index t = 0; t < mesh.num_elements(); ++t) {
    if (mesh.element(t).alive && mesh.element(t).is_leaf()) {
      snapshot.push_back(t);
    }
  }
  for (Index t : snapshot) {
    const Pattern p = marks.pattern[t];
    const PatternClass pc = classify_pattern(p);
    PLUM_ASSERT(pc.valid);
    if (pc.type == SubdivType::kNone) continue;

    mesh.remove_from_leaf_lists(t);
    switch (pc.type) {
      case SubdivType::kOneToTwo: subdivide_1to2(mesh, t, pc.edge); break;
      case SubdivType::kOneToFour: subdivide_1to4(mesh, t, pc.face); break;
      case SubdivType::kOneToEight: subdivide_1to8(mesh, t); break;
      case SubdivType::kNone: break;
    }
    mesh.element(t).subdiv_type = static_cast<std::int8_t>(pc.type);
    ++stats.elements_refined;
    stats.children_created +=
        static_cast<Index>(mesh.element(t).num_children);
  }

  // 3. Keep the boundary triangulation conforming.
  const Index nf = mesh.num_bfaces();
  for (Index f = 0; f < nf; ++f) {
    if (!mesh.bface(f).alive || !mesh.bface(f).is_leaf()) continue;
    if (subdivide_bface(mesh, f) > 0) ++stats.bfaces_refined;
  }
  return stats;
}

}  // namespace plum::adapt
