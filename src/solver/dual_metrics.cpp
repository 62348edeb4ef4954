#include "solver/dual_metrics.hpp"

#include <algorithm>
#include <limits>

#include "util/assert.hpp"

namespace plum::solver {

using mesh::Vec3;

std::vector<Index> DualMetrics::active_vertices() const {
  std::vector<Index> out;
  for (Index v = 0; v < static_cast<Index>(cell_volume.size()); ++v) {
    if (cell_volume[static_cast<std::size_t>(v)] > 0) out.push_back(v);
  }
  return out;
}

DualMetrics build_dual_metrics(const mesh::TetMesh& mesh) {
  DualMetrics m;
  build_dual_metrics(mesh, &m);
  return m;
}

void build_dual_metrics(const mesh::TetMesh& mesh, DualMetrics* out) {
  DualMetrics& m = *out;
  const Index nv = mesh.num_vertices();
  const Index ne = mesh.num_edges();
  m.edges.clear();
  m.cell_volume.assign(static_cast<std::size_t>(nv), 0.0);
  m.boundary_area.assign(static_cast<std::size_t>(nv), Vec3{});
  m.min_edge_length.assign(static_cast<std::size_t>(nv),
                           std::numeric_limits<double>::max());

  // Active edges and a dense slot map for accumulation.
  std::vector<Index> slot(static_cast<std::size_t>(ne), kInvalidIndex);
  for (Index e = 0; e < ne; ++e) {
    if (mesh.edge_elements(e).empty()) continue;
    slot[static_cast<std::size_t>(e)] = static_cast<Index>(m.edges.size());
    m.edges.push_back(e);
    const double len = mesh.edge_length(e);
    for (Index v : {mesh.edge(e).v0, mesh.edge(e).v1}) {
      m.min_edge_length[static_cast<std::size_t>(v)] =
          std::min(m.min_edge_length[static_cast<std::size_t>(v)], len);
    }
  }
  m.edge_area.assign(m.edges.size(), Vec3{});

  // Per leaf tet: volumes and dual-face contributions.
  for (Index t = 0; t < mesh.num_elements(); ++t) {
    const auto& el = mesh.element(t);
    if (!el.alive || !el.is_leaf()) continue;

    const Vec3 p[4] = {
        mesh.vertex(el.verts[0]).pos, mesh.vertex(el.verts[1]).pos,
        mesh.vertex(el.verts[2]).pos, mesh.vertex(el.verts[3]).pos};
    const double vol = mesh.element_volume(t);
    PLUM_ASSERT(vol > 0);
    for (Index v : el.verts) {
      m.cell_volume[static_cast<std::size_t>(v)] += vol / 4.0;
    }
    const Vec3 cT = (p[0] + p[1] + p[2] + p[3]) / 4.0;

    // Face centroids, face f opposite local vertex f.
    Vec3 cF[4];
    for (int f = 0; f < kTetFaces; ++f) {
      cF[f] = (p[mesh::kFaceVerts[f][0]] + p[mesh::kFaceVerts[f][1]] +
               p[mesh::kFaceVerts[f][2]]) /
              3.0;
    }

    for (int k = 0; k < kTetEdges; ++k) {
      const int a = mesh::kEdgeVerts[k][0];
      const int b = mesh::kEdgeVerts[k][1];
      const Vec3 mid = mesh::midpoint(p[a], p[b]);
      // The two faces containing edge (a,b) are those NOT opposite a or b.
      int shared[2];
      int n = 0;
      for (int f = 0; f < kTetFaces; ++f) {
        if (f != a && f != b) shared[n++] = f;
      }
      // Two triangles (mid, cF, cT), each oriented along b - a before
      // summing (their raw normals can disagree).
      const Vec3 dir = p[b] - p[a];
      Vec3 tri0 = cross(cF[shared[0]] - mid, cT - mid) * 0.5;
      if (dot(tri0, dir) < 0) tri0 = tri0 * -1.0;
      Vec3 tri1 = cross(cF[shared[1]] - mid, cT - mid) * 0.5;
      if (dot(tri1, dir) < 0) tri1 = tri1 * -1.0;
      Vec3 area = tri0 + tri1;

      const Index e = el.edges[k];
      const Index s = slot[static_cast<std::size_t>(e)];
      PLUM_ASSERT(s != kInvalidIndex);
      // Flip to the edge's canonical v0 -> v1 direction.
      const bool canonical = mesh.edge(e).v0 == el.verts[a];
      m.edge_area[static_cast<std::size_t>(s)] +=
          canonical ? area : area * -1.0;
    }
  }

  // Boundary closure from leaf boundary faces.
  for (Index f = 0; f < mesh.num_bfaces(); ++f) {
    const auto& bf = mesh.bface(f);
    if (!bf.alive || !bf.is_leaf()) continue;
    const Vec3 a = mesh.vertex(bf.verts[0]).pos;
    const Vec3 b = mesh.vertex(bf.verts[1]).pos;
    const Vec3 c = mesh.vertex(bf.verts[2]).pos;
    Vec3 area = cross(b - a, c - a) * 0.5;
    // Orient outward: away from the centroid of the adjacent element (the
    // edge-sharing element that actually contains all three face vertices).
    const auto& owners = mesh.edge_elements(bf.edges[0]);
    Index owner = kInvalidIndex;
    for (Index t : owners) {
      const auto& vs = mesh.element(t).verts;
      int hits = 0;
      for (Index fv : bf.verts) {
        for (Index tv : vs) hits += (tv == fv);
      }
      if (hits == 3) {
        owner = t;
        break;
      }
    }
    PLUM_ASSERT_MSG(owner != kInvalidIndex, "boundary face without element");
    const Vec3 inward = mesh.element_centroid(owner) - (a + b + c) / 3.0;
    if (dot(area, inward) > 0) area = area * -1.0;
    for (Index v : bf.verts) {
      m.boundary_area[static_cast<std::size_t>(v)] += area / 3.0;
    }
  }
}

}  // namespace plum::solver
