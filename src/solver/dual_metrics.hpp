#pragma once
// Median-dual metrics for a vertex-centered edge-based finite-volume scheme
// (the data layout of the paper's Euler solver, §2: unknowns at vertices,
// fluxes across nonoverlapping polyhedral control volumes, edge-based
// loops).
//
// For each active edge (a,b) the dual interface between control volumes a
// and b is a polygon stitched from, per incident tet: two triangles
// (edge-midpoint, face-centroid, tet-centroid). We accumulate its directed
// area (oriented a -> b). Control volumes are the median-dual cells:
// V_a = sum over incident tets of |T| / 4. Boundary closure: each boundary
// triangle contributes area/3 to each of its vertices' boundary normals.

#include <vector>

#include "mesh/tet_mesh.hpp"

namespace plum::solver {

struct DualMetrics {
  /// Active edge list (edges with at least one leaf element).
  std::vector<Index> edges;
  /// Directed dual-face area per active edge, oriented v0 -> v1.
  std::vector<mesh::Vec3> edge_area;
  /// Median-dual volume per vertex (0 for inactive vertices).
  std::vector<double> cell_volume;
  /// Outward boundary-normal area per vertex (closure of the dual surface).
  std::vector<mesh::Vec3> boundary_area;
  /// Shortest incident active-edge length per vertex (CFL estimate).
  std::vector<double> min_edge_length;

  /// Vertices with nonzero dual volume (the solver's unknowns).
  [[nodiscard]] std::vector<Index> active_vertices() const;
};

/// Builds metrics over the current computational mesh (leaf elements).
DualMetrics build_dual_metrics(const mesh::TetMesh& mesh);

/// As above, into `m`, reusing the capacity its arrays already hold: a
/// caller that reserves them on one thread can fill them on another
/// without the arrays moving to that thread's allocator.
void build_dual_metrics(const mesh::TetMesh& mesh, DualMetrics* m);

}  // namespace plum::solver
