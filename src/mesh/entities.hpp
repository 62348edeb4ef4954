#pragma once
// Mesh entity records and the local topology of a tetrahedron.
//
// Following 3D_TAG (paper §3), elements are defined by their six edges; we
// keep the four vertices alongside because subdivision and geometry need
// them constantly and deriving them from edges each time is pure waste.
// Refinement history (parent/children links on edges and elements) is
// retained: the paper's coarsening reinstates parents instead of
// reconstructing them, and Wremap counts whole refinement trees.

#include <array>
#include <cstdint>

#include "mesh/vec3.hpp"
#include "util/types.hpp"

namespace plum::mesh {

// ---------------------------------------------------------------------------
// Local topology tables. Local edge k of a tet joins local vertices
// kEdgeVerts[k]; local face f is opposite local vertex f and consists of
// vertices kFaceVerts[f] / edges kFaceEdges[f].
// ---------------------------------------------------------------------------

inline constexpr std::array<std::array<int, 2>, kTetEdges> kEdgeVerts = {{
    {0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3},
}};

inline constexpr std::array<std::array<int, 3>, kTetFaces> kFaceVerts = {{
    {1, 2, 3}, {0, 2, 3}, {0, 1, 3}, {0, 1, 2},
}};

inline constexpr std::array<std::array<int, 3>, kTetFaces> kFaceEdges = {{
    {3, 4, 5}, {1, 2, 5}, {0, 2, 4}, {0, 1, 3},
}};

/// Local edge joining local vertices (a, b); -1 if a == b.
inline constexpr int local_edge_between(int a, int b) {
  for (int k = 0; k < kTetEdges; ++k) {
    if ((kEdgeVerts[k][0] == a && kEdgeVerts[k][1] == b) ||
        (kEdgeVerts[k][0] == b && kEdgeVerts[k][1] == a)) {
      return k;
    }
  }
  return -1;
}

// ---------------------------------------------------------------------------
// Entity records
// ---------------------------------------------------------------------------

struct Vertex {
  Vec3 pos;
  bool boundary = false;  ///< lies on the external boundary
  bool alive = true;      ///< false once removed by coarsening compaction
};

struct Edge {
  Index v0 = kInvalidIndex;  ///< endpoints, canonical v0 < v1
  Index v1 = kInvalidIndex;
  Index parent = kInvalidIndex;       ///< edge this was bisected from
  std::array<Index, 2> child = {kInvalidIndex, kInvalidIndex};
  Index mid = kInvalidIndex;          ///< midpoint vertex once bisected
  std::int8_t level = 0;              ///< refinement depth (0 = initial mesh)
  bool boundary = false;              ///< lies on the external boundary
  bool alive = true;

  /// Leaf edges are part of the current computational mesh.
  [[nodiscard]] bool is_leaf() const { return child[0] == kInvalidIndex; }
};

struct Element {
  std::array<Index, kTetVerts> verts{};
  std::array<Index, kTetEdges> edges{};  ///< aligned with kEdgeVerts
  Index parent = kInvalidIndex;
  Index first_child = kInvalidIndex;  ///< children are contiguous ids
  std::int8_t num_children = 0;
  std::int8_t level = 0;
  std::int8_t subdiv_type = 0;  ///< 0 none, 2/4/8 = 1:2 / 1:4 / 1:8
  bool alive = true;            ///< false once replaced or coarsened away
  Index root = kInvalidIndex;   ///< initial-mesh ancestor (dual graph vertex)

  [[nodiscard]] bool is_leaf() const { return num_children == 0; }
};

struct BFace {
  std::array<Index, 3> verts{};
  std::array<Index, 3> edges{};  ///< edge i joins verts[i], verts[(i+1)%3]
  Index parent = kInvalidIndex;
  std::array<Index, 4> child = {kInvalidIndex, kInvalidIndex, kInvalidIndex,
                                kInvalidIndex};
  std::int8_t num_children = 0;
  bool alive = true;

  [[nodiscard]] bool is_leaf() const { return num_children == 0; }
};

}  // namespace plum::mesh
