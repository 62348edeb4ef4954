#include "adapt/coarsen.hpp"

#include <algorithm>

#include "adapt/marking.hpp"
#include "adapt/refine.hpp"
#include "util/assert.hpp"

namespace plum::adapt {

namespace {

using mesh::TetMesh;

/// Applies the sibling rule: a bisected parent edge "uncoarsens" only when
/// both its children are leaves and both are targeted.
std::vector<char> effective_marks(const TetMesh& m,
                                  const std::vector<char>& marks) {
  std::vector<char> eff(marks.size(), 0);
  for (Index e = 0; e < m.num_edges(); ++e) {
    const auto& ed = m.edge(e);
    if (!ed.alive || ed.is_leaf()) continue;
    const Index c0 = ed.child[0], c1 = ed.child[1];
    if (m.edge(c0).is_leaf() && m.edge(c1).is_leaf() && marks[c0] &&
        marks[c1]) {
      eff[c0] = eff[c1] = 1;
    }
  }
  // Marks on interior subdivision edges (no parent) pass through: removing
  // them simply dissolves the sibling group that created them.
  for (Index e = 0; e < m.num_edges(); ++e) {
    if (marks[e] && m.edge(e).alive && m.edge(e).parent == kInvalidIndex &&
        m.edge(e).level > 0 && m.edge(e).is_leaf()) {
      eff[e] = 1;
    }
  }
  return eff;
}

}  // namespace

CoarsenStats coarsen_mesh(
    TetMesh& mesh, const std::vector<char>& marks_in,
    const std::function<void(const std::vector<Index>&)>& on_compaction) {
  PLUM_ASSERT(static_cast<Index>(marks_in.size()) == mesh.num_edges());
  CoarsenStats stats;
  const std::vector<char> marks = effective_marks(mesh, marks_in);

  // --- 1. Remove sibling groups, deepest level first -----------------------
  std::int8_t max_level = 0;
  for (Index t = 0; t < mesh.num_elements(); ++t) {
    max_level = std::max(max_level, mesh.element(t).level);
  }

  for (int level = max_level; level >= 1; --level) {
    // Parents whose children include a coarsen-marked edge.
    std::vector<Index> doomed_parents;
    for (Index t = 0; t < mesh.num_elements(); ++t) {
      const auto& el = mesh.element(t);
      if (!el.alive || !el.is_leaf() || el.level != level) continue;
      bool hit = false;
      for (Index e : el.edges) {
        if (marks[e] && mesh.edge(e).alive) {
          hit = true;
          break;
        }
      }
      if (hit) doomed_parents.push_back(el.parent);
    }
    std::sort(doomed_parents.begin(), doomed_parents.end());
    doomed_parents.erase(
        std::unique(doomed_parents.begin(), doomed_parents.end()),
        doomed_parents.end());

    for (Index p : doomed_parents) {
      auto& par = mesh.element(p);
      PLUM_ASSERT(par.alive && !par.is_leaf());
      // Reverse-order constraint: skip if any sibling is refined deeper.
      bool all_leaves = true;
      for (int c = 0; c < par.num_children; ++c) {
        if (!mesh.element(par.first_child + c).is_leaf()) {
          all_leaves = false;
          break;
        }
      }
      if (!all_leaves) continue;

      for (int c = 0; c < par.num_children; ++c) {
        const Index child = par.first_child + c;
        mesh.remove_from_leaf_lists(child);
        mesh.element(child).alive = false;
        ++stats.elements_removed;
      }
      par.first_child = kInvalidIndex;
      par.num_children = 0;
      par.subdiv_type = 0;
      mesh.add_to_leaf_lists(p);
      ++stats.groups_removed;
      ++stats.parents_reinstated;
    }
  }

  // --- 2. Purge now-unreferenced edges / vertices / boundary faces ---------
  // Reference counts over *all* alive elements (parents kept in the forest
  // still pin their six edges).
  std::vector<Index> edge_refs(static_cast<std::size_t>(mesh.num_edges()), 0);
  for (Index t = 0; t < mesh.num_elements(); ++t) {
    const auto& el = mesh.element(t);
    if (!el.alive) continue;
    for (Index e : el.edges) ++edge_refs[static_cast<std::size_t>(e)];
  }
  // Deepest-first so a dying child can release its parent's bisection.
  std::vector<Index> edge_order(static_cast<std::size_t>(mesh.num_edges()));
  for (Index e = 0; e < mesh.num_edges(); ++e) edge_order[e] = e;
  std::sort(edge_order.begin(), edge_order.end(), [&](Index a, Index b) {
    return mesh.edge(a).level > mesh.edge(b).level;
  });
  for (Index e : edge_order) {
    auto& ed = mesh.edge(e);
    if (!ed.alive || ed.level == 0) continue;
    const bool children_alive =
        !ed.is_leaf() &&
        (mesh.edge(ed.child[0]).alive || mesh.edge(ed.child[1]).alive);
    if (edge_refs[static_cast<std::size_t>(e)] == 0 && !children_alive) {
      ed.alive = false;
      if (ed.parent != kInvalidIndex) {
        // Count each undone bisection once (via its first child).
        if (mesh.edge(ed.parent).child[0] == e) ++stats.edges_uncoarsened;
      }
    }
  }
  // Vertices referenced by no alive edge die (alive elements' vertices are
  // always endpoints of their alive edges, so edge refs suffice).
  std::vector<char> vert_used(static_cast<std::size_t>(mesh.num_vertices()),
                              0);
  for (Index e = 0; e < mesh.num_edges(); ++e) {
    const auto& ed = mesh.edge(e);
    if (!ed.alive) continue;
    vert_used[static_cast<std::size_t>(ed.v0)] = 1;
    vert_used[static_cast<std::size_t>(ed.v1)] = 1;
    if (ed.mid != kInvalidIndex && !ed.is_leaf() &&
        (mesh.edge(ed.child[0]).alive || mesh.edge(ed.child[1]).alive)) {
      vert_used[static_cast<std::size_t>(ed.mid)] = 1;
    }
  }
  for (Index v = 0; v < mesh.num_vertices(); ++v) {
    if (!vert_used[static_cast<std::size_t>(v)]) mesh.vertex(v).alive = false;
  }
  // Boundary faces: any face (leaf or interior node of the face tree) whose
  // edges died has had its whole element neighborhood coarsened away — it
  // dies together with all its siblings and descendants, reinstating the
  // ancestor face whose edges survive.
  for (Index f = 0; f < mesh.num_bfaces(); ++f) {
    auto& bf = mesh.bface(f);
    if (!bf.alive) continue;
    for (Index e : bf.edges) {
      if (!mesh.edge(e).alive) {
        bf.alive = false;
        break;
      }
    }
  }

  // --- 3. Compact ("objects are renumbered due to compaction") -------------
  stats.vertex_new_to_old = mesh.purge_and_compact();
  if (on_compaction) on_compaction(stats.vertex_new_to_old);

  // --- 4. Re-refine: reinstated parents whose edges are still bisected get
  //        subdivided again ("the refinement routine is then invoked to
  //        generate a valid mesh from the vertices left after coarsening").
  //        A re-refined parent's children can in turn hold an edge that a
  //        neighbor bisected deeper, so repeat until no leaf holds one.
  for (;;) {
    std::vector<char> remark(static_cast<std::size_t>(mesh.num_edges()), 0);
    bool any = false;
    for (Index t = 0; t < mesh.num_elements(); ++t) {
      const auto& el = mesh.element(t);
      if (!el.alive || !el.is_leaf()) continue;
      for (Index e : el.edges) {
        if (!mesh.edge(e).is_leaf()) {
          remark[static_cast<std::size_t>(e)] = 1;
          any = true;
        }
      }
    }
    if (!any) break;
    const MarkingResult marks2 = propagate_marks(mesh, remark);
    stats.resubdivided_children += refine_mesh(mesh, marks2).children_created;
  }
  return stats;
}

}  // namespace plum::adapt
