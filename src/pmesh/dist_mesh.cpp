#include "pmesh/dist_mesh.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace plum::pmesh {

using mesh::TetMesh;

std::vector<Index> bface_roots(const TetMesh& m) {
  std::vector<Index> root(static_cast<std::size_t>(m.num_bfaces()),
                          kInvalidIndex);
  for (Index f = 0; f < m.num_bfaces(); ++f) {
    const auto& bf = m.bface(f);
    if (!bf.alive || !bf.is_leaf()) continue;
    // Owner: the leaf element containing all three face vertices.
    Index owner = kInvalidIndex;
    for (Index t : m.edge_elements(bf.edges[0])) {
      const auto& vs = m.element(t).verts;
      int hits = 0;
      for (Index fv : bf.verts) {
        for (Index tv : vs) hits += (tv == fv);
      }
      if (hits == 3) {
        owner = t;
        break;
      }
    }
    PLUM_ASSERT(owner != kInvalidIndex);
    root[static_cast<std::size_t>(f)] = m.element(owner).root;
  }
  // Interior face-tree nodes inherit from any child (children are deeper
  // ids, so a reverse sweep sees children first).
  for (Index f = m.num_bfaces() - 1; f >= 0; --f) {
    const auto& bf = m.bface(f);
    if (!bf.alive || bf.is_leaf()) continue;
    PLUM_ASSERT(bf.child[0] != kInvalidIndex);
    root[static_cast<std::size_t>(f)] =
        root[static_cast<std::size_t>(bf.child[0])];
  }
  return root;
}

DistMesh::DistMesh(const TetMesh& global, const partition::PartVec& root_part,
                   Rank nranks) {
  PLUM_ASSERT(static_cast<Index>(root_part.size()) ==
              global.num_initial_elements());
  // plum-scale: dist(P) -- the in-process harness hosts one LocalMesh per simulated rank
  locals_.resize(static_cast<std::size_t>(nranks));

  // Rank of every element = rank of its root; of every boundary face = rank
  // of its face tree's root.
  const Index nt = global.num_elements();
  std::vector<Rank> elem_rank(static_cast<std::size_t>(nt), kNoRank);
  for (Index t = 0; t < nt; ++t) {
    const auto& el = global.element(t);
    if (el.alive) elem_rank[static_cast<std::size_t>(t)] = root_part[el.root];
  }
  const std::vector<Index> face_root = bface_roots(global);
  std::vector<Rank> bface_rank(face_root.size(), kNoRank);
  for (std::size_t f = 0; f < face_root.size(); ++f) {
    if (face_root[f] != kInvalidIndex) {
      bface_rank[f] = root_part[static_cast<std::size_t>(face_root[f])];
    }
  }

  // Per-global-entity local ids per rank (kInvalidIndex = not present).
  const Index nv = global.num_vertices();
  const Index ne = global.num_edges();
  // plum-scale: host-only -- construction-time scatter map, built once on the host
  std::vector<std::vector<Index>> vmap(
      static_cast<std::size_t>(nranks),
      std::vector<Index>(static_cast<std::size_t>(nv), kInvalidIndex));
  // plum-scale: host-only -- construction-time scatter map, built once on the host
  std::vector<std::vector<Index>> emap(
      static_cast<std::size_t>(nranks),
      std::vector<Index>(static_cast<std::size_t>(ne), kInvalidIndex));

  for (Rank r = 0; r < nranks; ++r) {
    LocalMesh& lm = locals_[static_cast<std::size_t>(r)];

    // --- select elements (global order => contiguous sibling groups) ------
    std::vector<Index> tmap(static_cast<std::size_t>(nt), kInvalidIndex);
    std::vector<Index> sel_elems;
    for (Index t = 0; t < nt; ++t) {
      if (elem_rank[static_cast<std::size_t>(t)] == r) {
        tmap[static_cast<std::size_t>(t)] =
            static_cast<Index>(sel_elems.size());
        sel_elems.push_back(t);
      }
    }

    // --- vertices & edges referenced by those elements ---------------------
    auto& vm = vmap[static_cast<std::size_t>(r)];
    auto& em = emap[static_cast<std::size_t>(r)];
    std::vector<Index> sel_verts, sel_edges;
    auto touch_vert = [&](Index v) {
      if (vm[static_cast<std::size_t>(v)] == kInvalidIndex) {
        vm[static_cast<std::size_t>(v)] = -2;  // mark; number later in order
      }
    };
    auto touch_edge = [&](Index e) {
      if (em[static_cast<std::size_t>(e)] == kInvalidIndex) {
        em[static_cast<std::size_t>(e)] = -2;
      }
    };
    for (Index t : sel_elems) {
      for (Index v : global.element(t).verts) touch_vert(v);
      for (Index e : global.element(t).edges) touch_edge(e);
    }
    // Midpoints of included bisected edges (endpoints of child edges that
    // are themselves included when the children's elements are included).
    for (Index e = 0; e < ne; ++e) {
      if (em[static_cast<std::size_t>(e)] == -2) {
        touch_vert(global.edge(e).v0);
        touch_vert(global.edge(e).v1);
      }
    }
    for (Index v = 0; v < nv; ++v) {
      if (vm[static_cast<std::size_t>(v)] == -2) {
        vm[static_cast<std::size_t>(v)] = static_cast<Index>(sel_verts.size());
        sel_verts.push_back(v);
      }
    }
    for (Index e = 0; e < ne; ++e) {
      if (em[static_cast<std::size_t>(e)] == -2) {
        em[static_cast<std::size_t>(e)] = static_cast<Index>(sel_edges.size());
        sel_edges.push_back(e);
      }
    }

    // --- boundary faces -----------------------------------------------------
    std::vector<Index> fmap(static_cast<std::size_t>(global.num_bfaces()),
                            kInvalidIndex);
    std::vector<Index> sel_bfaces;
    for (Index f = 0; f < global.num_bfaces(); ++f) {
      if (bface_rank[static_cast<std::size_t>(f)] == r) {
        fmap[static_cast<std::size_t>(f)] =
            static_cast<Index>(sel_bfaces.size());
        sel_bfaces.push_back(f);
      }
    }

    // --- build localized records -------------------------------------------
    std::vector<mesh::Vertex> lverts;
    lverts.reserve(sel_verts.size());
    for (Index v : sel_verts) lverts.push_back(global.vertex(v));

    std::vector<mesh::Edge> ledges;
    ledges.reserve(sel_edges.size());
    Index n_init_edges = 0;
    for (Index e : sel_edges) {
      mesh::Edge ed = global.edge(e);
      localize_edge(ed, vm, em);
      if (ed.level == 0) ++n_init_edges;
      ledges.push_back(ed);
    }

    std::vector<mesh::Element> lelems;
    lelems.reserve(sel_elems.size());
    Index n_init_elems = 0;
    for (Index t : sel_elems) {
      mesh::Element el = global.element(t);
      localize_element(el, vm, em, tmap);
      if (el.level == 0) {
        ++n_init_elems;
        lm.root_global.push_back(t);
      }
      lelems.push_back(el);
    }

    std::vector<mesh::BFace> lbfaces;
    lbfaces.reserve(sel_bfaces.size());
    for (Index f : sel_bfaces) {
      mesh::BFace bf = global.bface(f);
      localize_bface(bf, vm, em, fmap);
      lbfaces.push_back(bf);
    }

    lm.mesh = TetMesh::assemble(std::move(lverts), std::move(ledges),
                                std::move(lelems), std::move(lbfaces),
                                n_init_elems, n_init_edges);
    lm.vert_global = sel_verts;
    lm.edge_global = sel_edges;
  }

  // --- SPLs: invert the per-rank maps --------------------------------------
  for (Index v = 0; v < nv; ++v) {
    std::vector<SharedCopy> copies;
    for (Rank r = 0; r < nranks; ++r) {
      const Index lid = vmap[static_cast<std::size_t>(r)][static_cast<std::size_t>(v)];
      if (lid != kInvalidIndex) copies.push_back({r, lid});
    }
    if (copies.size() < 2) continue;
    for (const auto& me : copies) {
      auto& spl = locals_[static_cast<std::size_t>(me.rank)]
                      .shared_verts[me.remote_id];
      for (const auto& other : copies) {
        if (other.rank != me.rank) spl.push_back(other);
      }
    }
  }
  for (Index e = 0; e < ne; ++e) {
    std::vector<SharedCopy> copies;
    for (Rank r = 0; r < nranks; ++r) {
      const Index lid = emap[static_cast<std::size_t>(r)][static_cast<std::size_t>(e)];
      if (lid != kInvalidIndex) copies.push_back({r, lid});
    }
    if (copies.size() < 2) continue;
    for (const auto& me : copies) {
      auto& spl = locals_[static_cast<std::size_t>(me.rank)]
                      .shared_edges[me.remote_id];
      for (const auto& other : copies) {
        if (other.rank != me.rank) spl.push_back(other);
      }
    }
  }
}

Index DistMesh::total_active_elements() const {
  Index sum = 0;
  for (const auto& lm : locals_) sum += lm.mesh.num_active_elements();
  return sum;
}

std::vector<Index> DistMesh::active_elements_per_rank() const {
  std::vector<Index> out;
  out.reserve(locals_.size());
  for (const auto& lm : locals_) out.push_back(lm.mesh.num_active_elements());
  return out;
}

double DistMesh::shared_object_fraction() const {
  std::int64_t shared = 0, total = 0;
  for (const auto& lm : locals_) {
    shared += static_cast<std::int64_t>(lm.shared_verts.size()) +
              static_cast<std::int64_t>(lm.shared_edges.size());
    total += lm.mesh.num_vertices() + lm.mesh.num_edges();
  }
  return total == 0 ? 0.0 : static_cast<double>(shared) /
                                static_cast<double>(total);
}

void DistMesh::validate() const {
  // Symmetry + closure of one SPL kind: every copy points back at us and
  // lists the same holder set (its own rank plus its SPL ranks).
  auto holders = [](Rank self, const std::vector<SharedCopy>& spl) {
    std::vector<Rank> h{self};
    for (const auto& c : spl) h.push_back(c.rank);
    std::sort(h.begin(), h.end());
    PLUM_ASSERT_MSG(std::adjacent_find(h.begin(), h.end()) == h.end(),
                    "SPL lists a rank twice");
    return h;
  };
  auto check_spls = [&](SplMap LocalMesh::*map, const char* asym,
                        const char* mirror, const char* closure) {
    for (Rank r = 0; r < nranks(); ++r) {
      for (const auto& [lid, spl] : local(r).*map) {
        const auto mine = holders(r, spl);
        for (const auto& copy : spl) {
          const SplMap& other = local(copy.rank).*map;
          auto it = other.find(copy.remote_id);
          PLUM_ASSERT_MSG(it != other.end(), asym);
          PLUM_ASSERT_MSG(holders(copy.rank, it->second) == mine, closure);
          const bool back = std::any_of(
              it->second.begin(), it->second.end(), [&](const SharedCopy& c) {
                return c.rank == r && c.remote_id == lid;
              });
          PLUM_ASSERT_MSG(back, mirror);
        }
      }
    }
  };
  check_spls(&LocalMesh::shared_edges, "asymmetric edge SPL",
             "edge SPL does not mirror", "edge SPL holder sets differ");
  check_spls(&LocalMesh::shared_verts, "asymmetric vertex SPL",
             "vertex SPL does not mirror", "vertex SPL holder sets differ");

  for (Rank r = 0; r < nranks(); ++r) {
    const LocalMesh& lm = local(r);
    lm.mesh.validate();
    for (const auto& [lid, spl] : lm.shared_edges) {
      for (const auto& copy : spl) {
        const LocalMesh& other = local(copy.rank);
        const auto& ea = lm.mesh.edge(lid);
        const auto& eb = other.mesh.edge(copy.remote_id);
        const auto pa0 = lm.mesh.vertex(ea.v0).pos;
        const auto pb0 = other.mesh.vertex(eb.v0).pos;
        const auto pa1 = lm.mesh.vertex(ea.v1).pos;
        const auto pb1 = other.mesh.vertex(eb.v1).pos;
        const bool same = (norm(pa0 - pb0) + norm(pa1 - pb1) < 1e-12) ||
                          (norm(pa0 - pb1) + norm(pa1 - pb0) < 1e-12);
        PLUM_ASSERT_MSG(same, "shared edge geometry mismatch");
      }
    }
    for (const auto& [lid, spl] : lm.shared_verts) {
      for (const auto& copy : spl) {
        const auto pa = lm.mesh.vertex(lid).pos;
        const auto pb = local(copy.rank).mesh.vertex(copy.remote_id).pos;
        PLUM_ASSERT_MSG(norm(pa - pb) < 1e-12,
                        "shared vertex geometry mismatch");
      }
    }
  }
}

}  // namespace plum::pmesh
