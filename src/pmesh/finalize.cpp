#include "pmesh/finalize.hpp"

#include <algorithm>
#include <functional>

#include "runtime/collectives.hpp"
#include "util/assert.hpp"

namespace plum::pmesh {

namespace {

/// Owner of a shared object: the lowest rank holding a copy.
Rank owner_of(Rank self, const std::vector<SharedCopy>* spl) {
  Rank owner = self;
  if (spl) {
    for (const auto& c : *spl) owner = std::min(owner, c.rank);
  }
  return owner;
}

struct GidMsg {
  Index local_id;  ///< receiver-local id
  Index gid;
};

/// Assigns dense global ids to vertices or edges: owners number their
/// objects (two passes for edges so level-0 edges occupy the global
/// prefix), then push the ids to the other copies through the engine.
/// `is_first_class(r, i)` selects pass-one objects; pass nullptr for a
/// single pass.
std::vector<std::vector<Index>> number_objects(
    const DistMesh& dm, rt::Engine& eng,
    const std::function<Index(Rank)>& count_of,
    const std::function<const std::vector<SharedCopy>*(Rank, Index)>& spl_of,
    const std::function<bool(Rank, Index)>& in_first_pass) {
  const Rank P = dm.nranks();
  // plum-scale: host-only -- host-side gather of per-rank global ids during finalize
  std::vector<std::vector<Index>> gid(static_cast<std::size_t>(P));
  for (Rank r = 0; r < P; ++r) {
    gid[static_cast<std::size_t>(r)].assign(
        static_cast<std::size_t>(count_of(r)), kInvalidIndex);
  }

  // Owned counts per rank per pass -> exclusive prefix offsets.
  Index next = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (Rank r = 0; r < P; ++r) {
      const Index n = count_of(r);
      for (Index i = 0; i < n; ++i) {
        if (owner_of(r, spl_of(r, i)) != r) continue;
        const bool first = in_first_pass(r, i);
        if ((pass == 0) != first) continue;
        gid[static_cast<std::size_t>(r)][static_cast<std::size_t>(i)] = next++;
      }
    }
  }

  // Push ids to non-owning copies (one superstep of GidMsg batches).
  eng.run([&](Rank r, const rt::Inbox& inbox, rt::Outbox& out) {
    if (out.step() == 0) {
      PeerBuckets<GidMsg> outgoing;
      const Index n = count_of(r);
      for (Index i = 0; i < n; ++i) {
        const auto* spl = spl_of(r, i);
        if (!spl || owner_of(r, spl) != r) continue;
        for (const auto& c : *spl) {
          outgoing[c.rank].push_back(
              {c.remote_id,
               gid[static_cast<std::size_t>(r)][static_cast<std::size_t>(i)]});
        }
      }
      outgoing.post(out, 0);
      return true;
    }
    for (const auto& m : inbox.messages()) {
      for (const auto& msg : rt::unpack<GidMsg>(m)) {
        auto& slot = gid[static_cast<std::size_t>(r)]
                        [static_cast<std::size_t>(msg.local_id)];
        PLUM_ASSERT_MSG(slot == kInvalidIndex || slot == msg.gid,
                        "conflicting global ids for a shared object");
        slot = msg.gid;
      }
    }
    return false;
  });

  for (Rank r = 0; r < P; ++r) {
    for (Index g : gid[static_cast<std::size_t>(r)]) {
      PLUM_ASSERT_MSG(g != kInvalidIndex, "object missed global numbering");
    }
  }
  return gid;
}

}  // namespace

FinalizeResult finalize_gather(const DistMesh& dm, rt::Engine& eng) {
  const Rank P = dm.nranks();
  FinalizeResult out;

  // --- vertices (single pass) ----------------------------------------------
  auto vert_spl = [&](Rank r, Index v) -> const std::vector<SharedCopy>* {
    const auto& map = dm.local(r).shared_verts;
    auto it = map.find(v);
    return it == map.end() ? nullptr : &it->second;
  };
  out.vert_global = number_objects(
      dm, eng, [&](Rank r) { return dm.local(r).mesh.num_vertices(); },
      vert_spl, [](Rank, Index) { return true; });

  // --- edges (level-0 owned edges claim the global prefix) ------------------
  auto edge_spl = [&](Rank r, Index e) -> const std::vector<SharedCopy>* {
    const auto& map = dm.local(r).shared_edges;
    auto it = map.find(e);
    return it == map.end() ? nullptr : &it->second;
  };
  out.edge_global = number_objects(
      dm, eng, [&](Rank r) { return dm.local(r).mesh.num_edges(); }, edge_spl,
      [&](Rank r, Index e) { return dm.local(r).mesh.edge(e).level == 0; });
  const auto& edge_gid = out.edge_global;

  // --- elements (never shared; level-0 first, preserving per-rank order) ----
  // plum-scale: host-only -- the gathered final mesh lives on the host
  out.elem_global.resize(static_cast<std::size_t>(P));
  Index next_elem = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (Rank r = 0; r < P; ++r) {
      const auto& lm = dm.local(r).mesh;
      auto& eg = out.elem_global[static_cast<std::size_t>(r)];
      eg.resize(static_cast<std::size_t>(lm.num_elements()), kInvalidIndex);
      for (Index t = 0; t < lm.num_elements(); ++t) {
        const bool init = lm.element(t).level == 0;
        if ((pass == 0) == init) {
          eg[static_cast<std::size_t>(t)] = next_elem++;
        }
      }
    }
  }

  // --- boundary faces (local; simple per-rank offsets) ----------------------
  // plum-scale: host-only -- host-side prefix-offset table for the gathered mesh
  std::vector<Index> bface_offset(static_cast<std::size_t>(P) + 1, 0);
  for (Rank r = 0; r < P; ++r) {
    bface_offset[static_cast<std::size_t>(r) + 1] =
        bface_offset[static_cast<std::size_t>(r)] +
        dm.local(r).mesh.num_bfaces();
  }

  // --- the host gathers and concatenates ------------------------------------
  // (One rank-0 assembly; charge the traffic as a gather of each rank's
  //  owned records.)
  Index total_verts = 0, total_edges = 0, total_elems = 0;
  Index init_elems = 0;
  for (Rank r = 0; r < P; ++r) {
    const auto& lm = dm.local(r).mesh;
    total_elems += lm.num_elements();
    init_elems += lm.num_initial_elements();
    for (Index v = 0; v < lm.num_vertices(); ++v) {
      total_verts += (owner_of(r, vert_spl(r, v)) == r);
    }
    for (Index e = 0; e < lm.num_edges(); ++e) {
      total_edges += (owner_of(r, edge_spl(r, e)) == r);
    }
  }
  // Shared edges are owned once, but their level-0 subset still forms the
  // prefix; recompute the true count of distinct initial edges.
  Index distinct_init_edges = 0;
  for (Rank r = 0; r < P; ++r) {
    const auto& lm = dm.local(r).mesh;
    for (Index e = 0; e < lm.num_edges(); ++e) {
      if (lm.edge(e).level == 0 && owner_of(r, edge_spl(r, e)) == r) {
        ++distinct_init_edges;
      }
    }
  }

  std::vector<mesh::Vertex> gverts(static_cast<std::size_t>(total_verts));
  std::vector<mesh::Edge> gedges(static_cast<std::size_t>(total_edges));
  std::vector<mesh::Element> gelems(static_cast<std::size_t>(total_elems));
  std::vector<mesh::BFace> gbfaces(
      static_cast<std::size_t>(bface_offset[static_cast<std::size_t>(P)]));

  for (Rank r = 0; r < P; ++r) {
    const auto& lm = dm.local(r).mesh;
    const auto& vg = out.vert_global[static_cast<std::size_t>(r)];
    const auto& egd = edge_gid[static_cast<std::size_t>(r)];
    const auto& tg = out.elem_global[static_cast<std::size_t>(r)];
    auto fmap = [&](Index f) {
      return f == kInvalidIndex
                 ? kInvalidIndex
                 : bface_offset[static_cast<std::size_t>(r)] + f;
    };

    for (Index v = 0; v < lm.num_vertices(); ++v) {
      if (owner_of(r, vert_spl(r, v)) == r) {
        gverts[static_cast<std::size_t>(vg[v])] = lm.vertex(v);
      }
    }
    for (Index e = 0; e < lm.num_edges(); ++e) {
      if (owner_of(r, edge_spl(r, e)) != r) continue;
      mesh::Edge ed = lm.edge(e);
      ed.v0 = vg[ed.v0];
      ed.v1 = vg[ed.v1];
      if (ed.v0 > ed.v1) std::swap(ed.v0, ed.v1);
      if (ed.mid != kInvalidIndex) ed.mid = vg[ed.mid];
      if (ed.parent != kInvalidIndex) ed.parent = egd[ed.parent];
      for (auto& c : ed.child) {
        if (c != kInvalidIndex) c = egd[c];
      }
      gedges[static_cast<std::size_t>(egd[e])] = ed;
    }
    for (Index t = 0; t < lm.num_elements(); ++t) {
      mesh::Element el = lm.element(t);
      for (auto& v : el.verts) v = vg[v];
      for (auto& e : el.edges) e = egd[e];
      if (el.parent != kInvalidIndex) el.parent = tg[el.parent];
      if (el.first_child != kInvalidIndex) el.first_child = tg[el.first_child];
      el.root = tg[el.root];
      gelems[static_cast<std::size_t>(tg[t])] = el;
    }
    for (Index f = 0; f < lm.num_bfaces(); ++f) {
      mesh::BFace bf = lm.bface(f);
      for (auto& v : bf.verts) v = vg[v];
      for (auto& e : bf.edges) e = egd[e];
      bf.parent = fmap(bf.parent);
      for (auto& c : bf.child) c = fmap(c);
      gbfaces[static_cast<std::size_t>(fmap(f))] = bf;
    }
  }

  // Children of one parent must stay contiguous: per-rank relative order is
  // preserved by the two-pass numbering, and children are never level 0.
  out.global = mesh::TetMesh::assemble(std::move(gverts), std::move(gedges),
                                       std::move(gelems), std::move(gbfaces),
                                       init_elems, distinct_init_edges);
  return out;
}

}  // namespace plum::pmesh
