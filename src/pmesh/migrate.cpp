#include "pmesh/migrate.hpp"

#include <algorithm>
#include <span>
#include <tuple>
#include <unordered_map>

#include "util/assert.hpp"

namespace plum::pmesh {

namespace {

using obs::TrackedVec;
using obs::TrackingAllocator;
using solver::State;

/// Cross-rank name of a vertex or edge: the lowest rank holding a copy and
/// that rank's local id. Every holder derives the same key from its SPL.
struct Key {
  Rank rank = kNoRank;
  Index id = kInvalidIndex;
};

std::uint64_t key_bits(Key k) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.rank))
          << 32) |
         static_cast<std::uint32_t>(k.id);
}

// Pack records. Ids are pack-local (a position in the pack's section, or
// kInvalidIndex when the target did not make the pack). Every record is
// padding-free, so each byte of a pack is written; elements travel as
// mesh::Element, which is padding-free too.
struct VertRec {
  mesh::Vec3 pos;
  Key key;
  std::int64_t boundary;
};

struct EdgeRec {
  Key key;
  Index v0, v1, mid, parent;
  std::array<Index, 2> child;
  std::int16_t level;
  std::int16_t boundary;
};

struct BFaceRec {
  std::array<Index, 3> verts;
  std::array<Index, 3> edges;
  Index parent;
  std::array<Index, 4> child;
  Index num_children;
};

static_assert(sizeof(PackHeader) == 6 * sizeof(Index));
static_assert(sizeof(VertRec) == 40 && sizeof(EdgeRec) == 36 &&
              sizeof(BFaceRec) == 48 && sizeof(mesh::Element) == 56);

enum : Index { kVert = 0, kEdge = 1 };

/// S1 registration: "I hold the object you know as `key_id`, as my `lid`".
struct RegMsg {
  Index kind;
  Index key_id;
  Index lid;
};

/// S2 directory reply: "your `local` is also held by (rank, remote)".
struct HolderMsg {
  Index kind;
  Index local;
  Rank rank;
  Index remote;
};

// Per-entity flags of a rank's old mesh.
constexpr std::uint8_t kKept = 1;    ///< referenced by a kept element
constexpr std::uint8_t kPacked = 2;  ///< referenced by a leaving element
constexpr std::uint8_t kShared = 4;  ///< had an SPL before the move

/// What rank r's pack step leaves for its unpack step, plus its counters.
struct RankMove {
  std::vector<Rank> root_dest;  ///< new rank of every old local root
  PackHeader kept;              ///< record counts of what stays
  std::vector<std::uint8_t> vflag, eflag;
  std::vector<Key> vkey, ekey;
  std::vector<Index> face_root;  ///< bface_roots() of the old mesh
  Index roots_moved = 0;
  std::int64_t elements_moved = 0;
  int packs_sent = 0;
  std::int64_t bytes_sent = 0;
  std::int64_t bytes_received = 0;
  // Directory traffic between a rank and itself stays local.
  std::vector<RegMsg> own_regs;        ///< S1 registrations this rank owns
  std::vector<HolderMsg> own_holders;  ///< S2 replies addressed to itself
};

/// Keys of `n` objects: (self, id) unless an SPL names a lower holder; SPL
/// members are flagged kShared.
std::vector<Key> keys_of(const SplMap& spl, Rank self, Index n,
                         std::vector<std::uint8_t>& flag) {
  std::vector<Key> key(static_cast<std::size_t>(n));
  for (Index i = 0; i < n; ++i) key[static_cast<std::size_t>(i)] = {self, i};
  for (const auto& [id, copies] : spl) {
    auto& k = key[static_cast<std::size_t>(id)];
    for (const auto& c : copies) {
      if (c.rank < k.rank) k = {c.rank, c.remote_id};
    }
    flag[static_cast<std::size_t>(id)] |= kShared;
  }
  return key;
}

template <typename V>
Index size_of(const V& v) {
  return static_cast<Index>(v.size());
}

/// One (sender, receiver) pack: the leaving subtrees bound for one rank,
/// with pack-local ids (positions in its own sections). On the wire it is a
/// PackHeader of section sizes followed by the sections in this order.
struct Pack {
  std::vector<Index> roots;  ///< global ids of the leading level-0 elements
  std::vector<VertRec> verts;
  std::vector<State> states;  ///< one per vertex, or none
  std::vector<EdgeRec> edges;
  std::vector<mesh::Element> elems;
  std::vector<BFaceRec> bfaces;
};

std::vector<std::byte> encode(const Pack& p) {
  const PackHeader h{size_of(p.roots), size_of(p.verts), size_of(p.states),
                     size_of(p.edges), size_of(p.elems), size_of(p.bfaces)};
  std::vector<std::byte> out = rt::pack(std::span<const PackHeader>(&h, 1));
  auto append = [&out](const auto& section) {
    const std::vector<std::byte> bytes = rt::pack(section);
    out.insert(out.end(), bytes.begin(), bytes.end());
  };
  append(p.roots);
  append(p.verts);
  append(p.states);
  append(p.edges);
  append(p.elems);
  append(p.bfaces);
  return out;
}

Pack decode(const rt::Message& m) {
  std::span<const std::byte> rest(m.bytes);
  auto take = [&rest]<typename T>(std::vector<T>& section, Index n) {
    const auto bytes = static_cast<std::size_t>(n) * sizeof(T);
    PLUM_ASSERT_MSG(n >= 0 && bytes <= rest.size(), "malformed migration pack");
    section = rt::unpack<T>(rest.first(bytes));
    rest = rest.subspan(bytes);
  };
  std::vector<PackHeader> h;
  take(h, 1);
  Pack p;
  take(p.roots, h[0].roots);
  take(p.verts, h[0].verts);
  take(p.states, h[0].states);
  take(p.edges, h[0].edges);
  take(p.elems, h[0].elems);
  take(p.bfaces, h[0].bfaces);
  PLUM_ASSERT_MSG(rest.empty(), "malformed migration pack");
  return p;
}

// --- S0: classify the old mesh, ship one pack per destination ---------------

void pack_rank(Rank r, const LocalMesh& lm,
               const partition::PartVec& new_root_part,
               const std::vector<State>* su, RankMove& mv, rt::Outbox& out,
               obs::Arena* ms) {
  const mesh::TetMesh& m = lm.mesh;
  const Index nv = m.num_vertices();
  const Index ne = m.num_edges();
  const Index nt = m.num_elements();
  const Index nf = m.num_bfaces();
  const TrackingAllocator<Index> alloc{ms};
  PLUM_ASSERT(su == nullptr || static_cast<Index>(su->size()) == nv);

  mv.vflag.assign(static_cast<std::size_t>(nv), 0);
  mv.eflag.assign(static_cast<std::size_t>(ne), 0);
  mv.vkey = keys_of(lm.shared_verts, r, nv, mv.vflag);
  mv.ekey = keys_of(lm.shared_edges, r, ne, mv.eflag);

  // Destinations of the leaving roots, ascending: one pack slot each.
  mv.root_dest.resize(lm.root_global.size());
  TrackedVec<Rank> dests{TrackingAllocator<Rank>{ms}};
  for (std::size_t lr = 0; lr < lm.root_global.size(); ++lr) {
    const Rank q =
        new_root_part[static_cast<std::size_t>(lm.root_global[lr])];
    mv.root_dest[lr] = q;
    if (q != r) {
      ++mv.roots_moved;
      dests.push_back(q);
    } else {
      ++mv.kept.roots;
    }
  }
  std::sort(dests.begin(), dests.end());
  dests.erase(std::unique(dests.begin(), dests.end()), dests.end());
  auto slot_of = [&](Rank q) {
    return static_cast<std::size_t>(
        std::lower_bound(dests.begin(), dests.end(), q) - dests.begin());
  };

  // Bucket leaving elements (old order, so level-0 roots lead and sibling
  // groups stay contiguous) and face trees by destination; flag which
  // vertices/edges stay and which leave.
  const TrackedVec<Index> empty(alloc);
  TrackedVec<TrackedVec<Index>> elems(
      dests.size(), empty, TrackingAllocator<TrackedVec<Index>>{ms});
  TrackedVec<TrackedVec<Index>> faces(
      dests.size(), empty, TrackingAllocator<TrackedVec<Index>>{ms});
  for (Index t = 0; t < nt; ++t) {
    const auto& el = m.element(t);
    if (!el.alive) continue;
    const Rank q = mv.root_dest[static_cast<std::size_t>(el.root)];
    const std::uint8_t f = q == r ? kKept : kPacked;
    for (Index v : el.verts) mv.vflag[static_cast<std::size_t>(v)] |= f;
    for (Index e : el.edges) mv.eflag[static_cast<std::size_t>(e)] |= f;
    if (q != r) {
      elems[slot_of(q)].push_back(t);
    } else {
      ++mv.kept.elems;
    }
  }
  auto kept = [](std::uint8_t f) { return (f & kKept) != 0; };
  mv.kept.verts = static_cast<Index>(
      std::count_if(mv.vflag.begin(), mv.vflag.end(), kept));
  mv.kept.edges = static_cast<Index>(
      std::count_if(mv.eflag.begin(), mv.eflag.end(), kept));
  mv.face_root = bface_roots(m);
  for (Index f = 0; f < nf; ++f) {
    const Index root = mv.face_root[static_cast<std::size_t>(f)];
    if (root == kInvalidIndex) continue;
    const Rank q = mv.root_dest[static_cast<std::size_t>(root)];
    if (q != r) {
      faces[slot_of(q)].push_back(f);
    } else {
      ++mv.kept.bfaces;
    }
  }

  // Old id -> pack-local id of the pack being written (reset per pack).
  TrackedVec<Index> vpos(static_cast<std::size_t>(nv), kInvalidIndex, alloc);
  TrackedVec<Index> epos(static_cast<std::size_t>(ne), kInvalidIndex, alloc);
  TrackedVec<Index> tpos(static_cast<std::size_t>(nt), kInvalidIndex, alloc);
  TrackedVec<Index> fpos(static_cast<std::size_t>(nf), kInvalidIndex, alloc);
  TrackedVec<Index> vs(alloc);
  TrackedVec<Index> es(alloc);
  for (std::size_t s = 0; s < dests.size(); ++s) {
    const auto& te = elems[s];
    const auto& tf = faces[s];
    vs.clear();
    es.clear();
    for (Index t : te) {
      for (Index v : m.element(t).verts) {
        if (vpos[static_cast<std::size_t>(v)] == kInvalidIndex) {
          vpos[static_cast<std::size_t>(v)] = 0;
          vs.push_back(v);
        }
      }
      for (Index e : m.element(t).edges) {
        if (epos[static_cast<std::size_t>(e)] == kInvalidIndex) {
          epos[static_cast<std::size_t>(e)] = 0;
          es.push_back(e);
        }
      }
    }
    std::sort(vs.begin(), vs.end());
    std::sort(es.begin(), es.end());
    for (std::size_t i = 0; i < vs.size(); ++i) {
      vpos[static_cast<std::size_t>(vs[i])] = static_cast<Index>(i);
    }
    for (std::size_t i = 0; i < es.size(); ++i) {
      epos[static_cast<std::size_t>(es[i])] = static_cast<Index>(i);
    }
    for (std::size_t i = 0; i < te.size(); ++i) {
      tpos[static_cast<std::size_t>(te[i])] = static_cast<Index>(i);
    }
    for (std::size_t i = 0; i < tf.size(); ++i) {
      fpos[static_cast<std::size_t>(tf[i])] = static_cast<Index>(i);
    }

    Pack pk;
    for (Index t : te) {  // ascending, so the level-0 roots lead
      if (t >= m.num_initial_elements()) break;
      pk.roots.push_back(lm.root_global[static_cast<std::size_t>(t)]);
    }
    for (Index v : vs) {
      const auto uv = static_cast<std::size_t>(v);
      const auto& vx = m.vertex(v);
      pk.verts.push_back({vx.pos, mv.vkey[uv], vx.boundary ? 1 : 0});
      if (su != nullptr) pk.states.push_back((*su)[uv]);
    }
    for (Index e : es) {
      mesh::Edge ed = m.edge(e);
      localize_edge(ed, vpos, epos);
      pk.edges.push_back({mv.ekey[static_cast<std::size_t>(e)], ed.v0, ed.v1,
                          ed.mid, ed.parent, ed.child, ed.level,
                          static_cast<std::int16_t>(ed.boundary ? 1 : 0)});
    }
    for (Index t : te) {
      mesh::Element el = m.element(t);
      localize_element(el, vpos, epos, tpos);
      pk.elems.push_back(el);
    }
    for (Index f : tf) {
      mesh::BFace bf = m.bface(f);
      localize_bface(bf, vpos, epos, fpos);
      pk.bfaces.push_back(
          {bf.verts, bf.edges, bf.parent, bf.child, bf.num_children});
    }

    std::vector<std::byte> pack = encode(pk);
    mv.elements_moved += size_of(te);
    mv.bytes_sent += static_cast<std::int64_t>(pack.size());
    ++mv.packs_sent;
    out.charge(size_of(te));
    out.send(dests[s], kTagMigratePack, std::move(pack));
    for (Index v : vs) vpos[static_cast<std::size_t>(v)] = kInvalidIndex;
    for (Index e : es) epos[static_cast<std::size_t>(e)] = kInvalidIndex;
  }
}

// --- S1: rebuild the local mesh, register shared candidates -----------------

/// One source of the new mesh — source 0 is the kept part of the old mesh,
/// source 1 + p the p-th received pack — and its source-local -> new ids.
struct SourceMaps {
  TrackedVec<Index> v, e, t, f;
};

void unpack_rank(Rank r, LocalMesh& lm, RankMove& mv, const rt::Inbox& inbox,
                 std::vector<State>* su, rt::Outbox& out, obs::Arena* ms) {
  const mesh::TetMesh& m = lm.mesh;
  const TrackingAllocator<Index> alloc{ms};
  std::vector<Pack> packs;
  for (const rt::Message* msg : inbox.with_tag(kTagMigratePack)) {
    packs.push_back(decode(*msg));
    mv.bytes_received += static_cast<std::int64_t>(msg->bytes.size());
  }
  auto sized = [&](Index n) {
    return TrackedVec<Index>(static_cast<std::size_t>(n), kInvalidIndex,
                             alloc);
  };
  std::vector<SourceMaps> src;
  src.push_back({sized(m.num_vertices()), sized(m.num_edges()),
                 sized(m.num_elements()), sized(m.num_bfaces())});
  // Upper bounds of the new mesh's sizes (shared vertices/edges dedupe),
  // so its arrays are allocated once.
  PackHeader most = mv.kept;
  for (const Pack& p : packs) {
    src.push_back({sized(size_of(p.verts)), sized(size_of(p.edges)),
                   sized(size_of(p.elems)), sized(size_of(p.bfaces))});
    most.roots += size_of(p.roots);
    most.verts += size_of(p.verts);
    most.edges += size_of(p.edges);
    most.elems += size_of(p.elems);
    most.bfaces += size_of(p.bfaces);
  }
  auto reserve = [](auto& vec, Index n) {
    vec.reserve(static_cast<std::size_t>(n));
  };
  // Source of every new entity, for the reference fix-up below.
  TrackedVec<Index> edge_src(alloc);
  TrackedVec<Index> elem_src(alloc);
  reserve(edge_src, most.edges);
  reserve(elem_src, most.elems);

  // Objects to register with their key owners: (key, new id).
  TrackedVec<std::pair<Key, Index>> vreg{
      TrackingAllocator<std::pair<Key, Index>>{ms}};
  TrackedVec<std::pair<Key, Index>> ereg{
      TrackingAllocator<std::pair<Key, Index>>{ms}};
  // plum-lint: allow(unordered-iteration) -- lookup-only key dedup (find /
  // try_emplace); never iterated, so its order cannot reach messages.
  std::unordered_map<std::uint64_t, Index> vby_key;
  // plum-lint: allow(unordered-iteration) -- lookup-only key dedup (find /
  // try_emplace); never iterated, so its order cannot reach messages.
  std::unordered_map<std::uint64_t, Index> eby_key;

  // --- vertices: kept ones in old order, then each pack's, deduplicated ----
  std::vector<mesh::Vertex> verts;
  std::vector<State> states;
  reserve(verts, most.verts);
  if (su != nullptr) reserve(states, most.verts);
  for (Index v = 0; v < m.num_vertices(); ++v) {
    const std::uint8_t f = mv.vflag[static_cast<std::size_t>(v)];
    if ((f & kKept) == 0) continue;
    const auto id = static_cast<Index>(verts.size());
    src[0].v[static_cast<std::size_t>(v)] = id;
    verts.push_back(m.vertex(v));
    if (su != nullptr) states.push_back((*su)[static_cast<std::size_t>(v)]);
    if ((f & (kShared | kPacked)) == 0) continue;
    const Key k = mv.vkey[static_cast<std::size_t>(v)];
    vreg.emplace_back(k, id);
    if ((f & kShared) != 0) vby_key.emplace(key_bits(k), id);
  }
  for (std::size_t p = 0; p < packs.size(); ++p) {
    for (Index i = 0; i < size_of(packs[p].verts); ++i) {
      const VertRec& rec = packs[p].verts[static_cast<std::size_t>(i)];
      const auto [it, fresh] = vby_key.try_emplace(
          key_bits(rec.key), static_cast<Index>(verts.size()));
      const Index id = it->second;
      src[p + 1].v[static_cast<std::size_t>(i)] = id;
      if (!fresh) continue;
      verts.push_back(mesh::Vertex{rec.pos, rec.boundary != 0, true});
      if (su != nullptr) {
        states.push_back(packs[p].states[static_cast<std::size_t>(i)]);
      }
      vreg.emplace_back(rec.key, id);
    }
  }

  // --- edges: level-0 prefix first, each part kept-then-packs ---------------
  // A refinement tree references both halves of every bisected edge it
  // references, so each source carries complete bisection links; they
  // resolve within the source that first places the edge.
  std::vector<mesh::Edge> edges;
  reserve(edges, most.edges);
  auto place_kept_edge = [&](Index e) {
    const auto id = static_cast<Index>(edges.size());
    src[0].e[static_cast<std::size_t>(e)] = id;
    edges.push_back(m.edge(e));
    edge_src.push_back(0);
    const std::uint8_t f = mv.eflag[static_cast<std::size_t>(e)];
    if ((f & (kShared | kPacked)) == 0) return;
    const Key k = mv.ekey[static_cast<std::size_t>(e)];
    ereg.emplace_back(k, id);
    if ((f & kShared) != 0) eby_key.emplace(key_bits(k), id);
  };
  auto place_packed_edge = [&](std::size_t p, Index i, const EdgeRec& rec) {
    const auto [it, fresh] = eby_key.try_emplace(
        key_bits(rec.key), static_cast<Index>(edges.size()));
    const Index id = it->second;
    src[p + 1].e[static_cast<std::size_t>(i)] = id;
    if (!fresh) return;
    mesh::Edge ed;
    ed.v0 = rec.v0;
    ed.v1 = rec.v1;
    ed.mid = rec.mid;
    ed.parent = rec.parent;
    ed.child = rec.child;
    ed.level = static_cast<std::int8_t>(rec.level);
    ed.boundary = rec.boundary != 0;
    edges.push_back(ed);
    edge_src.push_back(static_cast<Index>(p + 1));
    ereg.emplace_back(rec.key, id);
  };
  for (const bool initial : {true, false}) {
    for (Index e = 0; e < m.num_edges(); ++e) {
      if ((mv.eflag[static_cast<std::size_t>(e)] & kKept) != 0 &&
          (m.edge(e).level == 0) == initial) {
        place_kept_edge(e);
      }
    }
    for (std::size_t p = 0; p < packs.size(); ++p) {
      for (Index i = 0; i < size_of(packs[p].edges); ++i) {
        const EdgeRec& rec = packs[p].edges[static_cast<std::size_t>(i)];
        if ((rec.level == 0) == initial) place_packed_edge(p, i, rec);
      }
    }
  }
  Index n_init_edges = 0;
  for (const auto& ed : edges) n_init_edges += (ed.level == 0);

  // --- elements: kept roots, received roots, then the refined levels --------
  const Index old_roots = m.num_initial_elements();
  std::vector<mesh::Element> elems;
  std::vector<Index> root_global;
  reserve(elems, most.elems);
  reserve(root_global, most.roots);
  auto place_elem = [&](std::size_t s, Index t, const mesh::Element& el) {
    src[s].t[static_cast<std::size_t>(t)] = static_cast<Index>(elems.size());
    elems.push_back(el);
    elem_src.push_back(static_cast<Index>(s));
  };
  auto kept_elem = [&](Index t) {
    const auto& el = m.element(t);
    return el.alive &&
           mv.root_dest[static_cast<std::size_t>(el.root)] == r;
  };
  for (Index t = 0; t < old_roots; ++t) {
    if (!kept_elem(t)) continue;
    place_elem(0, t, m.element(t));
    root_global.push_back(lm.root_global[static_cast<std::size_t>(t)]);
  }
  for (std::size_t p = 0; p < packs.size(); ++p) {
    for (Index i = 0; i < size_of(packs[p].roots); ++i) {
      place_elem(p + 1, i, packs[p].elems[static_cast<std::size_t>(i)]);
      root_global.push_back(packs[p].roots[static_cast<std::size_t>(i)]);
    }
  }
  const auto n_init_elems = static_cast<Index>(elems.size());
  for (Index t = old_roots; t < m.num_elements(); ++t) {
    if (kept_elem(t)) place_elem(0, t, m.element(t));
  }
  for (std::size_t p = 0; p < packs.size(); ++p) {
    for (Index i = size_of(packs[p].roots); i < size_of(packs[p].elems); ++i) {
      place_elem(p + 1, i, packs[p].elems[static_cast<std::size_t>(i)]);
    }
  }

  // --- boundary faces: kept trees, then each pack's -------------------------
  std::vector<mesh::BFace> bfaces;
  TrackedVec<Index> face_src(alloc);
  reserve(bfaces, most.bfaces);
  reserve(face_src, most.bfaces);
  for (Index f = 0; f < m.num_bfaces(); ++f) {
    const Index root = mv.face_root[static_cast<std::size_t>(f)];
    if (root == kInvalidIndex ||
        mv.root_dest[static_cast<std::size_t>(root)] != r) {
      continue;
    }
    src[0].f[static_cast<std::size_t>(f)] = static_cast<Index>(bfaces.size());
    bfaces.push_back(m.bface(f));
    face_src.push_back(0);
  }
  for (std::size_t p = 0; p < packs.size(); ++p) {
    for (Index i = 0; i < size_of(packs[p].bfaces); ++i) {
      const BFaceRec& rec = packs[p].bfaces[static_cast<std::size_t>(i)];
      mesh::BFace bf;
      bf.verts = rec.verts;
      bf.edges = rec.edges;
      bf.parent = rec.parent;
      bf.child = rec.child;
      bf.num_children = static_cast<std::int8_t>(rec.num_children);
      src[p + 1].f[static_cast<std::size_t>(i)] =
          static_cast<Index>(bfaces.size());
      bfaces.push_back(bf);
      face_src.push_back(static_cast<Index>(p + 1));
    }
  }

  // --- source-local references -> new ids (the constructor's rules) ---------
  auto from = [&](const TrackedVec<Index>& source, std::size_t id) -> auto& {
    return src[static_cast<std::size_t>(source[id])];
  };
  for (std::size_t id = 0; id < edges.size(); ++id) {
    const SourceMaps& s = from(edge_src, id);
    localize_edge(edges[id], s.v, s.e);
  }
  for (std::size_t id = 0; id < elems.size(); ++id) {
    const SourceMaps& s = from(elem_src, id);
    localize_element(elems[id], s.v, s.e, s.t);
  }
  for (std::size_t id = 0; id < bfaces.size(); ++id) {
    const SourceMaps& s = from(face_src, id);
    localize_bface(bfaces[id], s.v, s.e, s.f);
  }

  LocalMesh fresh;
  fresh.root_global = std::move(root_global);
  fresh.mesh = mesh::TetMesh::assemble(std::move(verts), std::move(edges),
                                       std::move(elems), std::move(bfaces),
                                       n_init_elems, n_init_edges);
  out.charge(fresh.mesh.num_elements());
  lm = std::move(fresh);
  if (su != nullptr) *su = std::move(states);

  // --- register with the key owners (kept local when the owner is r) ------
  std::vector<std::pair<Rank, RegMsg>> regs;
  regs.reserve(vreg.size() + ereg.size());
  for (const auto& [k, id] : vreg) regs.push_back({k.rank, {kVert, k.id, id}});
  for (const auto& [k, id] : ereg) regs.push_back({k.rank, {kEdge, k.id, id}});
  std::stable_sort(
      regs.begin(), regs.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  TrackedVec<RegMsg> batch{TrackingAllocator<RegMsg>{ms}};
  for (std::size_t i = 0; i < regs.size();) {
    const Rank owner = regs[i].first;
    batch.clear();
    for (; i < regs.size() && regs[i].first == owner; ++i) {
      batch.push_back(regs[i].second);
    }
    if (owner == r) {
      mv.own_regs.assign(batch.begin(), batch.end());
    } else {
      out.send_vec(owner, kTagMigrateRegister, batch);
    }
  }
}

// --- S2: key owners answer with the holder lists ----------------------------

void answer_directory(Rank r, RankMove& mv, const rt::Inbox& inbox,
                      rt::Outbox& out, obs::Arena* ms) {
  struct Entry {
    Index kind;
    Index key_id;
    Rank rank;
    Index lid;
  };
  TrackedVec<Entry> regs{TrackingAllocator<Entry>{ms}};
  for (const RegMsg& rec : mv.own_regs) {
    regs.push_back({rec.kind, rec.key_id, r, rec.lid});
  }
  for (const rt::Message* msg : inbox.with_tag(kTagMigrateRegister)) {
    for (const RegMsg& rec : rt::unpack<RegMsg>(*msg)) {
      regs.push_back({rec.kind, rec.key_id, msg->from, rec.lid});
    }
  }
  // Groups by object, each listing its holders rank-sorted.
  std::sort(regs.begin(), regs.end(), [](const Entry& a, const Entry& b) {
    return std::tie(a.kind, a.key_id, a.rank) <
           std::tie(b.kind, b.key_id, b.rank);
  });
  std::vector<std::pair<Rank, HolderMsg>> replies;
  for (std::size_t a = 0; a < regs.size();) {
    std::size_t b = a + 1;
    while (b < regs.size() && regs[b].kind == regs[a].kind &&
           regs[b].key_id == regs[a].key_id) {
      ++b;
    }
    for (std::size_t h = a; h < b && b - a > 1; ++h) {
      for (std::size_t o = a; o < b; ++o) {
        if (o == h) continue;
        PLUM_ASSERT_MSG(regs[o].rank != regs[h].rank,
                        "one rank holds two copies of a migrated object");
        replies.push_back({regs[h].rank,
                           {regs[h].kind, regs[h].lid, regs[o].rank,
                            regs[o].lid}});
      }
    }
    a = b;
  }
  std::stable_sort(
      replies.begin(), replies.end(),
      [](const auto& x, const auto& y) { return x.first < y.first; });
  TrackedVec<HolderMsg> batch{TrackingAllocator<HolderMsg>{ms}};
  for (std::size_t i = 0; i < replies.size();) {
    const Rank to = replies[i].first;
    batch.clear();
    for (; i < replies.size() && replies[i].first == to; ++i) {
      batch.push_back(replies[i].second);
    }
    if (to == r) {
      mv.own_holders.assign(batch.begin(), batch.end());
    } else {
      out.send_vec(to, kTagMigrateHolders, batch);
    }
  }
}

// --- S3: holders install the SPLs -------------------------------------------

void install_spls(LocalMesh& lm, const RankMove& mv, const rt::Inbox& inbox) {
  // Each object's holders arrive from its one key owner, rank-sorted.
  auto install = [&](const HolderMsg& rec) {
    SplMap& map = rec.kind == kVert ? lm.shared_verts : lm.shared_edges;
    map[rec.local].push_back({rec.rank, rec.remote});
  };
  for (const HolderMsg& rec : mv.own_holders) install(rec);
  for (const rt::Message* msg : inbox.with_tag(kTagMigrateHolders)) {
    for (const HolderMsg& rec : rt::unpack<HolderMsg>(*msg)) install(rec);
  }
}

}  // namespace

MigrateStats migrate(DistMesh& dm, rt::Engine& eng,
                     const partition::PartVec& new_root_part,
                     std::vector<std::vector<State>>* states,
                     obs::MemoryTracker* mem) {
  const Rank P = dm.nranks();
  PLUM_ASSERT(states == nullptr || static_cast<Rank>(states->size()) == P);
  // plum-scale: dist(P) -- one pack/unpack staging slot per simulated rank, written only by that rank
  std::vector<RankMove> moves(static_cast<std::size_t>(P));

  eng.run([&](Rank r, const rt::Inbox& inbox, rt::Outbox& out) {
    LocalMesh& lm = dm.local(r);
    RankMove& mv = moves[static_cast<std::size_t>(r)];
    std::vector<State>* su =
        states != nullptr ? &(*states)[static_cast<std::size_t>(r)] : nullptr;
    // The claiming worker stages through its own rank's scratch row.
    obs::Arena* const ms = mem != nullptr ? mem->scratch(r) : nullptr;
    switch (out.step()) {
      case 0:
        pack_rank(r, lm, new_root_part, su, mv, out, ms);
        return true;
      case 1:
        unpack_rank(r, lm, mv, inbox, su, out, ms);
        return true;
      case 2:
        answer_directory(r, mv, inbox, out, ms);
        return true;
      default:
        install_spls(lm, mv, inbox);
        return false;
    }
  });

  MigrateStats stats;
  // plum-scale: host-only -- migration statistics table for the report, not rank-resident
  stats.bytes_sent.assign(static_cast<std::size_t>(P), 0);
  // plum-scale: host-only -- migration statistics table for the report, not rank-resident
  stats.bytes_received.assign(static_cast<std::size_t>(P), 0);
  for (Rank r = 0; r < P; ++r) {
    const RankMove& mv = moves[static_cast<std::size_t>(r)];
    stats.roots_moved += mv.roots_moved;
    stats.elements_moved += mv.elements_moved;
    stats.sets_moved += mv.packs_sent;
    stats.bytes_sent[static_cast<std::size_t>(r)] = mv.bytes_sent;
    stats.bytes_received[static_cast<std::size_t>(r)] = mv.bytes_received;
  }
  return stats;
}

}  // namespace plum::pmesh
