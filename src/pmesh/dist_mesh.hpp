#pragma once
// Distributed tetrahedral mesh (paper §3, distributed-memory 3D_TAG).
//
// Each logical rank owns the initial-mesh elements its partition assigns to
// it, plus their whole refinement subtrees (descendants follow their root —
// that is also why Wremap counts the full tree). Vertices and edges on
// partition boundaries are replicated on every sharing rank; each shared
// object carries a shared-processor list (SPL) with the *remote local ids*
// of its copies, which is what messages address ("a list of shared
// processors is also generated for each shared object").
//
// Construction distributes a (possibly already adapted) global mesh. After
// that, the parallel marking / refinement algorithms (parallel_adapt.hpp)
// mutate only the per-rank local meshes and keep the SPL maps consistent
// through explicit messages, and data migration (migrate.hpp) packs, ships
// and unpacks whole refinement subtrees between ranks, rebuilding the SPLs
// through an owner directory — no host-side global mesh is involved.
// Distributed coarsening (parallel_coarsen.hpp) still redistributes from a
// gathered mirror (DESIGN.md §3 documents that substitution).

#include <algorithm>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "mesh/tet_mesh.hpp"
#include "partition/quality.hpp"
#include "runtime/engine.hpp"

namespace plum::pmesh {

/// One (rank, remote local id) entry of a shared object's SPL.
struct SharedCopy {
  Rank rank = kNoRank;
  Index remote_id = kInvalidIndex;
};

/// SPL map: local id -> copies on other ranks. Deliberately an *ordered*
/// map: the parallel adaption and solver range-for these maps to build
/// Outbox::send batches, so the iteration order is part of the engine
/// determinism contract (runtime/engine.hpp) — an unordered_map here made
/// message payload order depend on the standard library's hashing.
/// plum-lint's `unordered-iteration` check enforces this.
using SplMap = std::map<Index, std::vector<SharedCopy>>;

/// Per-rank piece of the distributed mesh.
struct LocalMesh {
  mesh::TetMesh mesh;

  /// Local root element -> global initial-element id (dual graph vertex).
  std::vector<Index> root_global;

  /// Construction-time global ids (local id -> id in the source global
  /// mesh). Entities created by later parallel adaption have no entry, and
  /// migrate() clears both (its renumbering ends their meaning); cross-rank
  /// identity lives purely in the SPL maps.
  std::vector<Index> vert_global;
  std::vector<Index> edge_global;

  /// SPLs; only boundary objects appear. Keys iterate in ascending local
  /// id so every traversal (message building, validation) is deterministic.
  // plum-scale: dist(P) -- keyed by global id but holds only this rank's shared-boundary entries, O(cut) not O(N)
  SplMap shared_verts;
  // plum-scale: dist(P) -- keyed by global id but holds only this rank's shared-boundary entries, O(cut) not O(N)
  SplMap shared_edges;
};

/// One superstep's SPL send staging: a bucket per destination rank, made
/// on first use and kept in ascending rank order. A rank addresses only
/// its SPL peers, so staging is O(peers) where a bucket per rank is O(P),
/// and a rank that sends nothing stages nothing. post() sends the
/// non-empty buckets in ascending rank order, so the message stream does
/// not depend on the order the buckets were first used in. `Alloc` lets
/// arena-backed callers stage through their scratch.
template <class T, class Alloc = std::allocator<T>>
class PeerBuckets {
 public:
  using Bucket = std::vector<T, Alloc>;
  using RankAlloc =
      typename std::allocator_traits<Alloc>::template rebind_alloc<Rank>;

  explicit PeerBuckets(const Alloc& alloc = Alloc())
      : alloc_(alloc),
        peers_(RankAlloc(alloc)),
        buckets_(BucketAlloc(alloc)) {}

  /// The bucket for rank `q`.
  Bucket& operator[](Rank q) {
    const auto it = std::lower_bound(peers_.begin(), peers_.end(), q);
    const auto i = it - peers_.begin();
    if (it == peers_.end() || *it != q) {
      peers_.insert(it, q);
      buckets_.insert(buckets_.begin() + i, Bucket(alloc_));
    }
    return buckets_[static_cast<std::size_t>(i)];
  }

  /// The ranks with a bucket, ascending.
  [[nodiscard]] const std::vector<Rank, RankAlloc>& peers() const {
    return peers_;
  }

  /// Sends each non-empty bucket as one `tag` message, ascending rank.
  void post(rt::Outbox& out, int tag) const {
    for (std::size_t i = 0; i < peers_.size(); ++i) {
      if (!buckets_[i].empty()) out.send_vec(peers_[i], tag, buckets_[i]);
    }
  }

 private:
  using BucketAlloc =
      typename std::allocator_traits<Alloc>::template rebind_alloc<Bucket>;

  Alloc alloc_;
  std::vector<Rank, RankAlloc> peers_;
  std::vector<Bucket, BucketAlloc> buckets_;
};

// --- distribution rules shared by the constructor and migrate() ------------

/// Root element of the refinement tree each boundary face belongs to
/// (kInvalidIndex for dead faces): a leaf face goes with the leaf element
/// holding its three vertices, an interior face with its first child. Whole
/// face trees are placed by this rule.
[[nodiscard]] std::vector<Index> bface_roots(const mesh::TetMesh& m);

/// `id` through a source-id -> local-id map; kInvalidIndex passes through.
template <class Map>
[[nodiscard]] Index local_id(const Map& map, Index id) {
  return id == kInvalidIndex ? kInvalidIndex
                             : map[static_cast<std::size_t>(id)];
}

/// Rewrites an edge's ids through vertex/edge maps whose entries are
/// kInvalidIndex for objects that are not local. Endpoints stay ordered; a
/// bisected edge keeps its children and midpoint only if both halves are
/// local.
template <class Map>
void localize_edge(mesh::Edge& ed, const Map& vmap, const Map& emap) {
  ed.v0 = local_id(vmap, ed.v0);
  ed.v1 = local_id(vmap, ed.v1);
  if (ed.v0 > ed.v1) std::swap(ed.v0, ed.v1);
  ed.parent = local_id(emap, ed.parent);
  const Index c0 = local_id(emap, ed.child[0]);
  const Index c1 = local_id(emap, ed.child[1]);
  if (c0 != kInvalidIndex && c1 != kInvalidIndex) {
    ed.child = {c0, c1};
    ed.mid = local_id(vmap, ed.mid);
    PLUM_ASSERT(ed.mid != kInvalidIndex);
  } else {
    ed.child = {kInvalidIndex, kInvalidIndex};
    ed.mid = kInvalidIndex;
  }
}

/// Rewrites an element's ids; its root must be local (trees move whole).
template <class Map>
void localize_element(mesh::Element& el, const Map& vmap, const Map& emap,
                      const Map& tmap) {
  for (auto& v : el.verts) v = local_id(vmap, v);
  for (auto& e : el.edges) e = local_id(emap, e);
  el.parent = local_id(tmap, el.parent);
  el.first_child = local_id(tmap, el.first_child);
  el.root = local_id(tmap, el.root);
  PLUM_ASSERT(el.root != kInvalidIndex);
}

/// Rewrites a boundary face's ids.
template <class Map>
void localize_bface(mesh::BFace& bf, const Map& vmap, const Map& emap,
                    const Map& fmap) {
  for (auto& v : bf.verts) v = local_id(vmap, v);
  for (auto& e : bf.edges) e = local_id(emap, e);
  bf.parent = local_id(fmap, bf.parent);
  for (auto& c : bf.child) c = local_id(fmap, c);
}

class DistMesh {
 public:
  /// Distributes `global` over `nranks` ranks: initial element t goes to
  /// root_part[t]; descendants follow. `global` may be pre-adapted.
  DistMesh(const mesh::TetMesh& global, const partition::PartVec& root_part,
           Rank nranks);

  [[nodiscard]] Rank nranks() const {
    return static_cast<Rank>(locals_.size());
  }
  [[nodiscard]] LocalMesh& local(Rank r) {
    return locals_[static_cast<std::size_t>(r)];
  }
  [[nodiscard]] const LocalMesh& local(Rank r) const {
    return locals_[static_cast<std::size_t>(r)];
  }

  /// Sum over ranks of active local elements (shared objects make vertex /
  /// edge sums exceed the global counts; elements are never replicated).
  [[nodiscard]] Index total_active_elements() const;

  /// Per-rank active leaf element counts — the solver load vector.
  [[nodiscard]] std::vector<Index> active_elements_per_rank() const;

  /// Extra storage fraction of the parallel version: replicated shared
  /// objects / total local objects (paper: "less than 10%").
  [[nodiscard]] double shared_object_fraction() const;

  /// Checks SPL symmetry (i's entry for j mirrors j's entry for i), SPL
  /// closure (every copy of a shared object lists the same holder set: its
  /// own rank plus its SPL ranks) and that shared edges/vertices have
  /// identical geometry on every copy.
  void validate() const;

 private:
  std::vector<LocalMesh> locals_;
};

}  // namespace plum::pmesh
