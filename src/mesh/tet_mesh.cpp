#include "mesh/tet_mesh.hpp"

#include "graph/dual.hpp"

#include <algorithm>
#include <tuple>

namespace plum::mesh {

namespace {

double tet_volume(const Vec3& a, const Vec3& b, const Vec3& c, const Vec3& d) {
  return dot(cross(b - a, c - a), d - a) / 6.0;
}

struct FaceRec {
  Index v0, v1, v2;  // sorted
  Index elem;
  int local_face;
  bool operator<(const FaceRec& o) const {
    return std::tie(v0, v1, v2) < std::tie(o.v0, o.v1, o.v2);
  }
  [[nodiscard]] bool same_face(const FaceRec& o) const {
    return v0 == o.v0 && v1 == o.v1 && v2 == o.v2;
  }
};

}  // namespace

TetMesh TetMesh::from_cells(std::vector<Vec3> vertices,
                            std::span<const std::array<Index, 4>> tets) {
  TetMesh m;
  m.vertices_.reserve(vertices.size() * 2);
  for (const Vec3& p : vertices) m.vertices_.push_back(Vertex{p, false, true});

  m.elements_.reserve(tets.size() * 2);
  for (const auto& t_in : tets) {
    std::array<Index, 4> t = t_in;
    // Enforce positive orientation up front; subdivision preserves it.
    if (tet_volume(vertices[t[0]], vertices[t[1]], vertices[t[2]],
                   vertices[t[3]]) < 0) {
      std::swap(t[2], t[3]);
    }
    Element el;
    el.verts = t;
    el.root = static_cast<Index>(m.elements_.size());
    for (int k = 0; k < kTetEdges; ++k) {
      el.edges[k] = m.find_or_add_edge(t[kEdgeVerts[k][0]],
                                       t[kEdgeVerts[k][1]], 0, false);
    }
    m.elements_.push_back(el);
  }
  m.n_init_elems_ = static_cast<Index>(m.elements_.size());
  m.n_init_edges_ = static_cast<Index>(m.edges_.size());

  for (Index t = 0; t < m.n_init_elems_; ++t) m.add_to_leaf_lists(t);

  // Boundary faces: faces touched by exactly one element.
  std::vector<FaceRec> faces;
  faces.reserve(m.elements_.size() * 4);
  for (Index t = 0; t < m.n_init_elems_; ++t) {
    for (int f = 0; f < kTetFaces; ++f) {
      std::array<Index, 3> fv{};
      for (int i = 0; i < 3; ++i) {
        fv[i] = m.elements_[t].verts[kFaceVerts[f][i]];
      }
      std::sort(fv.begin(), fv.end());
      faces.push_back({fv[0], fv[1], fv[2], t, f});
    }
  }
  std::sort(faces.begin(), faces.end());
  for (std::size_t i = 0; i < faces.size();) {
    if (i + 1 < faces.size() && faces[i].same_face(faces[i + 1])) {
      i += 2;
      continue;
    }
    // Unmatched face -> boundary. Use the element's local vertex order so
    // the triangle's edges line up with element edges.
    const FaceRec& fr = faces[i];
    BFace bf;
    for (int k = 0; k < 3; ++k) {
      bf.verts[k] = m.elements_[fr.elem].verts[kFaceVerts[fr.local_face][k]];
    }
    for (int k = 0; k < 3; ++k) {
      const Index e = m.find_edge(bf.verts[k], bf.verts[(k + 1) % 3]);
      PLUM_ASSERT(e != kInvalidIndex);
      bf.edges[k] = e;
      m.edges_[e].boundary = true;
    }
    for (Index v : bf.verts) m.vertices_[v].boundary = true;
    m.bfaces_.push_back(bf);
    ++i;
  }
  return m;
}

TetMesh TetMesh::assemble(std::vector<Vertex> vertices,
                          std::vector<Edge> edges,
                          std::vector<Element> elements,
                          std::vector<BFace> bfaces, Index n_init_elems,
                          Index n_init_edges) {
  TetMesh m;
  m.vertices_ = std::move(vertices);
  m.edges_ = std::move(edges);
  m.elements_ = std::move(elements);
  m.bfaces_ = std::move(bfaces);
  m.n_init_elems_ = n_init_elems;
  m.n_init_edges_ = n_init_edges;

  m.edge_map_.reserve(m.edges_.size() * 2);
  for (Index e = 0; e < m.num_edges(); ++e) {
    m.edge_map_.emplace(edge_key(m.edges_[e].v0, m.edges_[e].v1), e);
  }
  // Size every edge's leaf list exactly before filling it.
  std::vector<Index> leaves(m.edges_.size(), 0);
  for (const Element& el : m.elements_) {
    if (!el.alive || !el.is_leaf()) continue;
    for (Index e : el.edges) ++leaves[static_cast<std::size_t>(e)];
  }
  m.e2elem_.resize(m.edges_.size());
  for (std::size_t e = 0; e < leaves.size(); ++e) {
    m.e2elem_[e].reserve(static_cast<std::size_t>(leaves[e]));
  }
  for (Index t = 0; t < m.num_elements(); ++t) {
    const Element& el = m.elements_[t];
    if (el.alive && el.is_leaf()) m.add_to_leaf_lists(t);
  }
  return m;
}

Index TetMesh::num_active_elements() const {
  Index n = 0;
  for (const Element& el : elements_) {
    if (el.alive && el.is_leaf()) ++n;
  }
  return n;
}

Index TetMesh::num_active_edges() const {
  Index n = 0;
  for (const auto& lst : e2elem_) {
    if (!lst.empty()) ++n;
  }
  return n;
}

Index TetMesh::num_active_bfaces() const {
  Index n = 0;
  for (const BFace& f : bfaces_) {
    if (f.alive && f.is_leaf()) ++n;
  }
  return n;
}

Index TetMesh::find_edge(Index v0, Index v1) const {
  auto it = edge_map_.find(edge_key(v0, v1));
  return it == edge_map_.end() ? kInvalidIndex : it->second;
}

std::vector<Index> TetMesh::active_elements() const {
  std::vector<Index> out;
  out.reserve(elements_.size());
  for (Index t = 0; t < num_elements(); ++t) {
    if (elements_[t].alive && elements_[t].is_leaf()) out.push_back(t);
  }
  return out;
}

Index TetMesh::add_vertex(const Vec3& pos, bool boundary) {
  vertices_.push_back(Vertex{pos, boundary, true});
  return static_cast<Index>(vertices_.size()) - 1;
}

Index TetMesh::find_or_add_edge(Index v0, Index v1, int level, bool boundary) {
  PLUM_ASSERT(v0 != v1);
  const auto key = edge_key(v0, v1);
  auto it = edge_map_.find(key);
  if (it != edge_map_.end()) return it->second;
  Edge e;
  e.v0 = std::min(v0, v1);
  e.v1 = std::max(v0, v1);
  e.level = static_cast<std::int8_t>(level);
  e.boundary = boundary;
  const Index id = static_cast<Index>(edges_.size());
  edges_.push_back(e);
  e2elem_.emplace_back();
  edge_map_.emplace(key, id);
  return id;
}

Index TetMesh::bisect_edge(Index e) {
  // Copy fields up front: find_or_add_edge below may reallocate edges_.
  const Edge parent = edges_[e];
  if (parent.mid != kInvalidIndex) return parent.mid;
  PLUM_ASSERT(parent.alive);

  const Vec3 mp =
      midpoint(vertices_[parent.v0].pos, vertices_[parent.v1].pos);
  const Index mid = add_vertex(mp, parent.boundary);
  const Index c0 =
      find_or_add_edge(parent.v0, mid, parent.level + 1, parent.boundary);
  const Index c1 =
      find_or_add_edge(mid, parent.v1, parent.level + 1, parent.boundary);
  edges_[c0].parent = e;
  edges_[c1].parent = e;
  edges_[e].child = {c0, c1};
  edges_[e].mid = mid;
  if (on_bisect) on_bisect(e, mid);
  return mid;
}

Index TetMesh::add_child_element(Index parent,
                                 const std::array<Index, 4>& verts_in) {
  Element& par = elements_[parent];
  std::array<Index, 4> v = verts_in;
  if (tet_volume(vertices_[v[0]].pos, vertices_[v[1]].pos,
                 vertices_[v[2]].pos, vertices_[v[3]].pos) < 0) {
    std::swap(v[2], v[3]);
  }

  Element el;
  el.verts = v;
  el.parent = parent;
  el.level = static_cast<std::int8_t>(par.level + 1);
  el.root = par.root;
  const Index id = static_cast<Index>(elements_.size());
  if (par.num_children == 0) {
    par.first_child = id;
  } else {
    PLUM_ASSERT_MSG(par.first_child + par.num_children == id,
                    "children of one parent must be contiguous");
  }
  ++par.num_children;

  for (int k = 0; k < kTetEdges; ++k) {
    el.edges[k] = find_or_add_edge(v[kEdgeVerts[k][0]], v[kEdgeVerts[k][1]],
                                   par.level + 1, false);
  }
  elements_.push_back(el);
  add_to_leaf_lists(id);
  return id;
}

void TetMesh::remove_from_leaf_lists(Index elem) {
  for (Index e : elements_[elem].edges) {
    auto& lst = e2elem_[static_cast<std::size_t>(e)];
    auto it = std::find(lst.begin(), lst.end(), elem);
    PLUM_ASSERT(it != lst.end());
    lst.erase(it);
  }
}

void TetMesh::add_to_leaf_lists(Index elem) {
  for (Index e : elements_[elem].edges) {
    e2elem_[static_cast<std::size_t>(e)].push_back(elem);
  }
}

Index TetMesh::add_child_bface(Index parent, const std::array<Index, 3>& v) {
  BFace& par = bfaces_[parent];
  BFace bf;
  bf.verts = v;
  bf.parent = parent;
  for (int k = 0; k < 3; ++k) {
    const Index e = find_or_add_edge(v[k], v[(k + 1) % 3], 0, true);
    bf.edges[k] = e;
    edges_[e].boundary = true;
    vertices_[v[k]].boundary = true;
  }
  const Index id = static_cast<Index>(bfaces_.size());
  PLUM_ASSERT(par.num_children < 4);
  par.child[par.num_children++] = id;
  bfaces_.push_back(bf);
  return id;
}

std::vector<Index> TetMesh::purge_and_compact() {
  // Stable compaction maps; kInvalidIndex maps to itself.
  auto build_map = [](auto const& items, auto alive_of) {
    std::vector<Index> map(items.size(), kInvalidIndex);
    Index next = 0;
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (alive_of(items[i])) map[i] = next++;
    }
    return map;
  };
  auto remap = [](const std::vector<Index>& map, Index old) {
    return old == kInvalidIndex ? kInvalidIndex : map[old];
  };

  const auto vmap = build_map(vertices_, [](const Vertex& v) { return v.alive; });
  const auto emap = build_map(edges_, [](const Edge& e) { return e.alive; });
  const auto tmap =
      build_map(elements_, [](const Element& t) { return t.alive; });
  const auto fmap = build_map(bfaces_, [](const BFace& f) { return f.alive; });

  // Initial entities must be untouched: they occupy a stable prefix.
  for (Index t = 0; t < n_init_elems_; ++t) PLUM_ASSERT(tmap[t] == t);
  for (Index e = 0; e < n_init_edges_; ++e) PLUM_ASSERT(emap[e] == e);

  // Vertices.
  {
    std::vector<Vertex> nv;
    nv.reserve(vertices_.size());
    for (const Vertex& v : vertices_) {
      if (v.alive) nv.push_back(v);
    }
    vertices_ = std::move(nv);
  }
  // Edges + e2elem.
  {
    std::vector<Edge> ne;
    std::vector<std::vector<Index>> nlist;
    ne.reserve(edges_.size());
    nlist.reserve(edges_.size());
    for (std::size_t i = 0; i < edges_.size(); ++i) {
      if (!edges_[i].alive) continue;
      Edge e = edges_[i];
      e.v0 = vmap[e.v0];
      e.v1 = vmap[e.v1];
      PLUM_ASSERT(e.v0 != kInvalidIndex && e.v1 != kInvalidIndex);
      e.mid = remap(vmap, e.mid);
      e.parent = remap(emap, e.parent);
      for (auto& c : e.child) c = remap(emap, c);
      // A dead child pair means the bisection was coarsened away. Children
      // die in pairs (the coarsening sibling rule) — never singly.
      if (e.child[0] == kInvalidIndex || e.child[1] == kInvalidIndex) {
        PLUM_ASSERT_MSG(
            e.child[0] == kInvalidIndex && e.child[1] == kInvalidIndex,
            "edge bisection half-coarsened");
        e.child = {kInvalidIndex, kInvalidIndex};
        e.mid = kInvalidIndex;
      }
      ne.push_back(e);
      std::vector<Index> lst = std::move(e2elem_[i]);
      for (auto& t : lst) {
        t = tmap[t];
        PLUM_ASSERT(t != kInvalidIndex);
      }
      nlist.push_back(std::move(lst));
    }
    edges_ = std::move(ne);
    e2elem_ = std::move(nlist);
  }
  // Elements.
  {
    std::vector<Element> nt;
    nt.reserve(elements_.size());
    for (const Element& t_old : elements_) {
      if (!t_old.alive) continue;
      Element t = t_old;
      for (auto& v : t.verts) v = vmap[v];
      for (auto& e : t.edges) e = emap[e];
      t.parent = remap(tmap, t.parent);
      t.root = tmap[t.root];
      if (t.num_children > 0) {
        const Index fc = tmap[t.first_child];
        if (fc == kInvalidIndex) {
          // Children coarsened away; this element is a leaf again.
          t.first_child = kInvalidIndex;
          t.num_children = 0;
          t.subdiv_type = 0;
        } else {
          t.first_child = fc;
        }
      }
      nt.push_back(t);
    }
    elements_ = std::move(nt);
  }
  // Boundary faces.
  {
    std::vector<BFace> nf;
    nf.reserve(bfaces_.size());
    for (const BFace& f_old : bfaces_) {
      if (!f_old.alive) continue;
      BFace f = f_old;
      for (auto& v : f.verts) v = vmap[v];
      for (auto& e : f.edges) e = emap[e];
      f.parent = remap(fmap, f.parent);
      int live_children = 0;
      for (auto& c : f.child) {
        c = remap(fmap, c);
        if (c != kInvalidIndex) ++live_children;
      }
      if (live_children == 0) {
        f.child = {kInvalidIndex, kInvalidIndex, kInvalidIndex, kInvalidIndex};
        f.num_children = 0;
      } else {
        PLUM_ASSERT(live_children == f.num_children);
      }
      nf.push_back(f);
    }
    bfaces_ = std::move(nf);
  }
  // Rebuild edge lookup.
  edge_map_.clear();
  edge_map_.reserve(edges_.size() * 2);
  for (Index e = 0; e < num_edges(); ++e) {
    edge_map_.emplace(edge_key(edges_[e].v0, edges_[e].v1), e);
  }

  // Invert the vertex map (old->new) into new->old for solution arrays.
  std::vector<Index> new_to_old(vertices_.size(), kInvalidIndex);
  for (std::size_t old = 0; old < vmap.size(); ++old) {
    if (vmap[old] != kInvalidIndex) {
      new_to_old[static_cast<std::size_t>(vmap[old])] =
          static_cast<Index>(old);
    }
  }
  return new_to_old;
}

RootWeights TetMesh::root_weights() const {
  RootWeights w;
  w.wcomp.assign(static_cast<std::size_t>(n_init_elems_), 0);
  w.wremap.assign(static_cast<std::size_t>(n_init_elems_), 0);
  for (const Element& t : elements_) {
    if (!t.alive) continue;
    PLUM_ASSERT(t.root >= 0 && t.root < n_init_elems_);
    ++w.wremap[static_cast<std::size_t>(t.root)];
    if (t.is_leaf()) ++w.wcomp[static_cast<std::size_t>(t.root)];
  }
  return w;
}

graph::Csr TetMesh::build_initial_dual() const {
  std::vector<std::array<Index, 4>> tets(
      static_cast<std::size_t>(n_init_elems_));
  for (Index t = 0; t < n_init_elems_; ++t) {
    tets[static_cast<std::size_t>(t)] = elements_[t].verts;
  }
  return graph::build_dual(tets);
}

double TetMesh::total_volume() const {
  double vol = 0;
  for (Index t = 0; t < num_elements(); ++t) {
    if (elements_[t].alive && elements_[t].is_leaf()) {
      vol += element_volume(t);
    }
  }
  return vol;
}

Vec3 TetMesh::element_centroid(Index t) const {
  Vec3 c;
  for (Index v : elements_[t].verts) c += vertices_[v].pos;
  return c / 4.0;
}

double TetMesh::element_volume(Index t) const {
  const auto& v = elements_[t].verts;
  return tet_volume(vertices_[v[0]].pos, vertices_[v[1]].pos,
                    vertices_[v[2]].pos, vertices_[v[3]].pos);
}

double TetMesh::edge_length(Index e) const {
  return norm(vertices_[edges_[e].v1].pos - vertices_[edges_[e].v0].pos);
}

void TetMesh::validate() const {
  for (Index t = 0; t < num_elements(); ++t) {
    const Element& el = elements_[t];
    if (!el.alive) continue;
    for (int k = 0; k < kTetEdges; ++k) {
      const Edge& e = edges_[el.edges[k]];
      const Index a = el.verts[kEdgeVerts[k][0]];
      const Index b = el.verts[kEdgeVerts[k][1]];
      PLUM_ASSERT_MSG((e.v0 == std::min(a, b) && e.v1 == std::max(a, b)),
                      "element edge/vertex mismatch");
    }
    if (el.is_leaf()) {
      PLUM_ASSERT_MSG(element_volume(t) > 0, "inverted leaf element");
    } else {
      PLUM_ASSERT(el.first_child != kInvalidIndex);
      for (int c = 0; c < el.num_children; ++c) {
        PLUM_ASSERT(elements_[el.first_child + c].parent == t);
      }
    }
  }
  // e2elem lists must contain exactly the alive leaves referencing the edge.
  std::vector<Index> expect(static_cast<std::size_t>(num_edges()), 0);
  for (Index t = 0; t < num_elements(); ++t) {
    const Element& el = elements_[t];
    if (!el.alive || !el.is_leaf()) continue;
    for (Index e : el.edges) ++expect[static_cast<std::size_t>(e)];
  }
  for (Index e = 0; e < num_edges(); ++e) {
    PLUM_ASSERT_MSG(static_cast<Index>(e2elem_[e].size()) == expect[e],
                    "stale edge->element list");
    PLUM_ASSERT_MSG(expect[e] == 0 || edges_[e].is_leaf(),
                    "leaf element holds a bisected edge (hanging node)");
    for (Index t : e2elem_[e]) {
      PLUM_ASSERT(elements_[t].alive && elements_[t].is_leaf());
    }
  }
  // Bisected edges: children join through the midpoint.
  for (Index e = 0; e < num_edges(); ++e) {
    const Edge& ed = edges_[e];
    if (!ed.alive || ed.is_leaf()) continue;
    PLUM_ASSERT(ed.mid != kInvalidIndex);
    const Edge& c0 = edges_[ed.child[0]];
    const Edge& c1 = edges_[ed.child[1]];
    auto touches = [&](const Edge& c, Index v) {
      return c.v0 == v || c.v1 == v;
    };
    PLUM_ASSERT(touches(c0, ed.mid) && touches(c1, ed.mid));
    PLUM_ASSERT(touches(c0, ed.v0) || touches(c1, ed.v0));
    PLUM_ASSERT(touches(c0, ed.v1) || touches(c1, ed.v1));
  }
  for (const BFace& f : bfaces_) {
    if (!f.alive) continue;
    for (int k = 0; k < 3; ++k) {
      const Edge& e = edges_[f.edges[k]];
      const Index a = f.verts[k];
      const Index b = f.verts[(k + 1) % 3];
      PLUM_ASSERT(e.v0 == std::min(a, b) && e.v1 == std::max(a, b));
      PLUM_ASSERT_MSG(e.boundary, "boundary face with interior edge");
    }
  }
}

}  // namespace plum::mesh
