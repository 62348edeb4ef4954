#include "io/snapshot.hpp"

#include <algorithm>
#include <fstream>

#include "util/assert.hpp"

namespace plum::io {

namespace {
constexpr const char* kMagic = "plum-snap";
constexpr int kVersion = 1;

/// `id` names one of the `n` records of its table.
bool in_table(Index id, Index n) { return id >= 0 && id < n; }

/// As in_table, or kInvalidIndex where the writer emits "none".
bool in_table_or_none(Index id, Index n) {
  return id == kInvalidIndex || in_table(id, n);
}

template <std::size_t N>
bool all_in_table(const std::array<Index, N>& ids, Index n) {
  return std::all_of(ids.begin(), ids.end(),
                     [n](Index id) { return in_table(id, n); });
}

/// The first `count` child slots name records of the table; the rest are
/// kInvalidIndex.
template <std::size_t N>
bool children_in_table(const std::array<Index, N>& child, int count, Index n) {
  if (count < 0 || count > static_cast<int>(N)) return false;
  for (int k = 0; k < static_cast<int>(N); ++k) {
    const Index c = child[static_cast<std::size_t>(k)];
    if (k < count ? !in_table(c, n) : c != kInvalidIndex) return false;
  }
  return true;
}

}  // namespace

void write_snapshot(std::ostream& os, const mesh::TetMesh& mesh,
                    const std::vector<std::array<double, 5>>& solution) {
  PLUM_ASSERT(solution.empty() ||
              static_cast<Index>(solution.size()) == mesh.num_vertices());
  os << kMagic << ' ' << kVersion << '\n';
  os << mesh.num_vertices() << ' ' << mesh.num_edges() << ' '
     << mesh.num_elements() << ' ' << mesh.num_bfaces() << ' '
     << mesh.num_initial_elements() << ' ' << mesh.num_initial_edges() << ' '
     << (solution.empty() ? 0 : 1) << '\n';
  os.precision(17);

  for (Index v = 0; v < mesh.num_vertices(); ++v) {
    const auto& vx = mesh.vertex(v);
    os << vx.pos.x << ' ' << vx.pos.y << ' ' << vx.pos.z << ' '
       << int(vx.boundary) << '\n';
  }
  for (Index e = 0; e < mesh.num_edges(); ++e) {
    const auto& ed = mesh.edge(e);
    os << ed.v0 << ' ' << ed.v1 << ' ' << ed.parent << ' ' << ed.child[0]
       << ' ' << ed.child[1] << ' ' << ed.mid << ' ' << int(ed.level) << ' '
       << int(ed.boundary) << '\n';
  }
  for (Index t = 0; t < mesh.num_elements(); ++t) {
    const auto& el = mesh.element(t);
    for (Index v : el.verts) os << v << ' ';
    for (Index e : el.edges) os << e << ' ';
    os << el.parent << ' ' << el.first_child << ' ' << int(el.num_children)
       << ' ' << int(el.level) << ' ' << int(el.subdiv_type) << ' ' << el.root
       << '\n';
  }
  for (Index f = 0; f < mesh.num_bfaces(); ++f) {
    const auto& bf = mesh.bface(f);
    for (Index v : bf.verts) os << v << ' ';
    for (Index e : bf.edges) os << e << ' ';
    os << bf.parent << ' ' << bf.child[0] << ' ' << bf.child[1] << ' '
       << bf.child[2] << ' ' << bf.child[3] << ' ' << int(bf.num_children)
       << '\n';
  }
  for (const auto& s : solution) {
    for (double x : s) os << x << ' ';
    os << '\n';
  }
}

Snapshot read_snapshot(std::istream& is) {
  std::string magic;
  int version = 0;
  is >> magic >> version;
  PLUM_ASSERT_MSG(magic == kMagic && version == kVersion,
                  "not a plum-snap 1 stream");
  Index nv = 0, ne = 0, nt = 0, nf = 0, init_t = 0, init_e = 0;
  int has_solution = 0;
  is >> nv >> ne >> nt >> nf >> init_t >> init_e >> has_solution;
  PLUM_ASSERT_MSG(!is.fail() && nv >= 0 && ne >= 0 && nt >= 0 && nf >= 0 &&
                      init_t >= 0 && init_t <= nt && init_e >= 0 &&
                      init_e <= ne && (has_solution == 0 || has_solution == 1),
                  "bad plum-snap header counts");

  std::vector<mesh::Vertex> verts(static_cast<std::size_t>(nv));
  for (auto& vx : verts) {
    int boundary = 0;
    is >> vx.pos.x >> vx.pos.y >> vx.pos.z >> boundary;
    vx.boundary = boundary != 0;
  }
  std::vector<mesh::Edge> edges(static_cast<std::size_t>(ne));
  for (auto& ed : edges) {
    int level = 0, boundary = 0;
    is >> ed.v0 >> ed.v1 >> ed.parent >> ed.child[0] >> ed.child[1] >>
        ed.mid >> level >> boundary;
    ed.level = static_cast<std::int8_t>(level);
    ed.boundary = boundary != 0;
  }
  std::vector<mesh::Element> elems(static_cast<std::size_t>(nt));
  for (auto& el : elems) {
    int nchild = 0, level = 0, subdiv = 0;
    for (auto& v : el.verts) is >> v;
    for (auto& e : el.edges) is >> e;
    is >> el.parent >> el.first_child >> nchild >> level >> subdiv >> el.root;
    el.num_children = static_cast<std::int8_t>(nchild);
    el.level = static_cast<std::int8_t>(level);
    el.subdiv_type = static_cast<std::int8_t>(subdiv);
  }
  std::vector<mesh::BFace> bfaces(static_cast<std::size_t>(nf));
  for (auto& bf : bfaces) {
    int nchild = 0;
    for (auto& v : bf.verts) is >> v;
    for (auto& e : bf.edges) is >> e;
    is >> bf.parent >> bf.child[0] >> bf.child[1] >> bf.child[2] >>
        bf.child[3] >> nchild;
    bf.num_children = static_cast<std::int8_t>(nchild);
  }
  Snapshot snap;
  if (has_solution) {
    snap.solution.resize(static_cast<std::size_t>(nv));
    for (auto& s : snap.solution) {
      for (double& x : s) is >> x;
    }
  }
  // End-of-file alone is fine; a read that came up short is not.
  PLUM_ASSERT_MSG(!is.fail(), "truncated plum-snap stream");

  // assemble() and validate() index by these ids unchecked.
  for (const auto& ed : edges) {
    PLUM_ASSERT_MSG(in_table(ed.v0, nv) && in_table(ed.v1, nv) &&
                        in_table_or_none(ed.parent, ne) &&
                        children_in_table(ed.child, ed.is_leaf() ? 0 : 2, ne) &&
                        in_table_or_none(ed.mid, nv),
                    "plum-snap edge id out of range");
  }
  for (const auto& el : elems) {
    PLUM_ASSERT_MSG(
        all_in_table(el.verts, nv) && all_in_table(el.edges, ne) &&
            in_table_or_none(el.parent, nt) &&
            in_table_or_none(el.first_child, nt) && el.num_children >= 0 &&
            (el.is_leaf() || (el.first_child != kInvalidIndex &&
                              el.first_child + el.num_children <= nt)) &&
            in_table(el.root, init_t),
        "plum-snap element id out of range");
  }
  for (const auto& bf : bfaces) {
    PLUM_ASSERT_MSG(all_in_table(bf.verts, nv) && all_in_table(bf.edges, ne) &&
                        in_table_or_none(bf.parent, nf) &&
                        children_in_table(bf.child, bf.num_children, nf),
                    "plum-snap boundary-face id out of range");
  }
  snap.mesh = mesh::TetMesh::assemble(std::move(verts), std::move(edges),
                                      std::move(elems), std::move(bfaces),
                                      init_t, init_e);
  snap.mesh.validate();
  return snap;
}

void write_snapshot_file(const std::string& path, const mesh::TetMesh& mesh,
                         const std::vector<std::array<double, 5>>& solution) {
  std::ofstream os(path);
  PLUM_ASSERT_MSG(os.good(), "cannot open snapshot file for writing");
  write_snapshot(os, mesh, solution);
  // A failed write surfaces only once the buffer reaches the file.
  os.flush();
  PLUM_ASSERT_MSG(os.good(), "failed writing snapshot file");
}

Snapshot read_snapshot_file(const std::string& path) {
  std::ifstream is(path);
  PLUM_ASSERT_MSG(is.good(), "cannot open snapshot file for reading");
  return read_snapshot(is);
}

}  // namespace plum::io
