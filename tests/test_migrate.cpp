// Oracle for pmesh::migrate. The pack/ship/unpack program must leave every
// rank with the same local mesh, SPL holder sets, roots and solution as the
// gather-and-rebuild path it replaced (finalize_gather, then a fresh
// DistMesh under the new partition). Local numbering may differ, so ranks
// are compared as canonical dumps keyed by vertex coordinates.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <tuple>

#include "adapt/adaptor.hpp"
#include "mesh/box_mesh.hpp"
#include "partition/multilevel.hpp"
#include "pmesh/finalize.hpp"
#include "pmesh/migrate.hpp"
#include "pmesh/parallel_adapt.hpp"
#include "sim/machine.hpp"
#include "util/rng.hpp"

namespace plum::pmesh {
namespace {

using mesh::TetMesh;
using solver::State;
using States = std::vector<std::vector<State>>;

/// The rebuild path migrate() replaced: gather the whole mesh to the host,
/// distribute it afresh under the new partition, carry the solution through
/// the gathered vertex numbering and translate root_global back to the
/// caller's numbering.
void reference_migrate(DistMesh& dm, rt::Engine& eng,
                       const partition::PartVec& new_root_part,
                       States* states) {
  const Rank P = dm.nranks();
  const auto fin = finalize_gather(dm, eng);

  std::vector<State> global_state;
  if (states != nullptr) {
    global_state.resize(static_cast<std::size_t>(fin.global.num_vertices()));
    for (Rank r = 0; r < P; ++r) {
      const auto& vg = fin.vert_global[static_cast<std::size_t>(r)];
      const auto& su = (*states)[static_cast<std::size_t>(r)];
      for (std::size_t v = 0; v < vg.size(); ++v) {
        global_state[static_cast<std::size_t>(vg[v])] = su[v];
      }
    }
  }
  // finalize_gather renumbered the roots; map both ways through the old ids.
  const auto nroots =
      static_cast<std::size_t>(fin.global.num_initial_elements());
  partition::PartVec gathered_part(nroots, kNoRank);
  std::vector<Index> new_to_orig(nroots, kInvalidIndex);
  for (Rank r = 0; r < P; ++r) {
    const LocalMesh& lm = dm.local(r);
    for (std::size_t lr = 0; lr < lm.root_global.size(); ++lr) {
      const auto gathered = static_cast<std::size_t>(
          fin.elem_global[static_cast<std::size_t>(r)][lr]);
      gathered_part[gathered] =
          new_root_part[static_cast<std::size_t>(lm.root_global[lr])];
      new_to_orig[gathered] = lm.root_global[lr];
    }
  }
  DistMesh rebuilt(fin.global, gathered_part, P);
  for (Rank r = 0; r < P; ++r) {
    for (auto& g : rebuilt.local(r).root_global) {
      g = new_to_orig[static_cast<std::size_t>(g)];
    }
    if (states != nullptr) {
      const auto& vg = rebuilt.local(r).vert_global;
      auto& su = (*states)[static_cast<std::size_t>(r)];
      su.resize(vg.size());
      for (std::size_t v = 0; v < vg.size(); ++v) {
        su[v] = global_state[static_cast<std::size_t>(vg[v])];
      }
    }
  }
  dm = std::move(rebuilt);
}

// --- canonical dumps --------------------------------------------------------

using Pos = std::array<double, 3>;

Pos pos_of(const TetMesh& m, Index v) {
  const auto& p = m.vertex(v).pos;
  return {p.x, p.y, p.z};
}

/// Exact (hexfloat) text of a position, so dumps compare bit for bit.
std::string pos_text(const Pos& p) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "(%a,%a,%a)", p[0], p[1], p[2]);
  return buf;
}

/// Per-rank dump: one sorted line per vertex, edge, alive element, alive
/// boundary face and root, plus the solution keyed by position.
struct Dump {
  std::vector<std::string> lines;
  std::map<Pos, State> states;
};

Dump dump_rank(const DistMesh& dm, Rank r, const States* states) {
  const LocalMesh& lm = dm.local(r);
  const TetMesh& m = lm.mesh;
  auto vkey = [&](Index v) {
    return v == kInvalidIndex ? std::string("-") : pos_text(pos_of(m, v));
  };
  auto sorted_key = [&](std::vector<std::string> parts) {
    std::sort(parts.begin(), parts.end());
    std::string out = "[";
    for (const auto& s : parts) out += s;
    return out + "]";
  };
  auto ekey = [&](Index e) {
    if (e == kInvalidIndex) return std::string("-");
    return sorted_key({vkey(m.edge(e).v0), vkey(m.edge(e).v1)});
  };
  auto tkey = [&](Index t) {
    if (t == kInvalidIndex) return std::string("-");
    std::vector<std::string> vs;
    for (Index v : m.element(t).verts) vs.push_back(vkey(v));
    return sorted_key(std::move(vs));
  };
  auto fkey = [&](Index f) {
    if (f == kInvalidIndex) return std::string("-");
    std::vector<std::string> vs;
    for (Index v : m.bface(f).verts) vs.push_back(vkey(v));
    return sorted_key(std::move(vs));
  };
  auto holders = [&](const SplMap& spl, Index id) {
    std::vector<Rank> h{r};
    if (auto it = spl.find(id); it != spl.end()) {
      for (const auto& c : it->second) h.push_back(c.rank);
    }
    std::sort(h.begin(), h.end());
    std::string out = "{";
    for (Rank q : h) out += std::to_string(q) + ",";
    return out + "}";
  };

  Dump d;
  for (Index v = 0; v < m.num_vertices(); ++v) {
    d.lines.push_back("V " + vkey(v) + " b" +
                      std::to_string(m.vertex(v).boundary) + " " +
                      holders(lm.shared_verts, v));
    if (states != nullptr) {
      d.states[pos_of(m, v)] =
          (*states)[static_cast<std::size_t>(r)][static_cast<std::size_t>(v)];
    }
  }
  for (Index e = 0; e < m.num_edges(); ++e) {
    const auto& ed = m.edge(e);
    // Only "initial or not": a face-crossing edge takes the level of
    // whichever neighbour created it first, so copies of a shared edge can
    // disagree after parallel refinement and either path may keep either.
    d.lines.push_back("E " + ekey(e) + (ed.level == 0 ? " initial" : "") +
                      " b" + std::to_string(ed.boundary) + " mid " +
                      vkey(ed.mid) + " parent " + ekey(ed.parent) +
                      " children " +
                      sorted_key({ekey(ed.child[0]), ekey(ed.child[1])}) +
                      " " + holders(lm.shared_edges, e));
  }
  for (Index t = 0; t < m.num_elements(); ++t) {
    const auto& el = m.element(t);
    if (!el.alive) continue;
    d.lines.push_back(
        "T " + tkey(t) + " l" + std::to_string(el.level) + " type" +
        std::to_string(el.subdiv_type) + " n" +
        std::to_string(el.num_children) + " parent " + tkey(el.parent) +
        " root " +
        std::to_string(lm.root_global[static_cast<std::size_t>(el.root)]));
  }
  for (Index f = 0; f < m.num_bfaces(); ++f) {
    const auto& bf = m.bface(f);
    if (!bf.alive) continue;
    d.lines.push_back("F " + fkey(f) + " n" +
                      std::to_string(bf.num_children) + " parent " +
                      fkey(bf.parent));
  }
  for (Index g : lm.root_global) d.lines.push_back("R " + std::to_string(g));
  std::sort(d.lines.begin(), d.lines.end());
  return d;
}

void expect_same_distribution(const DistMesh& got, const States* got_states,
                              const DistMesh& want, const States* want_states,
                              const std::string& what) {
  ASSERT_EQ(got.nranks(), want.nranks());
  for (Rank r = 0; r < got.nranks(); ++r) {
    const Dump a = dump_rank(got, r, got_states);
    const Dump b = dump_rank(want, r, want_states);
    EXPECT_EQ(a.lines.size(), b.lines.size()) << what << " rank " << r;
    const auto [ia, ib] = std::mismatch(a.lines.begin(), a.lines.end(),
                                        b.lines.begin(), b.lines.end());
    if (ia != a.lines.end() || ib != b.lines.end()) {
      ADD_FAILURE() << what << " rank " << r << " first difference:\n  got  "
                    << (ia != a.lines.end() ? *ia : "<end>") << "\n  want "
                    << (ib != b.lines.end() ? *ib : "<end>");
    }
    ASSERT_EQ(a.states.size(), b.states.size()) << what << " rank " << r;
    for (const auto& [p, sa] : a.states) {
      const auto it = b.states.find(p);
      ASSERT_NE(it, b.states.end()) << what << " rank " << r;
      for (int c = 0; c < solver::kNumVars; ++c) {
        EXPECT_NEAR(sa[static_cast<std::size_t>(c)],
                    it->second[static_cast<std::size_t>(c)], 1e-11)
            << what << " rank " << r << " " << pos_text(p);
      }
    }
  }
}

// --- inputs -----------------------------------------------------------------

constexpr int kBoxCells = 3;

partition::PartVec partition_roots(const graph::Csr& dual, Rank nranks,
                                   std::uint64_t seed) {
  partition::MultilevelOptions opt;
  opt.nparts = nranks;
  opt.seed = seed;
  return partition::partition(dual, opt).part;
}

/// Smooth, nonlinear per-vertex state so a misplaced vertex shows.
States position_states(const DistMesh& dm) {
  States out(static_cast<std::size_t>(dm.nranks()));
  for (Rank r = 0; r < dm.nranks(); ++r) {
    const auto& m = dm.local(r).mesh;
    for (Index v = 0; v < m.num_vertices(); ++v) {
      const auto& p = m.vertex(v).pos;
      out[static_cast<std::size_t>(r)].push_back(
          {1.0 + p.x, p.y * p.z, std::sin(p.x + 2.0 * p.y), p.z - p.x,
           2.5 + p.x * p.y * p.z});
    }
  }
  return out;
}

/// Active local edges whose midpoint hashes into `permille`: the same edges
/// on every rank and under any local numbering.
std::vector<std::vector<char>> geometric_marks(const DistMesh& dm,
                                               std::uint64_t salt,
                                               int permille) {
  std::vector<std::vector<char>> out(static_cast<std::size_t>(dm.nranks()));
  for (Rank r = 0; r < dm.nranks(); ++r) {
    const auto& m = dm.local(r).mesh;
    auto& marks = out[static_cast<std::size_t>(r)];
    marks.assign(static_cast<std::size_t>(m.num_edges()), 0);
    for (Index e = 0; e < m.num_edges(); ++e) {
      if (m.edge_elements(e).empty()) continue;
      const auto mid =
          0.5 * (m.vertex(m.edge(e).v0).pos + m.vertex(m.edge(e).v1).pos);
      std::uint64_t h = salt;
      for (double c : {mid.x, mid.y, mid.z}) {
        h = Rng(h ^ std::bit_cast<std::uint64_t>(c)).next();
      }
      marks[static_cast<std::size_t>(e)] =
          h % 1000 < static_cast<std::uint64_t>(permille);
    }
  }
  return out;
}

void parallel_adapt_round(DistMesh& dm, rt::Engine& eng, std::uint64_t salt) {
  const auto pm = parallel_mark(dm, eng, geometric_marks(dm, salt, 80));
  parallel_refine(dm, eng, pm);
}

enum class Input { kSerialThenDistributed, kParallelRefined };

/// An adapted distributed mesh: refined serially (two rounds) and then
/// distributed, or distributed and then refined in parallel (two rounds).
DistMesh make_input(Input input, Rank P) {
  auto global = mesh::make_box_mesh(mesh::small_box(kBoxCells));
  const auto part = partition_roots(global.build_initial_dual(), P, 1);
  if (input == Input::kParallelRefined) {
    DistMesh dm(global, part, P);
    rt::Engine eng(P);
    parallel_adapt_round(dm, eng, 11);
    parallel_adapt_round(dm, eng, 12);
    return dm;
  }
  adapt::MeshAdaptor ad(&global);
  Rng rng(5);
  for (int round = 0; round < 2; ++round) {
    std::vector<char> marks(static_cast<std::size_t>(global.num_edges()), 0);
    for (Index e = 0; e < global.num_edges(); ++e) {
      if (!global.edge_elements(e).empty() && rng.uniform() < 0.08) {
        marks[static_cast<std::size_t>(e)] = 1;
      }
    }
    ad.mark(marks);
    ad.refine();
  }
  return DistMesh(global, part, P);
}

/// Global root id -> current rank.
partition::PartVec current_owner(const DistMesh& dm) {
  Index nroots = 0;
  for (Rank r = 0; r < dm.nranks(); ++r) {
    nroots += static_cast<Index>(dm.local(r).root_global.size());
  }
  partition::PartVec owner(static_cast<std::size_t>(nroots), kNoRank);
  for (Rank r = 0; r < dm.nranks(); ++r) {
    for (Index g : dm.local(r).root_global) {
      owner[static_cast<std::size_t>(g)] = r;
    }
  }
  return owner;
}

/// Every root one rank forward.
partition::PartVec rotated(const DistMesh& dm) {
  auto part = current_owner(dm);
  for (auto& q : part) q = (q + 1) % dm.nranks();
  return part;
}

/// A fresh multilevel partition of the dual graph weighted by the adapted
/// trees (what the balancer's repartitioner produces).
partition::PartVec repartitioned(const DistMesh& dm) {
  auto dual = mesh::make_box_mesh(mesh::small_box(kBoxCells))
                  .build_initial_dual();
  const auto nroots = static_cast<std::size_t>(dual.num_vertices());
  std::vector<Weight> wcomp(nroots, 0);
  std::vector<Weight> wremap(nroots, 0);
  for (Rank r = 0; r < dm.nranks(); ++r) {
    const auto& lm = dm.local(r);
    const auto w = lm.mesh.root_weights();
    for (std::size_t lr = 0; lr < lm.root_global.size(); ++lr) {
      const auto g = static_cast<std::size_t>(lm.root_global[lr]);
      wcomp[g] = w.wcomp[lr];
      wremap[g] = w.wremap[lr];
    }
  }
  dual.set_weights(std::move(wcomp), std::move(wremap));
  return partition_roots(dual, dm.nranks(), 77);
}

// --- the oracle -------------------------------------------------------------

class MigrateOracle
    : public ::testing::TestWithParam<std::tuple<Input, Rank>> {};

TEST_P(MigrateOracle, MatchesGatherAndRebuild) {
  const auto [input, P] = GetParam();
  const DistMesh start = make_input(input, P);
  using Assign = partition::PartVec (*)(const DistMesh&);
  const std::pair<const char*, Assign> assignments[] = {
      {"rotated", rotated}, {"repartitioned", repartitioned}};

  for (const auto& [name, assign] : assignments) {
    SCOPED_TRACE(name);
    DistMesh got = start;
    DistMesh want = start;
    States got_states = position_states(start);
    States want_states = got_states;
    rt::Engine eng_got(P);
    rt::Engine eng_want(P);
    const auto new_part = assign(start);

    const auto stats = migrate(got, eng_got, new_part, &got_states);
    reference_migrate(want, eng_want, new_part, &want_states);
    got.validate();
    want.validate();
    expect_same_distribution(got, &got_states, want, &want_states, name);
    std::int64_t moved = 0;
    const auto owner = current_owner(start);
    for (std::size_t g = 0; g < owner.size(); ++g) {
      moved += owner[g] != new_part[g];
    }
    EXPECT_GT(moved, 0);
    EXPECT_EQ(stats.roots_moved, moved);

    // Remap before subdivision: the migrated mesh refines like the rebuilt
    // one. Refinement numbers new entities in local order, so compare the
    // numbering-free totals here.
    parallel_adapt_round(got, eng_got, 21);
    parallel_adapt_round(want, eng_want, 21);
    got.validate();
    want.validate();
    for (Rank r = 0; r < P; ++r) {
      const auto& a = got.local(r);
      const auto& b = want.local(r);
      EXPECT_EQ(a.mesh.num_active_elements(), b.mesh.num_active_elements());
      EXPECT_EQ(a.mesh.num_vertices(), b.mesh.num_vertices());
      EXPECT_EQ(a.mesh.num_active_edges(), b.mesh.num_active_edges());
      EXPECT_EQ(a.shared_verts.size(), b.shared_verts.size());
      EXPECT_EQ(a.shared_edges.size(), b.shared_edges.size());
    }

    // Remap after subdivision, consuming the SPLs the first migration
    // installed and the refinement extended.
    DistMesh again = got;
    got_states = position_states(got);
    want_states = got_states;
    const auto back = rotated(got);
    migrate(got, eng_got, back, &got_states);
    reference_migrate(again, eng_want, back, &want_states);
    got.validate();
    again.validate();
    expect_same_distribution(got, &got_states, again, &want_states,
                             std::string(name) + " + refine + rotate");
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MigrateOracle,
    ::testing::Combine(::testing::Values(Input::kSerialThenDistributed,
                                         Input::kParallelRefined),
                       ::testing::Values<Rank>(2, 3, 4, 8)));

TEST(Migrate, BytesPerSetDefaultPinsMigrateFraming) {
  // The cost model's default per-set byte overhead mirrors the header every
  // migrate pack carries per (sender, dest) element set; if one side
  // changes, the gate audit's predicted-vs-measured drift becomes
  // structural.
  EXPECT_EQ(sim::MachineParams{}.bytes_per_set,
            static_cast<double>(kPackHeaderBytes));
}

}  // namespace
}  // namespace plum::pmesh
