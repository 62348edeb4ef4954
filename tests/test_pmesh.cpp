// Tests for the distributed mesh and parallel adaption: construction
// invariants, SPL symmetry, parallel marking equivalence with the serial
// kernel, parallel refinement + SPL repair equivalence with a fresh
// distribution of the serially refined mesh.

#include <gtest/gtest.h>

#include <numeric>

#include "adapt/adaptor.hpp"
#include "mesh/box_mesh.hpp"
#include "partition/multilevel.hpp"
#include "pmesh/dist_mesh.hpp"
#include "pmesh/finalize.hpp"
#include "pmesh/migrate.hpp"
#include "pmesh/parallel_coarsen.hpp"
#include "pmesh/parallel_adapt.hpp"
#include "util/rng.hpp"

namespace plum::pmesh {
namespace {

using mesh::TetMesh;

partition::PartVec partition_roots(const TetMesh& global, Rank nranks) {
  partition::MultilevelOptions opt;
  opt.nparts = nranks;
  auto dual = global.build_initial_dual();
  return partition::partition(dual, opt).part;
}

/// Seeds per-rank local marks from a global mark vector via edge_global.
std::vector<std::vector<char>> localize_marks(const DistMesh& dm,
                                              const std::vector<char>& global) {
  std::vector<std::vector<char>> out(static_cast<std::size_t>(dm.nranks()));
  for (Rank r = 0; r < dm.nranks(); ++r) {
    const auto& lm = dm.local(r);
    auto& marks = out[static_cast<std::size_t>(r)];
    marks.assign(static_cast<std::size_t>(lm.mesh.num_edges()), 0);
    for (Index e = 0; e < static_cast<Index>(lm.edge_global.size()); ++e) {
      if (global[static_cast<std::size_t>(lm.edge_global[e])]) {
        marks[static_cast<std::size_t>(e)] = 1;
      }
    }
  }
  return out;
}

TEST(DistMesh, ElementsPartitionExactly) {
  const auto global = mesh::make_box_mesh(mesh::small_box(3));
  const auto part = partition_roots(global, 4);
  DistMesh dm(global, part, 4);
  dm.validate();
  EXPECT_EQ(dm.total_active_elements(), global.num_active_elements());
  for (Rank r = 0; r < 4; ++r) {
    EXPECT_GT(dm.local(r).mesh.num_active_elements(), 0);
  }
}

TEST(DistMesh, SharedFractionIsSmall) {
  const auto global = mesh::make_box_mesh(mesh::small_box(6));
  const auto part = partition_roots(global, 4);
  DistMesh dm(global, part, 4);
  // Paper: extra storage for shared objects was < 10% of serial (on a 61k
  // element mesh). Our 1.3k-element test box has a much worse
  // surface/volume ratio; just require < 45%.
  EXPECT_LT(dm.shared_object_fraction(), 0.45);
  EXPECT_GT(dm.shared_object_fraction(), 0.0);
}

TEST(DistMesh, DistributesAdaptedMesh) {
  auto global = mesh::make_box_mesh(mesh::small_box(2));
  adapt::MeshAdaptor ad(&global);
  std::vector<char> marks(static_cast<std::size_t>(global.num_edges()), 0);
  for (Index e = 0; e < global.num_edges(); e += 3) marks[e] = 1;
  ad.mark(marks);
  ad.refine();

  const auto part = partition_roots(global, 3);
  DistMesh dm(global, part, 3);
  dm.validate();
  EXPECT_EQ(dm.total_active_elements(), global.num_active_elements());

  // Refinement forests came along: per-rank root weights match global.
  const auto gw = global.root_weights();
  for (Rank r = 0; r < 3; ++r) {
    const auto lw = dm.local(r).mesh.root_weights();
    for (Index lr = 0; lr < static_cast<Index>(lw.wcomp.size()); ++lr) {
      const Index groot = dm.local(r).root_global[static_cast<std::size_t>(lr)];
      EXPECT_EQ(lw.wcomp[static_cast<std::size_t>(lr)],
                gw.wcomp[static_cast<std::size_t>(groot)]);
      EXPECT_EQ(lw.wremap[static_cast<std::size_t>(lr)],
                gw.wremap[static_cast<std::size_t>(groot)]);
    }
  }
}

TEST(ParallelMark, MatchesSerialMarking) {
  const auto global = mesh::make_box_mesh(mesh::small_box(3));
  const auto part = partition_roots(global, 4);
  DistMesh dm(global, part, 4);

  // Global marks that force cross-partition propagation.
  Rng rng(17);
  std::vector<char> gmarks(static_cast<std::size_t>(global.num_edges()), 0);
  for (Index e = 0; e < global.num_edges(); ++e) {
    if (rng.uniform() < 0.08) gmarks[static_cast<std::size_t>(e)] = 1;
  }
  const auto serial = adapt::propagate_marks(global, gmarks);

  rt::Engine eng(4);
  const auto pr = parallel_mark(dm, eng, localize_marks(dm, gmarks));
  EXPECT_GE(pr.comm_rounds, 1);

  // Every local copy's final mark equals the serial global mark.
  for (Rank r = 0; r < 4; ++r) {
    const auto& lm = dm.local(r);
    const auto& res = pr.per_rank[static_cast<std::size_t>(r)];
    for (Index e = 0; e < static_cast<Index>(lm.edge_global.size()); ++e) {
      if (lm.mesh.edge_elements(e).empty()) continue;
      EXPECT_EQ(static_cast<bool>(res.edge_marked[static_cast<std::size_t>(e)]),
                static_cast<bool>(
                    serial.edge_marked[static_cast<std::size_t>(lm.edge_global[e])]))
          << "rank " << r << " edge " << e;
    }
  }
}

TEST(ParallelMark, NoMarksNoTraffic) {
  const auto global = mesh::make_box_mesh(mesh::small_box(2));
  const auto part = partition_roots(global, 2);
  DistMesh dm(global, part, 2);
  rt::Engine eng(2);
  std::vector<std::vector<char>> seeds(2);
  const auto pr = parallel_mark(dm, eng, seeds);
  EXPECT_EQ(pr.marks_exchanged, 0);
}

class ParallelRefineSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, Rank>> {};

TEST_P(ParallelRefineSweep, MatchesSerialRefinementAndRepairsSpls) {
  const auto [seed, nranks] = GetParam();
  auto global = mesh::make_box_mesh(mesh::small_box(3));
  const auto part = partition_roots(global, nranks);
  DistMesh dm(global, part, nranks);

  Rng rng(seed);
  std::vector<char> gmarks(static_cast<std::size_t>(global.num_edges()), 0);
  for (Index e = 0; e < global.num_edges(); ++e) {
    if (rng.uniform() < 0.10) gmarks[static_cast<std::size_t>(e)] = 1;
  }

  // Parallel path.
  rt::Engine eng(nranks);
  const auto pm = parallel_mark(dm, eng, localize_marks(dm, gmarks));
  const auto pf = parallel_refine(dm, eng, pm);
  dm.validate();

  // Serial path on the global mirror + fresh distribution.
  adapt::MeshAdaptor ad(&global);
  ad.mark(gmarks);
  ad.refine();
  DistMesh fresh(global, part, nranks);

  EXPECT_EQ(dm.total_active_elements(), global.num_active_elements());
  std::int64_t work = 0;
  for (Rank r = 0; r < nranks; ++r) {
    const auto& a = dm.local(r).mesh;
    const auto& b = fresh.local(r).mesh;
    EXPECT_EQ(a.num_active_elements(), b.num_active_elements()) << r;
    EXPECT_EQ(a.num_vertices(), b.num_vertices()) << r;
    EXPECT_EQ(a.num_active_edges(), b.num_active_edges()) << r;
    EXPECT_EQ(a.num_active_bfaces(), b.num_active_bfaces()) << r;
    // SPL repair reproduced exactly what a fresh distribution computes.
    EXPECT_EQ(dm.local(r).shared_edges.size(),
              fresh.local(r).shared_edges.size())
        << r;
    EXPECT_EQ(dm.local(r).shared_verts.size(),
              fresh.local(r).shared_verts.size())
        << r;
    work += pf.work_per_rank[static_cast<std::size_t>(r)];
  }
  // Total subdivision work equals total children created globally.
  Index serial_children = 0;
  for (Index t = 0; t < global.num_elements(); ++t) {
    const auto& el = global.element(t);
    if (el.alive && !el.is_leaf() && el.level == 0) {
      serial_children += el.num_children;
    }
  }
  EXPECT_EQ(work, serial_children);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ParallelRefineSweep,
    ::testing::Combine(::testing::Values<std::uint64_t>(1, 2, 3),
                       ::testing::Values<Rank>(2, 4, 7)));

TEST(ParallelRefine, TwoSuccessiveAdaptions) {
  // A second parallel adaption exercises SPLs created by the first.
  auto global = mesh::make_box_mesh(mesh::small_box(2));
  const auto part = partition_roots(global, 3);
  DistMesh dm(global, part, 3);
  rt::Engine eng(3);
  Rng rng(99);

  for (int round = 0; round < 2; ++round) {
    // Mark a random subset of each rank's active local edges; shared copies
    // are seeded on one rank only — propagation must mirror them.
    std::vector<std::vector<char>> seeds(3);
    for (Rank r = 0; r < 3; ++r) {
      auto& s = seeds[static_cast<std::size_t>(r)];
      s.assign(static_cast<std::size_t>(dm.local(r).mesh.num_edges()), 0);
      for (Index e = 0; e < dm.local(r).mesh.num_edges(); ++e) {
        if (!dm.local(r).mesh.edge_elements(e).empty() &&
            rng.uniform() < 0.05) {
          s[static_cast<std::size_t>(e)] = 1;
        }
      }
    }
    const auto pm = parallel_mark(dm, eng, seeds);
    parallel_refine(dm, eng, pm);
    dm.validate();
  }
  EXPECT_GT(dm.total_active_elements(), 6 * 8);
}

TEST(Finalize, GatherReassemblesInitialDistribution) {
  const auto global = mesh::make_box_mesh(mesh::small_box(3));
  const auto part = partition_roots(global, 4);
  DistMesh dm(global, part, 4);
  rt::Engine eng(4);
  const auto fin = finalize_gather(dm, eng);
  fin.global.validate();
  EXPECT_EQ(fin.global.num_vertices(), global.num_vertices());
  EXPECT_EQ(fin.global.num_edges(), global.num_edges());
  EXPECT_EQ(fin.global.num_active_elements(), global.num_active_elements());
  EXPECT_EQ(fin.global.num_active_bfaces(), global.num_active_bfaces());
  EXPECT_NEAR(fin.global.total_volume(), global.total_volume(), 1e-12);
  EXPECT_EQ(fin.global.num_initial_elements(),
            global.num_initial_elements());
  EXPECT_EQ(fin.global.num_initial_edges(), global.num_initial_edges());
  // Numbering pushed cross-rank traffic through the engine.
  EXPECT_GT(eng.ledger().total_bytes(), 0);
}

TEST(Finalize, GatherAfterParallelAdaption) {
  auto global = mesh::make_box_mesh(mesh::small_box(3));
  const auto part = partition_roots(global, 5);
  DistMesh dm(global, part, 5);
  rt::Engine eng(5);

  Rng rng(31);
  std::vector<char> gmarks(static_cast<std::size_t>(global.num_edges()), 0);
  for (Index e = 0; e < global.num_edges(); ++e) {
    if (rng.uniform() < 0.07) gmarks[static_cast<std::size_t>(e)] = 1;
  }
  const auto pm = parallel_mark(dm, eng, localize_marks(dm, gmarks));
  parallel_refine(dm, eng, pm);

  // Equivalent serial refinement for reference counts.
  adapt::MeshAdaptor ad(&global);
  ad.mark(gmarks);
  ad.refine();

  const auto fin = finalize_gather(dm, eng);
  fin.global.validate();
  EXPECT_EQ(fin.global.num_vertices(), global.num_vertices());
  EXPECT_EQ(fin.global.num_active_elements(), global.num_active_elements());
  EXPECT_EQ(fin.global.num_active_edges(), global.num_active_edges());
  EXPECT_EQ(fin.global.num_active_bfaces(), global.num_active_bfaces());
  EXPECT_NEAR(fin.global.total_volume(), global.total_volume(), 1e-12);

  // Refinement forest survived the gather: weights agree in aggregate.
  const auto gw = fin.global.root_weights();
  const auto rw = global.root_weights();
  Weight sum_fin = 0, sum_ref = 0;
  for (Weight x : gw.wremap) sum_fin += x;
  for (Weight x : rw.wremap) sum_ref += x;
  EXPECT_EQ(sum_fin, sum_ref);
}

TEST(Finalize, VertexMapsAgreeAcrossSharedCopies) {
  const auto global = mesh::make_box_mesh(mesh::small_box(2));
  const auto part = partition_roots(global, 3);
  DistMesh dm(global, part, 3);
  rt::Engine eng(3);
  const auto fin = finalize_gather(dm, eng);
  // Every shared vertex copy got the same global number.
  for (Rank r = 0; r < 3; ++r) {
    for (const auto& [lid, spl] : dm.local(r).shared_verts) {
      for (const auto& c : spl) {
        EXPECT_EQ(fin.vert_global[static_cast<std::size_t>(r)]
                                 [static_cast<std::size_t>(lid)],
                  fin.vert_global[static_cast<std::size_t>(c.rank)]
                                 [static_cast<std::size_t>(c.remote_id)]);
      }
    }
  }
}

TEST(Migrate, MovesSubtreesAndChargesTraffic) {
  auto global = mesh::make_box_mesh(mesh::small_box(2));
  adapt::MeshAdaptor ad(&global);
  std::vector<char> marks(static_cast<std::size_t>(global.num_edges()), 0);
  for (Index e = 0; e < global.num_edges(); e += 5) marks[e] = 1;
  ad.mark(marks);
  ad.refine();

  const Rank P = 3;
  const auto part = partition_roots(global, P);
  DistMesh dm(global, part, P);
  rt::Engine eng(P);

  // New assignment: rotate every root one rank forward.
  partition::PartVec new_part(part.size());
  for (std::size_t v = 0; v < part.size(); ++v) {
    new_part[v] = (part[v] + 1) % P;
  }
  const auto before_ledger = eng.ledger().total_bytes();
  const auto stats = migrate(dm, eng, new_part);
  dm.validate();

  // Everything moved: every root changed rank.
  EXPECT_EQ(stats.roots_moved, global.num_initial_elements());
  EXPECT_EQ(stats.elements_moved,
            static_cast<std::int64_t>(global.num_elements()));
  EXPECT_GT(eng.ledger().total_bytes(), before_ledger);

  // The rebuilt distribution matches a fresh one under the new partition.
  DistMesh fresh(global, new_part, P);
  for (Rank r = 0; r < P; ++r) {
    EXPECT_EQ(dm.local(r).mesh.num_active_elements(),
              fresh.local(r).mesh.num_active_elements());
    EXPECT_EQ(dm.local(r).mesh.num_vertices(),
              fresh.local(r).mesh.num_vertices());
  }
}

TEST(Migrate, NoopAssignmentMovesNothing) {
  const auto global = mesh::make_box_mesh(mesh::small_box(2));
  const Rank P = 4;
  const auto part = partition_roots(global, P);
  DistMesh dm(global, part, P);
  rt::Engine eng(P);
  const auto stats = migrate(dm, eng, part);
  EXPECT_EQ(stats.roots_moved, 0);
  EXPECT_EQ(stats.elements_moved, 0);
  dm.validate();
}

TEST(Migrate, RootGlobalKeepsOriginalNumbering) {
  const auto global = mesh::make_box_mesh(mesh::small_box(2));
  const Rank P = 3;
  const auto part = partition_roots(global, P);
  DistMesh dm(global, part, P);
  rt::Engine eng(P);
  partition::PartVec new_part(part.size());
  for (std::size_t v = 0; v < part.size(); ++v) {
    new_part[v] = (part[v] + 2) % P;
  }
  migrate(dm, eng, new_part);
  // Every original root id appears exactly once, on its new rank.
  std::vector<int> seen(part.size(), 0);
  for (Rank r = 0; r < P; ++r) {
    for (Index g : dm.local(r).root_global) {
      ASSERT_GE(g, 0);
      ASSERT_LT(g, static_cast<Index>(part.size()));
      EXPECT_EQ(new_part[static_cast<std::size_t>(g)], r);
      ++seen[static_cast<std::size_t>(g)];
    }
  }
  for (int c : seen) EXPECT_EQ(c, 1);
}

TEST(Migrate, SendsOnlyPacksAndDirectoryTraffic) {
  auto global = mesh::make_box_mesh(mesh::small_box(3));
  adapt::MeshAdaptor ad(&global);
  std::vector<char> marks(static_cast<std::size_t>(global.num_edges()), 0);
  for (Index e = 0; e < global.num_edges(); e += 4) marks[e] = 1;
  ad.mark(marks);
  ad.refine();

  const Rank P = 4;
  const auto part = partition_roots(global, P);
  DistMesh dm(global, part, P);
  rt::Engine eng(P);
  partition::PartVec new_part(part.size());
  for (std::size_t v = 0; v < part.size(); ++v) {
    new_part[v] = v % 3 == 0 ? (part[v] + 1) % P : part[v];
  }
  const auto before = static_cast<std::size_t>(eng.ledger().num_supersteps());
  const auto stats = migrate(dm, eng, new_part);
  dm.validate();

  // A fixed four-superstep program: packs, registrations, directory
  // replies, a silent install — and no finalize numbering step (whose
  // GidMsg batches would travel under the bulk tag after the packs).
  const auto& steps = eng.ledger().steps;
  const auto nsteps = static_cast<std::size_t>(kMigrateSupersteps);
  ASSERT_EQ(steps.size() - before, nsteps);
  const int tag_of_step[] = {kTagMigratePack, kTagMigrateRegister,
                             kTagMigrateHolders};
  std::int64_t pack_bytes = 0;
  int packs = 0;
  for (std::size_t s = 0; s < nsteps; ++s) {
    for (Rank r = 0; r < P; ++r) {
      const auto& sends = steps[before + s][static_cast<std::size_t>(r)].sends;
      if (s == 3) {
        EXPECT_TRUE(sends.empty());
      }
      for (const auto& cell : sends) {
        ASSERT_LT(s, 3u);
        EXPECT_EQ(cell.tag, tag_of_step[s]) << "step " << s;
        EXPECT_NE(cell.to, r) << "self traffic in step " << s;
        if (s == 0) {
          EXPECT_EQ(cell.msgs, 1);  // one pack per (sender, receiver)
          EXPECT_GE(cell.bytes, kPackHeaderBytes);
          pack_bytes += cell.bytes;
          ++packs;
        }
      }
    }
  }
  EXPECT_GT(pack_bytes, 0);
  EXPECT_EQ(std::accumulate(stats.bytes_sent.begin(), stats.bytes_sent.end(),
                            std::int64_t{0}),
            pack_bytes);
  EXPECT_EQ(std::accumulate(stats.bytes_received.begin(),
                            stats.bytes_received.end(), std::int64_t{0}),
            pack_bytes);
  EXPECT_EQ(stats.sets_moved, packs);
}

TEST(DistMeshDeathTest, ValidateCatchesADroppedThirdHolder) {
  const auto global = mesh::make_box_mesh(mesh::small_box(3));
  const Rank P = 4;
  DistMesh dm(global, partition_roots(global, P), P);
  dm.validate();
  // Forget one holder of a 3-holder vertex on one rank: every remaining
  // entry still has a mirror, so only the holder-set check can object.
  bool dropped = false;
  for (Rank r = 0; r < P && !dropped; ++r) {
    for (auto& [lid, spl] : dm.local(r).shared_verts) {
      if (spl.size() == 2) {
        spl.pop_back();
        dropped = true;
        break;
      }
    }
  }
  ASSERT_TRUE(dropped);
  EXPECT_DEATH(dm.validate(), "vertex SPL holder sets differ");
}

TEST(ParallelCoarsen, MatchesSerialCoarsening) {
  // Refine globally, distribute, coarsen a spatial half in parallel and
  // serially; active element counts must agree.
  auto make_refined = [] {
    auto m = mesh::make_box_mesh(mesh::small_box(2));
    adapt::MeshAdaptor ad(&m);
    std::vector<char> all(static_cast<std::size_t>(m.num_edges()), 1);
    ad.mark(all);
    ad.refine();
    return m;
  };
  auto is_low_half = [](const mesh::TetMesh& m, Index e) {
    const auto& ed = m.edge(e);
    return m.vertex(ed.v0).pos.z < 0.5 && m.vertex(ed.v1).pos.z < 0.5;
  };

  // Serial reference.
  auto serial = make_refined();
  {
    std::vector<char> cm(static_cast<std::size_t>(serial.num_edges()), 0);
    for (Index e = 0; e < serial.num_edges(); ++e) {
      if (!serial.edge_elements(e).empty() && is_low_half(serial, e)) {
        cm[static_cast<std::size_t>(e)] = 1;
      }
    }
    adapt::coarsen_mesh(serial, cm);
  }

  // Parallel path.
  auto global = make_refined();
  const Rank P = 3;
  const auto part = partition_roots(global, P);
  DistMesh dm(global, part, P);
  rt::Engine eng(P);
  std::vector<std::vector<char>> marks(static_cast<std::size_t>(P));
  for (Rank r = 0; r < P; ++r) {
    const auto& lm = dm.local(r).mesh;
    marks[static_cast<std::size_t>(r)].assign(
        static_cast<std::size_t>(lm.num_edges()), 0);
    for (Index e = 0; e < lm.num_edges(); ++e) {
      if (!lm.edge_elements(e).empty() && is_low_half(lm, e)) {
        marks[static_cast<std::size_t>(r)][static_cast<std::size_t>(e)] = 1;
      }
    }
  }
  const auto res = parallel_coarsen(dm, eng, marks);
  dm.validate();
  EXPECT_LT(res.elements_after, res.elements_before);
  EXPECT_EQ(res.elements_after, serial.num_active_elements());
}

TEST(ParallelCoarsen, SolutionSurvivesCoarsening) {
  auto global = mesh::make_box_mesh(mesh::small_box(1));
  adapt::MeshAdaptor ad(&global);
  std::vector<char> all(static_cast<std::size_t>(global.num_edges()), 1);
  ad.mark(all);
  ad.refine();

  const Rank P = 2;
  const auto part = partition_roots(global, P);
  DistMesh dm(global, part, P);
  rt::Engine eng(P);

  // Linear density field: exact under both interpolation and restriction.
  std::vector<std::vector<solver::State>> states(P);
  for (Rank r = 0; r < P; ++r) {
    const auto& lm = dm.local(r).mesh;
    states[static_cast<std::size_t>(r)].resize(
        static_cast<std::size_t>(lm.num_vertices()));
    for (Index v = 0; v < lm.num_vertices(); ++v) {
      const auto& p = lm.vertex(v).pos;
      states[static_cast<std::size_t>(r)][static_cast<std::size_t>(v)] = {
          1.0 + p.x, 0, 0, 0, 2.5};
    }
  }

  std::vector<std::vector<char>> marks(static_cast<std::size_t>(P));
  for (Rank r = 0; r < P; ++r) {
    marks[static_cast<std::size_t>(r)].assign(
        static_cast<std::size_t>(dm.local(r).mesh.num_edges()), 1);
  }
  parallel_coarsen(dm, eng, marks, &states);
  dm.validate();
  EXPECT_EQ(dm.total_active_elements(), 6);  // fully coarsened

  for (Rank r = 0; r < P; ++r) {
    const auto& lm = dm.local(r).mesh;
    for (Index v = 0; v < lm.num_vertices(); ++v) {
      const auto& p = lm.vertex(v).pos;
      EXPECT_NEAR(
          states[static_cast<std::size_t>(r)][static_cast<std::size_t>(v)][0],
          1.0 + p.x, 1e-12);
    }
  }
}

}  // namespace
}  // namespace plum::pmesh
