// Integration tests for the PLUM framework driver (Fig. 1 loop): the cycle
// runs end-to-end, repartitioning triggers on imbalance, the gain/cost gate
// behaves, remap-before beats remap-after on moved volume, and repeated
// cycles keep the solver load balanced.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "core/framework.hpp"
#include "mesh/box_mesh.hpp"
#include "solver/init_conditions.hpp"
#include "util/stats.hpp"

namespace plum::core {
namespace {

Framework make_framework(FrameworkOptions opt, int boxn = 4) {
  auto mesh = mesh::make_box_mesh(mesh::small_box(boxn));
  Framework fw(std::move(mesh), opt);
  solver::BlastSpec blast;
  blast.radius = 0.2;
  solver::init_blast(fw.mesh(), fw.solver().solution(), blast);
  return fw;
}

TEST(Framework, CycleRefinesAndReports) {
  FrameworkOptions opt;
  opt.nranks = 4;
  opt.refine_fraction = 0.10;
  auto fw = make_framework(opt);
  const auto rep = fw.cycle();
  EXPECT_GT(rep.elements_after, rep.elements_before);
  EXPECT_GT(rep.solver_work, 0);
  fw.mesh().validate();
}

TEST(Framework, LocalizedRefinementTriggersRepartition) {
  FrameworkOptions opt;
  opt.nranks = 8;
  opt.refine_fraction = 0.08;  // blast-local -> strongly imbalanced
  opt.imbalance_trigger = 1.10;
  auto fw = make_framework(opt, 5);
  const auto rep = fw.cycle();
  EXPECT_TRUE(rep.evaluated_repartition);
  if (rep.accepted) {
    EXPECT_LT(rep.imbalance_new, rep.imbalance_old);
    EXPECT_GT(rep.gain_seconds, rep.cost_seconds);
  }
}

TEST(Framework, BalancedMarksDoNotRepartition) {
  FrameworkOptions opt;
  opt.nranks = 4;
  opt.refine_fraction = 0.0;  // nothing marked -> perfectly balanced
  auto fw = make_framework(opt);
  const auto rep = fw.cycle();
  EXPECT_FALSE(rep.evaluated_repartition);
  EXPECT_FALSE(rep.accepted);
  EXPECT_EQ(rep.elements_after, rep.elements_before);
}

TEST(Framework, RemapBeforeMovesLessThanAfter) {
  FrameworkOptions base;
  base.nranks = 8;
  base.refine_fraction = 0.15;
  base.imbalance_trigger = 1.05;
  base.seed = 7;

  auto before = make_framework(base, 5);
  auto opt_after = base;
  opt_after.remap_before_subdivision = false;
  auto after = make_framework(opt_after, 5);

  const auto rb = before.cycle();
  const auto ra = after.cycle();
  ASSERT_TRUE(rb.evaluated_repartition);
  ASSERT_TRUE(ra.evaluated_repartition);
  // Identical decisions up to the moved weights: remap-before moves the
  // pre-subdivision trees, which is strictly less data.
  EXPECT_LT(rb.volume.total_elems, ra.volume.total_elems);
}

TEST(Framework, RepeatedCyclesKeepLoadBalanced) {
  FrameworkOptions opt;
  opt.nranks = 8;
  opt.refine_fraction = 0.06;
  opt.imbalance_trigger = 1.15;
  auto fw = make_framework(opt, 4);
  const auto reports = fw.run(3);
  // After each accepted remap, the achieved (post-refinement) processor
  // loads are reasonably balanced.
  int accepted = 0;
  for (const auto& r : reports) accepted += r.accepted;
  EXPECT_GE(accepted, 1);
  EXPECT_LT(imbalance(fw.processor_loads()), 1.5);
  fw.mesh().validate();
}

TEST(Framework, MappersProduceSameGateDecisionShape) {
  // All three mappers must produce valid assignments inside the framework;
  // the optimal MWBG objective dominates the greedy one.
  for (auto kind : {MapperKind::kHeuristicGreedy, MapperKind::kOptimalMwbg,
                    MapperKind::kOptimalBmcm}) {
    FrameworkOptions opt;
    opt.nranks = 4;
    opt.refine_fraction = 0.12;
    opt.imbalance_trigger = 1.05;
    opt.mapper = kind;
    auto fw = make_framework(opt);
    const auto rep = fw.cycle();
    if (rep.evaluated_repartition) {
      EXPECT_GE(rep.volume.total_elems, 0);
    }
    fw.mesh().validate();
  }
}

TEST(Framework, FGreaterThanOnePartitionsFiner) {
  FrameworkOptions opt;
  opt.nranks = 4;
  opt.partitions_per_proc = 2;  // F = 2
  opt.mapper = MapperKind::kHeuristicGreedy;
  opt.refine_fraction = 0.12;
  opt.imbalance_trigger = 1.05;
  auto fw = make_framework(opt, 4);
  const auto rep = fw.cycle();
  if (rep.evaluated_repartition) {
    // Processor loads remain defined and balanced-ish under F = 2.
    EXPECT_GT(rep.wmax_new, 0);
  }
  // All roots mapped to valid processors.
  for (Rank p : fw.root_partition()) {
    EXPECT_GE(p, 0);
    EXPECT_LT(p, 4);
  }
}

TEST(Framework, SolutionInterpolatedAcrossCycles) {
  FrameworkOptions opt;
  opt.nranks = 2;
  opt.refine_fraction = 0.08;
  auto fw = make_framework(opt);
  fw.run(2);
  // Solution array tracks the grown mesh and stays physical.
  EXPECT_EQ(static_cast<Index>(fw.solver().solution().size()),
            fw.mesh().num_vertices());
  for (const auto& s : fw.solver().solution()) {
    EXPECT_GT(s[0], 0.0);  // density positive
  }
}

// FrameworkOptions::scope_stream means the same in both drivers: one
// validating plum-scope/1 record per cycle (this driver runs no engine
// supersteps, so its ranks report zero busy/wait units).
TEST(Framework, ScopeStreamWritesOneRecordPerCycle) {
  const std::string stream =
      ::testing::TempDir() + "serial_scope_stream.ndjson";
  std::remove(stream.c_str());
  FrameworkOptions opt;
  opt.nranks = 3;
  opt.refine_fraction = 0.08;
  opt.scope_name = "serial_unit";
  opt.scope_stream = stream;
  {
    auto fw = make_framework(opt);
    fw.run(2);
  }
  std::ifstream in(stream);
  std::string line;
  int n = 0;
  while (std::getline(in, line)) {
    obs::Json rec;
    std::string err;
    ASSERT_TRUE(obs::Json::parse(line, &rec, &err)) << err;
    ASSERT_EQ(obs::validate_scope_record(rec), "") << line;
    EXPECT_EQ(rec.find("name")->as_string(), "serial_unit");
    EXPECT_EQ(rec.find("cycle")->as_int(), n);
    EXPECT_EQ(rec.find("ranks")->size(), 3u);
    ++n;
  }
  EXPECT_EQ(n, 2);
  std::remove(stream.c_str());
}

TEST(Framework, CoarseningPhaseShrinksQuietRegions) {
  FrameworkOptions opt;
  opt.nranks = 4;
  opt.refine_fraction = 0.08;
  opt.coarsen_fraction = 0.0;
  auto grown = make_framework(opt, 3);
  grown.run(2);  // grow the mesh around the blast

  // Enable coarsening for a third cycle: quiet-region leaves collapse.
  FrameworkOptions opt2 = opt;
  opt2.coarsen_fraction = 0.5;
  auto fw = make_framework(opt2, 3);
  fw.run(2);
  const auto rep = fw.cycle();
  EXPECT_GT(rep.elements_coarsened, 0);
  fw.mesh().validate();
  // Solution stayed physical through compaction + re-refinement.
  for (const auto& s : fw.solver().solution()) EXPECT_GT(s[0], 0.0);
}

}  // namespace
}  // namespace plum::core
