// Tests for the SP2 machine cost model: §4.5 gain/cost arithmetic, phase
// time estimators and their qualitative shapes (partitioner U-curve,
// remap time monotone in volume).

#include <gtest/gtest.h>

#include <cmath>

#include "sim/machine.hpp"

namespace plum::sim {
namespace {

remap::RemapVolume volume(Weight total, int sets, Weight bottleneck,
                          int bsets) {
  remap::RemapVolume v;
  v.total_elems = total;
  v.total_sets = sets;
  v.bottleneck_elems = bottleneck;
  v.bottleneck_sets = bsets;
  return v;
}

TEST(CostModel, GainPositiveWhenBalanceImproves) {
  CostModel cm;
  EXPECT_GT(cm.computational_gain(2000, 1000, 500, 300), 0.0);
  EXPECT_LT(cm.computational_gain(1000, 2000, 300, 500), 0.0);
  EXPECT_DOUBLE_EQ(cm.computational_gain(1000, 1000, 300, 300), 0.0);
}

TEST(CostModel, GainIncludesRefinementTerm) {
  CostModel cm;
  // Same solver balance; only the subdivision phase becomes balanced.
  const double g = cm.computational_gain(1000, 1000, 800, 200);
  EXPECT_NEAR(g, cm.params().t_refine * 600.0, 1e-12);
}

TEST(CostModel, RedistributionCostFollowsPaperFormula) {
  CostModel cm;
  const auto vol = volume(1000, 12, 300, 5);
  const auto& p = cm.params();
  EXPECT_NEAR(cm.redistribution_cost(vol, CostMetric::kTotalV),
              p.words_per_element * 1000.0 * p.t_lat + 12 * p.t_setup, 1e-12);
  EXPECT_NEAR(cm.redistribution_cost(vol, CostMetric::kMaxV),
              p.words_per_element * 300.0 * p.t_lat + 5 * p.t_setup, 1e-12);
}

TEST(CostModel, AcceptGate) {
  CostModel cm;
  EXPECT_TRUE(cm.accept_remap(1.0, 0.5));
  EXPECT_FALSE(cm.accept_remap(0.5, 1.0));
  EXPECT_FALSE(cm.accept_remap(1.0, 1.0));
}

TEST(CostModel, AdaptionTimeGovernedByBottleneck) {
  CostModel cm;
  const double balanced = cm.adaption_seconds({100, 100, 100, 100},
                                              {50, 50, 50, 50}, 2);
  const double skewed =
      cm.adaption_seconds({400, 0, 0, 0}, {50, 50, 50, 50}, 2);
  EXPECT_LT(balanced, skewed);
}

TEST(CostModel, RemapTimeMonotoneInBottleneckVolume) {
  CostModel cm;
  EXPECT_LT(cm.remap_seconds(volume(1000, 10, 100, 4)),
            cm.remap_seconds(volume(1000, 10, 400, 4)));
}

TEST(CostModel, PartitionTimeHasInteriorMinimum) {
  CostModel cm;
  // Paper Fig. 6: minimum around P = 16 for the 61k-element dual graph.
  const Index n = 60968;
  const int levels = 14;
  const double t2 = cm.partition_seconds(n, levels, 2);
  const double t16 = cm.partition_seconds(n, levels, 16);
  const double t64 = cm.partition_seconds(n, levels, 64);
  EXPECT_LT(t16, t2);
  EXPECT_LT(t16, t64);
  // Calibration anchor: ~0.58 s at P = 64 (paper quote for Real_2).
  EXPECT_NEAR(t64, 0.58, 0.12);
}

TEST(CostModel, RefinementTimeAnchor) {
  // ~0.55 s at P = 64 for Real_2's ~180k created children, balanced.
  CostModel cm;
  const Index per_rank = 180000 / 64;
  std::vector<Index> work(64, per_rank);
  std::vector<Index> elems(64, 61000 / 64);
  const double t = cm.adaption_seconds(work, elems, 3);
  EXPECT_GT(t, 0.3);
  EXPECT_LT(t, 0.9);
}

TEST(CostModel, AdaptionSecondsSingleRankSingleElement) {
  // nranks = 1 degenerates cleanly: the lone rank IS the bottleneck.
  CostModel cm;
  const auto& p = cm.params();
  EXPECT_NEAR(cm.adaption_seconds({7}, {3}, 2),
              p.t_refine * 7.0 + 2.0 * (p.t_mark * 3.0 + p.t_setup), 1e-12);
}

TEST(CostModel, AdaptionSecondsZeroMarkRoundsIsPureSubdivision) {
  // mark_rounds = 0 (a cycle that marked nothing) must not charge any
  // marking or synchronization time.
  CostModel cm;
  EXPECT_NEAR(cm.adaption_seconds({50, 80}, {100, 120}, 0),
              cm.params().t_refine * 80.0, 1e-12);
}

TEST(CostModel, PartitionSecondsSingleRankHasNoSyncBlowup) {
  // P = 1 pays the full local sweep but only one rank's worth of sync.
  CostModel cm;
  const auto& p = cm.params();
  EXPECT_NEAR(cm.partition_seconds(1000, 14, 1),
              p.t_part_vertex * 1000.0 + p.t_part_sync_per_rank, 1e-12);
  EXPECT_LT(cm.partition_seconds(1, 1, 1), 0.02);  // near-empty graph
}

TEST(CostModel, PredictedMoveBytesChargesPerSetFraming) {
  CostModel cm;
  const auto vol = volume(1000, 12, 300, 5);
  const auto& p = cm.params();
  EXPECT_EQ(cm.predicted_move_bytes(vol, CostMetric::kTotalV),
            std::llround(cm.move_bytes_per_element() * 1000.0 +
                         p.bytes_per_set * 12.0));
  EXPECT_EQ(cm.predicted_move_bytes(vol, CostMetric::kMaxV),
            std::llround(cm.move_bytes_per_element() * 300.0 +
                         p.bytes_per_set * 5.0));
  // The payload is derived from the paper's words-per-element.
  EXPECT_DOUBLE_EQ(cm.move_bytes_per_element(),
                   static_cast<double>(p.words_per_element) * 8.0);
}

}  // namespace
}  // namespace plum::sim
