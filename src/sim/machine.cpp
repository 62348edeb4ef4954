#include "sim/machine.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"
#include "util/stats.hpp"

namespace plum::sim {

const char* cost_metric_name(CostMetric metric) {
  return metric == CostMetric::kTotalV ? "TotalV" : "MaxV";
}

double CostModel::computational_gain(Weight wmax_old, Weight wmax_new,
                                     Weight refine_work_max_old,
                                     Weight refine_work_max_new) const {
  const double solver_term =
      p_.t_iter * p_.solver_iters_per_adaption *
      static_cast<double>(wmax_old - wmax_new);
  const double refine_term =
      p_.t_refine *
      static_cast<double>(refine_work_max_old - refine_work_max_new);
  return solver_term + refine_term;
}

double CostModel::redistribution_cost(const remap::RemapVolume& vol,
                                      CostMetric metric) const {
  const double C = metric == CostMetric::kTotalV
                       ? static_cast<double>(vol.total_elems)
                       : static_cast<double>(vol.bottleneck_elems);
  const double N = metric == CostMetric::kTotalV
                       ? static_cast<double>(vol.total_sets)
                       : static_cast<double>(vol.bottleneck_sets);
  return p_.words_per_element * C * p_.t_lat + N * p_.t_setup;
}

std::int64_t CostModel::predicted_move_bytes(const remap::RemapVolume& vol,
                                             CostMetric metric) const {
  const Weight elems = metric == CostMetric::kTotalV ? vol.total_elems
                                                     : vol.bottleneck_elems;
  const int sets = metric == CostMetric::kTotalV ? vol.total_sets
                                                 : vol.bottleneck_sets;
  return std::llround(move_bytes_per_element() * static_cast<double>(elems) +
                      p_.bytes_per_set * static_cast<double>(sets));
}

double CostModel::adaption_seconds(
    const std::vector<Index>& subdivision_work_per_rank,
    const std::vector<Index>& elements_per_rank, int mark_rounds) const {
  PLUM_ASSERT(!subdivision_work_per_rank.empty());
  PLUM_ASSERT(subdivision_work_per_rank.size() == elements_per_rank.size());
  const double subdiv =
      p_.t_refine * static_cast<double>(vec_max(subdivision_work_per_rank));
  // Each marking round re-examines the (bottleneck) local region and pays a
  // synchronization startup.
  const double mark = static_cast<double>(mark_rounds) *
                      (p_.t_mark * static_cast<double>(vec_max(elements_per_rank)) +
                       p_.t_setup);
  return subdiv + mark;
}

double CostModel::remap_seconds(const remap::RemapVolume& vol) const {
  // Bottleneck processor: it pays latency for every word it sends and
  // receives, plus a startup per peer set it exchanges with.
  const double copy = p_.words_per_element *
                      static_cast<double>(vol.bottleneck_elems) * p_.t_lat;
  const double setup = static_cast<double>(vol.bottleneck_sets) * p_.t_setup;
  return copy + setup;
}

double CostModel::partition_seconds(Index n_vertices, int levels,
                                    Rank nranks) const {
  PLUM_ASSERT(nranks >= 1 && levels >= 1);
  // Local multilevel work: every level visits the (shrinking) graph, so the
  // geometric series over levels is ~2x the finest level, distributed over
  // P ranks. Synchronization: each level's coloring / boundary rounds cost
  // grows with P. The two terms produce the shallow minimum near P = 16 the
  // paper observes on its 60,968-element dual graph (Fig. 6); t_part_* are
  // calibrated so P = 64 lands at the quoted ~0.58 s.
  const double local = p_.t_part_vertex * static_cast<double>(n_vertices) /
                       static_cast<double>(nranks);
  const double sync = p_.t_part_sync_per_rank *
                      (static_cast<double>(levels) / 14.0) *
                      static_cast<double>(nranks);
  return local + sync;
}

}  // namespace plum::sim
