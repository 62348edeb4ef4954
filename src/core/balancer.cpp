#include "core/balancer.hpp"

#include "remap/mapping.hpp"
#include "util/assert.hpp"
#include "util/stats.hpp"

namespace plum::core {

std::vector<Weight> proc_sums(const partition::PartVec& owner,
                              const std::vector<Weight>& weights,
                              Rank nprocs) {
  // plum-scale: host-only -- host-side load table for the rebalance decision
  std::vector<Weight> loads(static_cast<std::size_t>(nprocs), 0);
  for (std::size_t v = 0; v < owner.size(); ++v) {
    loads[static_cast<std::size_t>(owner[v])] += weights[v];
  }
  return loads;
}

namespace {

remap::Assignment run_mapper(MapperKind kind,
                             const remap::SimilarityMatrix& S, double alpha,
                             double beta) {
  switch (kind) {
    case MapperKind::kHeuristicGreedy: return remap::map_heuristic_greedy(S);
    case MapperKind::kOptimalMwbg: return remap::map_optimal_mwbg(S);
    case MapperKind::kOptimalBmcm:
      return remap::map_optimal_bmcm(S, alpha, beta);
  }
  PLUM_ASSERT(false);
  return {};
}

}  // namespace

void check_options(const FrameworkOptions& opt) {
  PLUM_ASSERT(opt.nranks >= 1);
  PLUM_ASSERT(opt.partitions_per_proc >= 1);
  PLUM_ASSERT_MSG(opt.mapper != MapperKind::kOptimalBmcm ||
                      opt.partitions_per_proc == 1,
                  "the BMCM mapper needs partitions_per_proc == 1");
  PLUM_ASSERT(opt.refine_fraction >= 0 && opt.refine_fraction <= 1);
  PLUM_ASSERT(opt.coarsen_fraction >= 0 && opt.coarsen_fraction <= 1);
  PLUM_ASSERT(opt.solver_steps_per_cycle >= 0);
  PLUM_ASSERT_MSG(!opt.calibration.enabled,
                  "calibration is an inert stub; only its default is valid");
  PLUM_ASSERT_MSG(opt.replay_path.empty(),
                  "replay_path is an inert stub; only its default is valid");
}

Balancer::Balancer(const mesh::TetMesh& initial, const FrameworkOptions& opt,
                   obs::MemoryTracker& mem)
    : dual_(initial.build_initial_dual()) {
  check_options(opt);
  partition::MultilevelOptions popt;
  popt.nparts = opt.nranks;  // initial mapping: one partition per processor
  popt.seed = opt.seed;
  popt.scratch = mem.host_scratch();  // serial phase: host row
  owner_ = partition::partition(dual_, popt).part;
  mem.reset_arenas();  // constructor scratch dies here
}

obs::GateRecord Balancer::run(const FrameworkOptions& opt, int cycle,
                              const RootLoads& w, obs::TraceRecorder& trace,
                              obs::MemoryTracker& mem, CycleReport& rep,
                              const Move& move) {
  const Rank P = opt.nranks;
  const sim::CostModel cm(opt.machine);
  // Predicted weights drive both the repartitioner and the end-of-cycle
  // quality gauges, so install them unconditionally.
  dual_.set_weights(w.wcomp_pred, w.wremap_pred);
  const auto loads_old = proc_sums(owner_, w.wcomp_pred, P);
  rep.imbalance_old = imbalance(loads_old);
  rep.wmax_old = vec_max(loads_old);

  obs::GateRecord g;
  g.cycle = cycle;
  g.metric = sim::cost_metric_name(opt.metric);
  g.imbalance_old = rep.imbalance_old;
  if (rep.imbalance_old <= opt.imbalance_trigger) return g;
  rep.evaluated_repartition = true;
  obs::PhaseScope gate(trace, "gate");

  // --- repartition the dual graph (paper §4.2) ------------------------------
  partition::MultilevelOptions popt;
  popt.nparts = P * opt.partitions_per_proc;
  popt.seed = opt.seed;
  popt.scratch = mem.host_scratch();  // serial phase: host row
  partition::MultilevelResult repart;
  {
    obs::PhaseScope ph(trace, "repartition");
    // The warm start applies only when the partition count matches the
    // current mapping's granularity (F = 1); otherwise partition afresh.
    repart = opt.partitions_per_proc == 1
                 ? partition::repartition(dual_, owner_, popt)
                 : partition::partition(dual_, popt);
    ph.set_modeled_seconds(cm.partition_seconds(
        dual_.num_vertices(), static_cast<int>(repart.levels.size()), P));
  }
  rep.used_previous_partition = repart.used_previous;

  // --- processor reassignment: similarity matrix + mapper (§4.3–4.4) -------
  // Remap-before moves the current (small) trees, remap-after the
  // post-subdivision ones.
  const auto& move_w =
      opt.remap_before_subdivision ? w.wremap_cur : w.wremap_pred;
  const auto S = remap::SimilarityMatrix::build(owner_, repart.part, move_w,
                                                P, popt.nparts);
  remap::Assignment assign;
  {
    obs::PhaseScope ph(trace, "reassign");
    assign = run_mapper(opt.mapper, S, opt.machine.alpha, opt.machine.beta);
  }
  rep.mapper_seconds = assign.solve_seconds;
  rep.volume =
      remap::evaluate_assignment(S, assign, opt.machine.alpha, opt.machine.beta);
  partition::PartVec new_owner(owner_.size());
  for (std::size_t v = 0; v < new_owner.size(); ++v) {
    new_owner[v] =
        assign.part_to_proc[static_cast<std::size_t>(repart.part[v])];
  }

  // --- gain vs cost (§4.5) ---------------------------------------------------
  const auto loads_new = proc_sums(new_owner, w.wcomp_pred, P);
  rep.imbalance_new = imbalance(loads_new);
  rep.wmax_new = vec_max(loads_new);
  // Subdivision work per processor = predicted growth of the trees.
  std::vector<Weight> growth(w.wremap_cur.size());
  for (std::size_t v = 0; v < growth.size(); ++v) {
    growth[v] = w.wremap_pred[v] - w.wremap_cur[v];
  }
  rep.gain_seconds = cm.computational_gain(
      rep.wmax_old, rep.wmax_new, vec_max(proc_sums(owner_, growth, P)),
      vec_max(proc_sums(new_owner, growth, P)));
  rep.cost_seconds = cm.redistribution_cost(rep.volume, opt.metric);

  const bool total_v = opt.metric == sim::CostMetric::kTotalV;
  g.evaluated = true;
  g.imbalance_new = rep.imbalance_new;
  g.gain_s = rep.gain_seconds;
  g.cost_s = rep.cost_seconds;
  g.moved_elems =
      total_v ? rep.volume.total_elems : rep.volume.bottleneck_elems;
  g.moved_sets = total_v ? rep.volume.total_sets : rep.volume.bottleneck_sets;
  g.predicted_move_bytes = cm.predicted_move_bytes(rep.volume, opt.metric);

  if (cm.accept_remap(rep.gain_seconds, rep.cost_seconds)) {
    rep.accepted = true;
    // --- remap (§4.6) --------------------------------------------------------
    g.accepted = true;
    g.measured_move_bytes = move(new_owner, move_w);
    owner_ = std::move(new_owner);
  }
  return g;
}

}  // namespace plum::core
