#include "core/framework.hpp"

#include <cmath>
#include <limits>
#include <set>
#include <utility>

#include "util/stats.hpp"
#include "util/timer.hpp"

namespace plum::core {

Framework::Framework(mesh::TetMesh mesh, FrameworkOptions opt)
    : Driver(mesh, std::move(opt)),
      mesh_(std::make_unique<mesh::TetMesh>(std::move(mesh))) {
  solver_ = std::make_unique<solver::EulerSolver>(mesh_.get());
  adaptor_ = std::make_unique<adapt::MeshAdaptor>(mesh_.get());
  mesh_->on_bisect = [this](Index e, Index mid) {
    solver_->interpolate_midpoint(e, mid);
  };
}

std::vector<Weight> Framework::processor_loads() const {
  return proc_sums(balancer_.owner(), mesh_->root_weights().wcomp,
                   opt_.nranks);
}

CycleReport Framework::cycle() {
  const Timer cycle_timer;  // wall_s of the plum-scope stream record
  begin_cycle();
  const sim::MachineParams& mp = opt_.machine;
  CycleReport rep;
  rep.elements_before = mesh_->num_active_elements();

  // --- 1. flow solver -------------------------------------------------------
  {
    obs::PhaseScope ph(trace_, "solve");
    rep.solver_work = solver_->run(opt_.solver_steps_per_cycle);
    const auto solve_loads = processor_loads();
    // Modeled SP2 time: iterations on the bottleneck processor.
    ph.set_modeled_seconds(mp.t_iter *
                           static_cast<double>(opt_.solver_steps_per_cycle) *
                           static_cast<double>(vec_max(solve_loads)));
  }

  // --- 1b. coarsening phase (Fig. 1: the old mesh shrinks before the
  //         refinement bookkeeping; compaction renumbers everything, so the
  //         solver state follows the vertex map) -----------------------------
  if (opt_.coarsen_fraction > 0) {
    obs::PhaseScope ph(trace_, "coarsen");
    const auto err = adapt::edge_error(*mesh_, solver_->density_field(), 1.0);
    const double low = adapt::coarsen_threshold(
        adapt::active_values(*mesh_, err), opt_.coarsen_fraction);
    if (low > std::numeric_limits<double>::lowest()) {
      adaptor_->coarsen(adapt::mark_below(*mesh_, err, low),
                        [this](const std::vector<Index>& map) {
                          solver_->remap_solution(map);
                        });
      solver_->rebuild();
      rep.elements_coarsened =
          rep.elements_before - mesh_->num_active_elements();
    }
  }

  // --- 2. edge marking from the flow solution -------------------------------
  {
    obs::PhaseScope ph(trace_, "mark");
    const auto err = adapt::edge_error(*mesh_, solver_->density_field(), 1.0);
    const auto& marks = adaptor_->mark_fraction(err, opt_.refine_fraction);
    rep.mark_rounds = marks.propagation_rounds;
    // One marking sweep plus one per propagation round.
    ph.set_modeled_seconds(
        mp.t_mark * static_cast<double>(mesh_->num_active_elements()) *
        static_cast<double>(1 + marks.propagation_rounds));
  }

  // --- 3-7. balance on the *predicted* weights; an accepted remap installs
  //          the new ownership --------------------------------------------
  auto predicted = adaptor_->predicted_weights();
  const RootLoads w{std::move(predicted.wcomp), std::move(predicted.wremap),
                    mesh_->root_weights().wremap};
  // Ownership during subdivision: the new one when the remap precedes it.
  partition::PartVec refine_owner = balancer_.owner();
  const obs::GateRecord gate = balancer_.run(
      opt_, log_.cycle(), w, trace_, mem_, rep,
      [&](const partition::PartVec& new_owner,
          const std::vector<Weight>& move_w) -> std::int64_t {
        obs::PhaseScope ph(trace_, "remap");
        ph.set_modeled_seconds(rep.cost_seconds);
        if (opt_.remap_before_subdivision) refine_owner = new_owner;
        // Measured data movement: this driver keeps everything in one
        // address space, so "moved" is the remap weight of every root whose
        // owner changed plus one framing header per (old, new) owner pair,
        // in the bytes the machine constants price (equal to the prediction
        // under TotalV; MaxV prices only the bottleneck processor).
        const auto& owner = balancer_.owner();
        std::set<std::pair<Rank, Rank>> pairs;
        for (std::size_t v = 0; v < owner.size(); ++v) {
          if (new_owner[v] == owner[v]) continue;
          rep.elements_migrated += move_w[v];
          pairs.insert({owner[v], new_owner[v]});
        }
        return static_cast<std::int64_t>(opt_.machine.words_per_element) *
                   rep.elements_migrated * 8 +
               std::llround(opt_.machine.bytes_per_set *
                            static_cast<double>(pairs.size()));
      });
  log_.gauges(balancer_.dual(), balancer_.owner(), rep.volume);

  // --- 8. subdivision ---------------------------------------------------------
  {
    obs::PhaseScope ph(trace_, "subdivide");
    adaptor_->refine(mem_.host_scratch());
    solver_->rebuild();
    // Subdivision work per processor: its trees' growth under the
    // ownership in force while subdividing (the gate's refine-work
    // arithmetic).
    std::vector<Weight> growth(w.wremap_cur.size());
    for (std::size_t v = 0; v < growth.size(); ++v) {
      growth[v] = w.wremap_pred[v] - w.wremap_cur[v];
    }
    rep.refine_work_per_rank = proc_sums(refine_owner, growth, opt_.nranks);
    ph.set_modeled_seconds(
        mp.t_refine * static_cast<double>(vec_max(rep.refine_work_per_rank)));
  }
  rep.elements_after = mesh_->num_active_elements();

  log_.end(rep, gate, trace_, cycle_timer.seconds());
  return rep;
}

std::vector<CycleReport> Framework::run(int cycles) {
  std::vector<CycleReport> out;
  out.reserve(static_cast<std::size_t>(cycles));
  for (int i = 0; i < cycles; ++i) out.push_back(cycle());
  return out;
}

}  // namespace plum::core
