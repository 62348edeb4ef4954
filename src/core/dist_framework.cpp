#include "core/dist_framework.hpp"

#include <limits>

#include "adapt/error_indicator.hpp"
#include "pmesh/migrate.hpp"
#include "pmesh/parallel_adapt.hpp"
#include "pmesh/parallel_coarsen.hpp"
#include "runtime/collectives.hpp"
#include "util/assert.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace plum::core {

namespace {

/// Rank r's edge error field from its share of the solution.
std::vector<double> error_field(const pmesh::DistMesh& dm,
                                const pmesh::ParallelEulerSolver& solver,
                                Rank r) {
  return adapt::edge_error(dm.local(r).mesh, solver.density_field(r), 1.0);
}

/// Every active edge's error exactly once, gathered to the host: each rank
/// computes its error field into err[r] inside the gather's first
/// superstep and sends the errors of the edges it owns (lowest SPL rank) —
/// the same gather pattern as the similarity matrix (§4.3). This is the
/// population the shared marking rule (adapt::refine_threshold) counts.
std::vector<double> gather_error_population(
    rt::Engine& eng, const pmesh::DistMesh& dm,
    const pmesh::ParallelEulerSolver& solver,
    std::vector<std::vector<double>>& err) {
  // plum-scale: dist(P) -- each rank's error field, written by that rank's superstep
  err.assign(static_cast<std::size_t>(dm.nranks()), {});
  const auto rows = rt::gather(eng, [&](Rank r, rt::Outbox&) {
    const auto& lm = dm.local(r);
    auto& mine = err[static_cast<std::size_t>(r)];
    mine = error_field(dm, solver, r);
    std::vector<double> owned;
    for (Index e = 0; e < lm.mesh.num_edges(); ++e) {
      if (lm.mesh.edge_elements(e).empty()) continue;
      auto it = lm.shared_edges.find(e);
      if (it != lm.shared_edges.end()) {
        Rank owner = r;
        for (const auto& c : it->second) owner = std::min(owner, c.rank);
        if (owner != r) continue;
      }
      owned.push_back(mine[static_cast<std::size_t>(e)]);
    }
    return owned;
  });
  std::vector<double> all;
  for (const auto& v : rows) all.insert(all.end(), v.begin(), v.end());
  return all;
}

/// The balancer's per-root weights: each rank ships one row per local root
/// (current weights plus the growth of its pending marks) to the host.
RootLoads gather_root_loads(rt::Engine& eng, const pmesh::DistMesh& dm,
                            const pmesh::ParallelMarkResult& pm,
                            Index nroots) {
  struct RootW {
    Index groot;
    Weight wcomp_pred;
    Weight wremap_pred;
    Weight wremap_cur;
  };
  // Each rank builds its row inside the gather's first superstep.
  const auto rows = rt::gather(eng, [&](Rank r, rt::Outbox&) {
    const auto& lm = dm.local(r);
    const auto cur = lm.mesh.root_weights();
    std::vector<RootW> mine(lm.root_global.size());
    for (std::size_t lr = 0; lr < lm.root_global.size(); ++lr) {
      mine[lr] = {lm.root_global[lr], cur.wcomp[lr], cur.wremap[lr],
                  cur.wremap[lr]};
    }
    // Growth from the pending marks.
    const auto& res = pm.per_rank[static_cast<std::size_t>(r)];
    for (Index t = 0; t < lm.mesh.num_elements(); ++t) {
      const auto& el = lm.mesh.element(t);
      if (!el.alive || !el.is_leaf()) continue;
      const int kids = res.children_of(t);
      if (kids <= 1) continue;
      mine[static_cast<std::size_t>(el.root)].wcomp_pred += kids - 1;
      mine[static_cast<std::size_t>(el.root)].wremap_pred += kids;
    }
    return mine;
  });
  const auto n = static_cast<std::size_t>(nroots);
  RootLoads w{std::vector<Weight>(n, 0), std::vector<Weight>(n, 0),
              std::vector<Weight>(n, 0)};
  for (const auto& row : rows) {
    for (const auto& rw : row) {
      const auto v = static_cast<std::size_t>(rw.groot);
      w.wcomp_pred[v] = rw.wcomp_pred;
      w.wremap_pred[v] = rw.wremap_pred;
      w.wremap_cur[v] = rw.wremap_cur;
    }
  }
  return w;
}

}  // namespace

DistFramework::DistFramework(mesh::TetMesh initial_global,
                             FrameworkOptions opt)
    : Driver(initial_global, std::move(opt)),
      scope_(opt_.nranks, opt_.scope_ring_capacity) {
  eng_ = rt::make_engine(opt_.nranks, opt_.threads, opt_.transport,
                         opt_.transport_procs);
  eng_->set_observer(&trace_);
  // plum-scope: the engine feeds the flight recorder one event per rank per
  // superstep; the trace keeps its phase stamp in sync; a failed assert
  // dumps the ring.
  eng_->set_scope_sink(&scope_);
  trace_.set_flight_recorder(&scope_);
  obs::install_postmortem({opt_.scope_name, &scope_});

  dm_ = std::make_unique<pmesh::DistMesh>(initial_global, balancer_.owner(),
                                          opt_.nranks);
  solver_ = std::make_unique<pmesh::ParallelEulerSolver>(dm_.get(), eng_.get());
}

DistFramework::~DistFramework() { obs::uninstall_postmortem(&scope_); }

CycleReport DistFramework::cycle() {
  const Rank P = opt_.nranks;
  const Timer cycle_timer;  // wall_s of the plum-scope stream record
  begin_cycle();
  const sim::MachineParams& mp = opt_.machine;
  CycleReport rep;
  rep.elements_before = dm_->total_active_elements();

  // --- 1. parallel flow solver ------------------------------------------------
  {
    obs::PhaseScope ph(trace_, "solve");
    rep.solver_work = solver_->run(opt_.solver_steps_per_cycle);
    const auto solve_epr = dm_->active_elements_per_rank();
    ph.set_modeled_seconds(mp.t_iter *
                           static_cast<double>(opt_.solver_steps_per_cycle) *
                           static_cast<double>(vec_max(solve_epr)));
  }

  // --- 1b. distributed coarsening phase (Fig. 1) -------------------------------
  std::vector<std::vector<double>> err;  // per rank, filled on the ranks
  if (opt_.coarsen_fraction > 0) {
    obs::PhaseScope ph(trace_, "coarsen");
    const double low = adapt::coarsen_threshold(
        gather_error_population(*eng_, *dm_, *solver_, err),
        opt_.coarsen_fraction);
    if (low > std::numeric_limits<double>::lowest()) {
      // The coarsening itself still gathers the mesh to the host.
      // plum-scale: host-only -- host driver staging of coarsen marks
      std::vector<std::vector<char>> marks(static_cast<std::size_t>(P));
      for (Rank r = 0; r < P; ++r) {
        marks[static_cast<std::size_t>(r)] = adapt::mark_below(
            dm_->local(r).mesh, err[static_cast<std::size_t>(r)], low);
      }
      pmesh::parallel_coarsen(*dm_, *eng_, marks, solver_->states());
      solver_->rebind();
      rep.elements_coarsened =
          rep.elements_before - dm_->total_active_elements();
    }
  }

  // --- 2-3. error indicator, the shared threshold, parallel marking -------------
  // (pm outlives the phase — the remap path re-derives it — so this phase
  // uses the explicit begin/end API rather than a scope.) Each rank builds
  // its seeds inside the marking program's first superstep.
  const std::size_t mark_phase = trace_.begin_phase("mark");
  const double threshold = adapt::refine_threshold(
      gather_error_population(*eng_, *dm_, *solver_, err),
      opt_.refine_fraction);
  auto pm = pmesh::parallel_mark(
      *dm_, *eng_,
      [&](Rank r, rt::Outbox&) {
        return adapt::mark_above(dm_->local(r).mesh,
                                 err[static_cast<std::size_t>(r)], threshold);
      },
      &mem_);
  rep.mark_rounds = pm.comm_rounds;
  trace_.set_modeled_seconds(
      mark_phase, mp.t_mark * static_cast<double>(dm_->total_active_elements()) *
                      static_cast<double>(1 + pm.comm_rounds));
  trace_.end_phase(mark_phase);

  // --- 4-6. predicted weights gathered to the host balancer; an accepted
  //          remap migrates subtrees + solution, before subdivision or (with
  //          remap_before_subdivision off) after it -------------------------
  partition::PartVec remap_after;  // the ownership to move to once subdivided
  obs::GateRecord gate = balancer_.run(
      opt_, log_.cycle(),
      gather_root_loads(*eng_, *dm_, pm, balancer_.dual().num_vertices()),
      trace_, mem_, rep,
      [&](const partition::PartVec& new_owner,
          const std::vector<Weight>& /*move_w*/) -> std::int64_t {
        if (!opt_.remap_before_subdivision) {
          remap_after = new_owner;
          return 0;  // measured below, after subdivision
        }
        obs::PhaseScope ph(trace_, "remap");
        ph.set_modeled_seconds(rep.cost_seconds);
        const auto ms = pmesh::migrate(*dm_, *eng_, new_owner,
                                       solver_->states(), &mem_);
        rep.elements_migrated = ms.elements_moved;
        solver_->rebind();
        // Re-derive the marks on the new distribution (deterministic: same
        // states, same threshold => the same global mark set).
        pm = pmesh::parallel_mark(
            *dm_, *eng_,
            [&](Rank r, rt::Outbox&) {
              return adapt::mark_above(dm_->local(r).mesh,
                                       error_field(*dm_, *solver_, r),
                                       threshold);
            },
            &mem_);
        // Measured data movement: the bytes the migration really packed
        // and sent through the engine.
        return vec_sum(ms.bytes_sent);
      });
  log_.gauges(balancer_.dual(), balancer_.owner(), rep.volume);

  // --- 7. parallel subdivision ---------------------------------------------------
  {
    obs::PhaseScope subdivide(trace_, "subdivide");
    for (Rank r = 0; r < P; ++r) {
      auto& lm = dm_->local(r);
      lm.mesh.on_bisect = [this, r](Index e, Index mid) {
        auto& u = solver_->solution(r);
        const auto& ed = dm_->local(r).mesh.edge(e);
        if (static_cast<std::size_t>(mid) >= u.size()) {
          u.resize(static_cast<std::size_t>(mid) + 1);
        }
        for (int c = 0; c < solver::kNumVars; ++c) {
          u[static_cast<std::size_t>(mid)][c] =
              0.5 * (u[static_cast<std::size_t>(ed.v0)][c] +
                     u[static_cast<std::size_t>(ed.v1)][c]);
        }
      };
    }
    const auto pf = pmesh::parallel_refine(*dm_, *eng_, pm, &mem_);
    rep.refine_work_per_rank.assign(pf.work_per_rank.begin(),
                                    pf.work_per_rank.end());
    subdivide.set_modeled_seconds(
        mp.t_refine * static_cast<double>(vec_max(pf.work_per_rank)));
    for (Rank r = 0; r < P; ++r) dm_->local(r).mesh.on_bisect = nullptr;
  }
  // Rebind with the grown solution arrays, moved first when the remap
  // follows subdivision.
  if (!remap_after.empty()) {
    obs::PhaseScope ph(trace_, "remap");
    ph.set_modeled_seconds(rep.cost_seconds);
    const auto ms = pmesh::migrate(*dm_, *eng_, remap_after,
                                   solver_->states(), &mem_);
    rep.elements_migrated = ms.elements_moved;
    gate.measured_move_bytes = vec_sum(ms.bytes_sent);
  }
  solver_->rebind();
  rep.elements_after = dm_->total_active_elements();

  log_.end(rep, gate, trace_, cycle_timer.seconds());
  return rep;
}

}  // namespace plum::core
