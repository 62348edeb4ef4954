#include "replica.hpp"

#include <algorithm>
#include <functional>
#include <limits>

#include "adapt/error_indicator.hpp"
#include "partition/quality.hpp"
#include "pmesh/migrate.hpp"
#include "pmesh/parallel_adapt.hpp"
#include "runtime/collectives.hpp"
#include "util/assert.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace plumbench {

using namespace plum;

namespace {

// The two helpers below are DistFramework's own (src/core/dist_framework.cpp).

std::vector<std::vector<double>> rank_errors(
    const pmesh::DistMesh& dm, const pmesh::ParallelEulerSolver& solver) {
  std::vector<std::vector<double>> err(static_cast<std::size_t>(dm.nranks()));
  for (Rank r = 0; r < dm.nranks(); ++r) {
    err[static_cast<std::size_t>(r)] = adapt::edge_error(
        dm.local(r).mesh, solver.density_field(r), 1.0);
  }
  return err;
}

std::vector<std::vector<char>> threshold_marks(
    const pmesh::DistMesh& dm,
    const std::vector<std::vector<double>>& err_per_rank, double threshold) {
  std::vector<std::vector<char>> seeds(static_cast<std::size_t>(dm.nranks()));
  for (Rank r = 0; r < dm.nranks(); ++r) {
    const auto& lm = dm.local(r);
    auto& s = seeds[static_cast<std::size_t>(r)];
    s.assign(static_cast<std::size_t>(lm.mesh.num_edges()), 0);
    const auto& err = err_per_rank[static_cast<std::size_t>(r)];
    for (Index e = 0; e < lm.mesh.num_edges(); ++e) {
      if (!lm.mesh.edge_elements(e).empty() &&
          err[static_cast<std::size_t>(e)] > threshold) {
        s[static_cast<std::size_t>(e)] = 1;
      }
    }
  }
  return seeds;
}

/// Same layout as DistFramework's gathered row, so the gather sends the
/// same bytes.
struct RootW {
  Index groot;
  Weight wcomp_pred;
  Weight wremap_pred;
  Weight wremap_cur;
};

double superstep_seconds(const obs::TraceRecorder& trace, std::size_t from) {
  double s = 0;
  const auto& steps = trace.supersteps();
  for (std::size_t i = from; i < steps.size(); ++i) s += steps[i].wall_s;
  return s;
}

}  // namespace

Replica::Replica(mesh::TetMesh initial_global,
                 const core::FrameworkOptions& opt,
                 const solver::BlastSpec& blast)
    : opt_(opt),
      scope_(opt_.nranks, opt_.scope_ring_capacity),
      mem_(opt_.nranks, opt_.arena_chunk_bytes) {
  PLUM_ASSERT_MSG(opt_.coarsen_fraction == 0 && !opt_.calibration.enabled &&
                      opt_.replay_path.empty(),
                  "the replica covers the no-coarsening, uncalibrated cycle");
  eng_ = rt::make_engine(opt_.nranks, opt_.threads, opt_.transport,
                         opt_.transport_procs);
  eng_->set_observer(&trace_);
  eng_->set_scope_sink(&scope_);
  trace_.set_flight_recorder(&scope_);
  trace_.set_memory_tracker(&mem_);

  dual_ = initial_global.build_initial_dual();
  partition::MultilevelOptions popt;
  popt.nparts = opt_.nranks;
  popt.seed = opt_.seed;
  popt.scratch = mem_.host_scratch();
  root_part_ = partition::partition(dual_, popt).part;
  mem_.reset_arenas();

  dm_ = std::make_unique<pmesh::DistMesh>(initial_global, root_part_,
                                          opt_.nranks);
  rebind_solver();
  for (Rank r = 0; r < opt_.nranks; ++r) {
    solver::init_blast(dm_->local(r).mesh, solver_->solution(r), blast);
  }
}

void Replica::rebind_solver() {
  solver_ = std::make_unique<pmesh::ParallelEulerSolver>(dm_.get(), eng_.get());
  if (!states_.empty()) {
    for (Rank r = 0; r < opt_.nranks; ++r) {
      auto& dst = solver_->solution(r);
      const auto& src = states_[static_cast<std::size_t>(r)];
      PLUM_ASSERT(dst.size() == src.size());
      dst = src;
    }
  }
}

template <class F>
void Replica::span(Layer layer, TracedCycle& tc, F&& call) {
  const std::size_t step_lo = trace_.supersteps().size();
  const Timer t;
  call();
  Span& s = tc.spans[layer];
  s.wall_s += t.seconds();
  s.superstep_s += superstep_seconds(trace_, step_lo);
}

TracedCycle Replica::cycle() {
  const Rank P = opt_.nranks;
  TracedCycle tc;
  const std::size_t step_lo = trace_.supersteps().size();
  const std::size_t ledger_lo = eng_->ledger().steps.size();
  const Timer cycle_timer;
  mem_.reset_arenas();
  const sim::CostModel cost_model(opt_.machine);

  // --- 1. parallel flow solver
  tc.solve_elements = dm_->total_active_elements();
  span(kSolve, tc, [&] {
    for (int i = 0; i < opt_.solver_steps_per_cycle; ++i) {
      tc.flux_evals += vec_sum(solver_->step().edge_flux_evals);
    }
  });

  // --- 2. error indicator + global marking threshold (host glue)
  auto err = rank_errors(*dm_, *solver_);
  std::vector<std::vector<double>> owned_errs(static_cast<std::size_t>(P));
  for (Rank r = 0; r < P; ++r) {
    const auto& lm = dm_->local(r);
    for (Index e = 0; e < lm.mesh.num_edges(); ++e) {
      if (lm.mesh.edge_elements(e).empty()) continue;
      auto it = lm.shared_edges.find(e);
      if (it != lm.shared_edges.end()) {
        Rank owner = r;
        for (const auto& c : it->second) owner = std::min(owner, c.rank);
        if (owner != r) continue;
      }
      owned_errs[static_cast<std::size_t>(r)].push_back(
          err[static_cast<std::size_t>(r)][static_cast<std::size_t>(e)]);
    }
  }
  const auto gathered = rt::gather(*eng_, owned_errs, 0);
  std::vector<double> all_err;
  for (const auto& v : gathered) {
    all_err.insert(all_err.end(), v.begin(), v.end());
  }
  std::sort(all_err.begin(), all_err.end(), std::greater<>());
  const auto want = static_cast<std::size_t>(
      opt_.refine_fraction * static_cast<double>(all_err.size()));
  const double threshold =
      (want == 0 || all_err.empty())
          ? std::numeric_limits<double>::max()
          : all_err[std::min(want, all_err.size() - 1)];

  // --- 3. parallel marking
  auto seeds = threshold_marks(*dm_, err, threshold);
  pmesh::ParallelMarkResult pm;
  span(kMark, tc,
       [&] { pm = pmesh::parallel_mark(*dm_, *eng_, seeds, &mem_); });
  tc.mark_rounds = pm.comm_rounds;
  tc.marks_exchanged += pm.marks_exchanged;

  // --- 4. predicted weights gathered per global root (host glue)
  std::vector<std::vector<RootW>> rows(static_cast<std::size_t>(P));
  for (Rank r = 0; r < P; ++r) {
    const auto& lm = dm_->local(r);
    const auto cur = lm.mesh.root_weights();
    std::vector<RootW> mine(lm.root_global.size());
    for (std::size_t lr = 0; lr < lm.root_global.size(); ++lr) {
      mine[lr] = {lm.root_global[lr], cur.wcomp[lr], cur.wremap[lr],
                  cur.wremap[lr]};
    }
    const auto& res = pm.per_rank[static_cast<std::size_t>(r)];
    for (Index t = 0; t < lm.mesh.num_elements(); ++t) {
      const auto& el = lm.mesh.element(t);
      if (!el.alive || !el.is_leaf()) continue;
      const int kids = res.children_of(t);
      if (kids <= 1) continue;
      mine[static_cast<std::size_t>(el.root)].wcomp_pred += kids - 1;
      mine[static_cast<std::size_t>(el.root)].wremap_pred += kids;
    }
    rows[static_cast<std::size_t>(r)] = std::move(mine);
  }
  const auto hosted = rt::gather(*eng_, rows, 0);
  const Index nroots = dual_.num_vertices();
  std::vector<Weight> wcomp_pred(static_cast<std::size_t>(nroots), 0);
  std::vector<Weight> wremap_pred(static_cast<std::size_t>(nroots), 0);
  std::vector<Weight> wremap_cur(static_cast<std::size_t>(nroots), 0);
  for (const auto& row : hosted) {
    for (const auto& rw : row) {
      wcomp_pred[static_cast<std::size_t>(rw.groot)] = rw.wcomp_pred;
      wremap_pred[static_cast<std::size_t>(rw.groot)] = rw.wremap_pred;
      wremap_cur[static_cast<std::size_t>(rw.groot)] = rw.wremap_cur;
    }
  }

  // --- 5. balance gate: repartition, reassignment, gain/cost
  std::vector<Weight> loads_old(static_cast<std::size_t>(P), 0);
  for (Index v = 0; v < nroots; ++v) {
    loads_old[static_cast<std::size_t>(root_part_[v])] +=
        wcomp_pred[static_cast<std::size_t>(v)];
  }
  dual_.set_weights(wcomp_pred, wremap_pred);
  if (imbalance(loads_old) > opt_.imbalance_trigger) {
    tc.evaluated = true;
    partition::MultilevelOptions popt;
    popt.nparts = P;
    popt.seed = opt_.seed;
    popt.scratch = mem_.host_scratch();
    partition::MultilevelResult repart;
    span(kPartition, tc, [&] {
      repart = partition::repartition(dual_, root_part_, popt);
    });
    tc.partition_levels = static_cast<int>(repart.levels.size());

    const auto& move_w =
        opt_.remap_before_subdivision ? wremap_cur : wremap_pred;
    remap::Assignment assign;
    span(kRemap, tc, [&] {
      std::vector<std::vector<remap::SimilarityCell>> srows(
          static_cast<std::size_t>(P));
      for (Rank r = 0; r < P; ++r) {
        srows[static_cast<std::size_t>(r)] =
            remap::SimilarityMatrix::build_row_sparse(r, root_part_,
                                                      repart.part, move_w);
      }
      const auto S = remap::SimilarityMatrix::from_sparse_rows(srows, P);
      assign = opt_.mapper == core::MapperKind::kOptimalMwbg
                   ? remap::map_optimal_mwbg(S)
               : opt_.mapper == core::MapperKind::kOptimalBmcm
                   ? remap::map_optimal_bmcm(S)
                   : remap::map_heuristic_greedy(S);
      tc.volume = remap::evaluate_assignment(S, assign);
    });

    std::vector<Weight> loads_new(static_cast<std::size_t>(P), 0);
    partition::PartVec new_part(root_part_.size());
    for (std::size_t v = 0; v < new_part.size(); ++v) {
      new_part[v] =
          assign.part_to_proc[static_cast<std::size_t>(repart.part[v])];
      loads_new[static_cast<std::size_t>(new_part[v])] += wcomp_pred[v];
    }
    std::vector<Weight> ref_old(static_cast<std::size_t>(P), 0);
    std::vector<Weight> ref_new(static_cast<std::size_t>(P), 0);
    for (Index v = 0; v < nroots; ++v) {
      const Weight growth = wremap_pred[static_cast<std::size_t>(v)] -
                            wremap_cur[static_cast<std::size_t>(v)];
      ref_old[static_cast<std::size_t>(root_part_[v])] += growth;
      ref_new[static_cast<std::size_t>(new_part[v])] += growth;
    }

    span(kSim, tc, [&] {
      tc.gain_s = cost_model.computational_gain(
          vec_max(loads_old), vec_max(loads_new), vec_max(ref_old),
          vec_max(ref_new));
      tc.cost_s = cost_model.redistribution_cost(tc.volume, opt_.metric);
      tc.accepted = cost_model.accept_remap(tc.gain_s, tc.cost_s);
    });

    if (tc.accepted) {
      // --- 6. migrate subtrees + solution (remap before subdivision)
      states_.clear();
      for (Rank r = 0; r < P; ++r) states_.push_back(solver_->solution(r));
      pmesh::MigrateStats ms;
      span(kMigrate, tc, [&] {
        ms = pmesh::migrate(*dm_, *eng_, new_part, &states_, &mem_);
      });
      tc.migrate_elems = ms.elements_moved;
      tc.migrate_bytes = vec_sum(ms.bytes_sent);
      root_part_ = new_part;
      span(kRebind, tc, [&] { rebind_solver(); });

      err = rank_errors(*dm_, *solver_);
      seeds = threshold_marks(*dm_, err, threshold);
      span(kMark, tc,
           [&] { pm = pmesh::parallel_mark(*dm_, *eng_, seeds, &mem_); });
      tc.marks_exchanged += pm.marks_exchanged;
    }
  }
  tc.edge_cut = partition::evaluate_quality(dual_, root_part_, P).edge_cut;

  // --- 7. parallel subdivision, interpolating the solution at midpoints
  span(kRefine, tc, [&] {
    for (Rank r = 0; r < P; ++r) {
      dm_->local(r).mesh.on_bisect = [this, r](Index e, Index mid) {
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
    tc.refine_work_imbalance = imbalance(pf.work_per_rank);
    for (Rank r = 0; r < P; ++r) dm_->local(r).mesh.on_bisect = nullptr;
  });
  states_.clear();
  for (Rank r = 0; r < P; ++r) states_.push_back(solver_->solution(r));
  span(kRebind, tc, [&] { rebind_solver(); });

  tc.elements_after = dm_->total_active_elements();
  tc.wall_s = cycle_timer.seconds();
  tc.superstep_s = superstep_seconds(trace_, step_lo);
  tc.comm = ledger_since(eng_->ledger(), ledger_lo);
  return tc;
}

}  // namespace plumbench
