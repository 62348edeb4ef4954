#include "core/cycle_log.hpp"

#include "obs/critical_path.hpp"
#include "partition/quality.hpp"
#include "util/assert.hpp"
#include "util/rss.hpp"
#include "util/stats.hpp"

namespace plum::core {

namespace {

/// Wall seconds of the first phase named `name` at index >= `from`; 0 when
/// the cycle did not run it.
double phase_wall(const obs::TraceRecorder& trace, std::size_t from,
                  const char* name) {
  const auto& phases = trace.phases();
  for (std::size_t i = from; i < phases.size(); ++i) {
    if (phases[i].name == name) return phases[i].wall_s;
  }
  return 0.0;
}

}  // namespace

CycleLog::CycleLog(const FrameworkOptions& opt)
    : nranks_(opt.nranks),
      solver_steps_(opt.solver_steps_per_cycle),
      name_(opt.scope_name) {
  sim::CalibrationOptions copt = opt.calibration;
  if (!opt.replay_path.empty()) {
    std::string err;
    const bool loaded = sim::ReplayBook::load(opt.replay_path, &book_, &err);
    PLUM_ASSERT_MSG(loaded, "replay book failed to load");
    replay_ = true;
    copt.enabled = true;
  }
  calib_ = sim::Calibration(opt.machine, copt);
  if (!opt.scope_stream.empty()) {
    stream_ = std::make_unique<obs::ScopeStreamWriter>(opt.scope_stream);
  }
}

void CycleLog::begin(const obs::TraceRecorder& trace) {
  phase_lo_ = trace.phases().size();
}

void CycleLog::gauges(const graph::Csr& dual, const partition::PartVec& owner,
                      const remap::RemapVolume& volume) {
  const auto q = partition::evaluate_quality(dual, owner, nranks_);
  imbalance_ = q.imbalance;
  metrics_.add_sample("imbalance", q.imbalance);
  metrics_.add_sample_int("edge_cut", q.edge_cut);
  for (const auto& [name, value] : remap::volume_fields(volume)) {
    metrics_.add_sample_int(name, value);
  }
}

void CycleLog::end(const CycleReport& rep, obs::GateRecord gate,
                   const std::vector<Index>& solve_elements,
                   obs::TraceRecorder& trace,
                   const obs::MemoryTracker& mem,
                   const std::vector<rt::DepotStats>& depot, double wall_s) {
  if (gate.accepted) {
    gate.drift =
        obs::gate_drift(gate.predicted_move_bytes, gate.measured_move_bytes);
  }
  trace.add_gate_record(gate);
  const auto P = static_cast<std::size_t>(nranks_);
  const auto& steps = trace.supersteps();
  const std::size_t step_lo = step_cursor_;

  // --- close the loop: feed this cycle's telemetry to the calibrator --------
  // Measured wall seconds (always recorded into the replay log): the phase
  // walls plus the per-rank solve decomposition summed from the solve
  // phase's superstep records (none when the solver ran outside the engine).
  const double solve_s = phase_wall(trace, phase_lo_, "solve");
  const double remap_s = phase_wall(trace, phase_lo_, "remap");
  const double subdivide_s = phase_wall(trace, phase_lo_, "subdivide");
  std::vector<double> rank_solve;
  for (std::size_t s = step_lo; s < steps.size(); ++s) {
    if (steps[s].phase != "solve") continue;
    if (rank_solve.empty()) rank_solve.assign(P, 0.0);
    const auto& secs = steps[s].rank_seconds;
    for (std::size_t r = 0; r < secs.size() && r < P; ++r) {
      rank_solve[r] += secs[r];
    }
  }
  if (calib_.options().enabled) {
    sim::CalibrationSample cs;
    cs.cycle = cycle_;
    // Bottleneck work: solver steps x elements on the busiest rank.
    cs.solve_work = static_cast<std::int64_t>(solver_steps_) *
                    vec_max(solve_elements);
    cs.refine_children = vec_max(rep.refine_work_per_rank);
    cs.rank_elements = solve_elements;
    if (!replay_) {
      cs.solve_seconds = solve_s;
      cs.remap_seconds = remap_s;
      cs.subdivide_seconds = subdivide_s;
      cs.rank_solve_seconds = rank_solve;
    } else if (static_cast<std::size_t>(cycle_) < book_.cycles.size()) {
      const sim::ReplayCycle& bc =
          book_.cycles[static_cast<std::size_t>(cycle_)];
      cs.solve_seconds = bc.solve_seconds;
      cs.remap_seconds = bc.remap_seconds;
      cs.subdivide_seconds = bc.subdivide_seconds;
      cs.rank_solve_seconds = bc.rank_solve_seconds;
    }
    // (Past the end of a replay book there is no timing evidence this
    // cycle; the counter-sourced byte fit below still runs.)
    if (rep.accepted) {
      cs.remap_executed = true;
      cs.moved_elems = gate.moved_elems;
      cs.moved_sets = gate.moved_sets;
      cs.predicted_move_bytes = gate.predicted_move_bytes;
      cs.measured_move_bytes = gate.measured_move_bytes;
    }
    calib_.observe(cs);
    // Under replay the calibration document is a pure function of
    // deterministic inputs, so it joins the deterministic trace view and
    // the per-constant gauges; live calibration stays wall-only.
    trace.set_calibration(calib_.to_json(), /*deterministic=*/replay_);
    if (replay_) {
      const sim::MachineParams& cp = calib_.params();
      metrics_.add_sample("calib_t_iter", cp.t_iter);
      metrics_.add_sample("calib_t_refine", cp.t_refine);
      metrics_.add_sample("calib_t_lat", cp.t_lat);
      metrics_.add_sample("calib_t_setup", cp.t_setup);
      metrics_.add_sample("calib_bytes_per_element",
                          calib_.model().move_bytes_per_element());
      metrics_.add_sample("calib_bytes_per_set", cp.bytes_per_set);
      metrics_.add_sample("calib_gate_margin", cp.gate_margin);
      metrics_.add_sample("calib_mean_abs_drift", calib_.mean_abs_drift());
    }
  }
  {
    sim::ReplayCycle rc;
    rc.solve_seconds = solve_s;
    rc.remap_seconds = remap_s;
    rc.subdivide_seconds = subdivide_s;
    rc.rank_solve_seconds = std::move(rank_solve);
    log_.cycles.push_back(std::move(rc));
  }

  // Per-cycle fixed-bound histograms (obs/critical_path.hpp): per-rank
  // step wall seconds + counter-sourced wait fractions for every superstep
  // this cycle ran, plus the wall seconds of every phase that closed.
  obs::record_step_histograms(metrics_, trace, &step_cursor_);
  obs::record_phase_histograms(metrics_, trace, &hist_phase_cursor_);

  // --- pipe-depot telemetry and coordinator RSS gauges ---------------------
  // Depot stats exist only under the pipe transport. They are wall-clock
  // sourced (syscall counts, stall ns), so they fold into wall-marked
  // series and the trace's full view — never the deterministic views the
  // cross-engine byte-identity tests compare.
  if (!depot.empty()) {
    trace.set_depot_telemetry(obs::depot_stats_json(depot));
    rt::DepotStats sum;
    for (const auto& d : depot) {
      sum.frames_in += d.frames_in;
      sum.frames_out += d.frames_out;
      sum.read_calls += d.read_calls;
      sum.write_calls += d.write_calls;
      sum.peak_buffer_bytes =
          std::max(sum.peak_buffer_bytes, d.peak_buffer_bytes);
      sum.stall_ns += d.stall_ns;
      sum.vm_rss_bytes = std::max(sum.vm_rss_bytes, d.vm_rss_bytes);
      sum.vm_hwm_bytes = std::max(sum.vm_hwm_bytes, d.vm_hwm_bytes);
    }
    metrics_.add_wall_sample_int("depot_frames_in", sum.frames_in);
    metrics_.add_wall_sample_int("depot_frames_out", sum.frames_out);
    metrics_.add_wall_sample_int("depot_read_calls", sum.read_calls);
    metrics_.add_wall_sample_int("depot_write_calls", sum.write_calls);
    metrics_.add_wall_sample_int("depot_peak_buffer_bytes",
                                 sum.peak_buffer_bytes);
    metrics_.add_wall_sample_int("depot_stall_ns", sum.stall_ns);
    // Worst depot child's resident set — wall-class, like all depot gauges.
    metrics_.add_wall_sample_int("depot_vm_rss_bytes", sum.vm_rss_bytes);
    metrics_.add_wall_sample_int("depot_vm_hwm_bytes", sum.vm_hwm_bytes);
  }
  const util::RssSample rss = util::read_rss();
  metrics_.add_wall_sample_int("vm_rss_bytes", rss.vm_rss_bytes);
  metrics_.add_wall_sample_int("vm_hwm_bytes", rss.vm_hwm_bytes);

  // --- one plum-scope/1 stream record ----------------------------------------
  if (stream_ != nullptr) {
    // Per-rank busy/wait over this cycle's supersteps, counter-sourced:
    // busy is the rank's compute units, wait is its distance from the
    // step's critical rank (the same decomposition as plum-path).
    std::vector<std::int64_t> busy(P, 0);
    std::vector<std::int64_t> wait(P, 0);
    for (std::size_t s = step_lo; s < steps.size(); ++s) {
      const auto& cs = steps[s].counters;
      std::int64_t step_max = 0;
      for (const auto& c : cs) step_max = std::max(step_max, c.compute_units);
      for (std::size_t r = 0; r < cs.size() && r < P; ++r) {
        busy[r] += cs[r].compute_units;
        wait[r] += step_max - cs[r].compute_units;
      }
    }
    obs::Json rec = obs::Json::object();
    rec.set("schema", obs::Json::str("plum-scope/1"))
        .set("name", obs::Json::str(name_))
        .set("cycle", obs::Json::integer(cycle_))
        .set("supersteps", obs::Json::integer(
                               static_cast<std::int64_t>(steps.size() - step_lo)))
        .set("elements", obs::Json::integer(rep.elements_after))
        .set("imbalance", obs::Json::number(imbalance_))
        .set("wall_s", obs::Json::number(wall_s));
    obs::Json gate_json = obs::Json::object();
    gate_json.set("evaluated", obs::Json::boolean(rep.evaluated_repartition))
        .set("accepted", obs::Json::boolean(rep.accepted));
    rec.set("gate", std::move(gate_json));
    obs::Json ranks = obs::Json::array();
    for (std::size_t r = 0; r < P; ++r) {
      obs::Json rj = obs::Json::object();
      rj.set("rank", obs::Json::integer(static_cast<std::int64_t>(r)))
          .set("busy", obs::Json::integer(busy[r]))
          .set("wait", obs::Json::integer(wait[r]))
          .set("live_bytes",
               obs::Json::integer(mem.live_bytes(static_cast<int>(r))));
      ranks.push(std::move(rj));
    }
    rec.set("ranks", std::move(ranks));
    // Coordinator RSS for plum-top's live memory column (wall-class).
    rec.set("rss", obs::rss_json());
    if (!depot.empty()) rec.set("depot", obs::depot_stats_json(depot));
    stream_->append(rec);
  }
  ++cycle_;
}

}  // namespace plum::core
