#include "core/cycle_log.hpp"

#include <algorithm>

#include "obs/critical_path.hpp"
#include "partition/quality.hpp"
#include "util/assert.hpp"
#include "util/rss.hpp"

namespace plum::core {

CycleLog::CycleLog(const FrameworkOptions& opt)
    : nranks_(opt.nranks), name_(opt.scope_name) {
  if (!opt.scope_stream.empty()) {
    stream_ = std::make_unique<obs::ScopeStreamWriter>(opt.scope_stream);
    PLUM_ASSERT_MSG(stream_->ok(), "scope stream file cannot be opened");
  }
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
                   obs::TraceRecorder& trace, const obs::MemoryTracker& mem,
                   double wall_s) {
  if (gate.accepted) {
    gate.drift =
        obs::gate_drift(gate.predicted_move_bytes, gate.measured_move_bytes);
  }
  trace.add_gate_record(gate);
  const auto P = static_cast<std::size_t>(nranks_);
  const auto& steps = trace.supersteps();
  const std::size_t step_lo = step_cursor_;

  // Per-cycle fixed-bound histograms (obs/critical_path.hpp): per-rank
  // step wall seconds + counter-sourced wait fractions for every superstep
  // this cycle ran, plus the wall seconds of every phase that closed.
  obs::record_step_histograms(metrics_, trace, &step_cursor_);
  obs::record_phase_histograms(metrics_, trace, &hist_phase_cursor_);

  // --- coordinator RSS gauges (wall-class) ---------------------------------
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
    const bool written = stream_->append(rec);
    PLUM_ASSERT_MSG(written, "scope stream write failed");
  }
  ++cycle_;
}

}  // namespace plum::core
