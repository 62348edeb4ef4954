#include "obs/trace.hpp"

#include "obs/critical_path.hpp"
#include "obs/memory.hpp"
#include "obs/scope.hpp"
#include "runtime/collectives.hpp"
#include "util/assert.hpp"

namespace plum::obs {

std::string tag_class_name(int tag) {
  // Keep in sync with the tag conventions of the sending subsystems:
  // pmesh/migrate.cpp (packs) + pmesh/finalize.cpp use tag 0 for bulk
  // payloads, pmesh/parallel_adapt.cpp uses 1..3,
  // solver/parallel_solver.cpp 11/12 and 111 (metric reply), and
  // pmesh/migrate.cpp's SPL directory 21/22.
  if (tag == rt::detail::kCollectiveTag) return "collective";
  if (tag == 0) return "bulk";
  if (tag >= 1 && tag <= 3) return "adapt";
  if (tag == 11 || tag == 12 || tag == 111) return "solver";
  if (tag == 21 || tag == 22) return "directory";
  return "tag" + std::to_string(tag);
}

Json comm_matrix_json(const rt::CommMatrix& m) {
  Json j = Json::object();
  j.set("nranks", Json::integer(m.nranks));
  Json msgs = Json::array();
  Json bytes = Json::array();
  for (Rank from = 0; from < m.nranks; ++from) {
    Json mrow = Json::array();
    Json brow = Json::array();
    for (Rank to = 0; to < m.nranks; ++to) {
      mrow.push(Json::integer(m.msgs_at(from, to)));
      brow.push(Json::integer(m.bytes_at(from, to)));
    }
    msgs.push(std::move(mrow));
    bytes.push(std::move(brow));
  }
  j.set("msgs", std::move(msgs)).set("bytes", std::move(bytes));
  return j;
}

void TraceRecorder::on_superstep(int step,
                                 const std::vector<rt::StepCounters>& counters,
                                 const std::vector<double>& rank_seconds,
                                 double wall_seconds) {
  SuperstepRecord rec;
  rec.step = step;
  if (!open_.empty()) rec.phase = phases_[open_.back()].name;
  rec.counters = counters;
  rec.rank_seconds = rank_seconds;
  rec.wall_s = wall_seconds;
  rec.t_start_s = epoch_.seconds() - wall_seconds;
  supersteps_.push_back(std::move(rec));

  // Charge the step's totals to every open phase (nested phases each see
  // the supersteps that ran while they were open).
  std::int64_t compute = 0, msgs = 0, bytes = 0;
  for (const auto& c : counters) {
    compute += c.compute_units;
    msgs += c.msgs_sent;
    bytes += c.bytes_sent;
  }
  for (const std::size_t idx : open_) {
    PhaseRecord& ph = phases_[idx];
    ph.supersteps += 1;
    ph.compute_units += compute;
    ph.msgs_sent += msgs;
    ph.bytes_sent += bytes;
  }

  // Fold the per-rank comm cells into the run-wide sender-by-receiver
  // matrix and the per-tag-class totals.
  comm_.accumulate(counters);
  for (const auto& c : counters) {
    for (const auto& cell : c.sends) {
      CommTotals& t = by_class_[tag_class_name(cell.tag)];
      t.msgs += cell.msgs;
      t.bytes += cell.bytes;
    }
  }
}

std::size_t TraceRecorder::begin_phase(const std::string& name) {
  PhaseRecord ph;
  ph.name = name;
  ph.depth = static_cast<int>(open_.size());
  ph.t_start_s = epoch_.seconds();
  const std::size_t idx = phases_.size();
  phases_.push_back(std::move(ph));
  open_.push_back(idx);
  if (scope_ != nullptr) scope_->set_phase(name);
  if (mem_ != nullptr) mem_->set_phase(name);
  return idx;
}

void TraceRecorder::end_phase(std::size_t idx) {
  PLUM_ASSERT_MSG(!open_.empty() && open_.back() == idx,
                  "phases must close innermost-first");
  PhaseRecord& ph = phases_[idx];
  ph.wall_s = epoch_.seconds() - ph.t_start_s;
  ph.closed = true;
  open_.pop_back();
  if (scope_ != nullptr) {
    if (open_.empty()) {
      scope_->clear_phase();
    } else {
      scope_->set_phase(phases_[open_.back()].name);
    }
  }
  if (mem_ != nullptr) {
    if (open_.empty()) {
      mem_->clear_phase();
    } else {
      mem_->set_phase(phases_[open_.back()].name);
    }
  }
}

void TraceRecorder::set_modeled_seconds(std::size_t idx, double seconds) {
  PLUM_ASSERT(idx < phases_.size());
  phases_[idx].modeled_s = seconds;
}

void TraceRecorder::clear() {
  phases_.clear();
  open_.clear();
  supersteps_.clear();
  comm_ = rt::CommMatrix{};
  by_class_.clear();
  gates_.clear();
  calibration_ = Json{};
  has_calibration_ = false;
  calibration_deterministic_ = false;
  depot_ = Json{};
  has_depot_ = false;
  epoch_.start();
}

Json TraceRecorder::to_json_impl(bool include_wall) const {
  Json doc = Json::object();
  Json phases = Json::array();
  for (const auto& ph : phases_) {
    Json p = Json::object();
    p.set("name", Json::str(ph.name))
        .set("depth", Json::integer(ph.depth))
        .set("supersteps", Json::integer(ph.supersteps))
        .set("compute_units", Json::integer(ph.compute_units))
        .set("msgs_sent", Json::integer(ph.msgs_sent))
        .set("bytes_sent", Json::integer(ph.bytes_sent))
        .set("modeled_s", Json::number(ph.modeled_s));
    if (include_wall) {
      p.set("t_start_s", Json::number(ph.t_start_s))
          .set("wall_s", Json::number(ph.wall_s));
    }
    phases.push(std::move(p));
  }
  doc.set("phases", std::move(phases));

  Json steps = Json::array();
  for (const auto& st : supersteps_) {
    Json s = Json::object();
    s.set("step", Json::integer(st.step)).set("phase", Json::str(st.phase));
    Json ranks = Json::array();
    for (std::size_t r = 0; r < st.counters.size(); ++r) {
      Json c = Json::object();
      c.set("compute_units", Json::integer(st.counters[r].compute_units))
          .set("msgs_sent", Json::integer(st.counters[r].msgs_sent))
          .set("bytes_sent", Json::integer(st.counters[r].bytes_sent));
      if (include_wall && r < st.rank_seconds.size()) {
        c.set("seconds", Json::number(st.rank_seconds[r]));
      }
      ranks.push(std::move(c));
    }
    s.set("ranks", std::move(ranks));
    if (include_wall) {
      s.set("t_start_s", Json::number(st.t_start_s))
          .set("wall_s", Json::number(st.wall_s));
    }
    steps.push(std::move(s));
  }
  doc.set("supersteps", std::move(steps));

  // Everything below is counted or modeled, never wall-clock, so the three
  // sections appear in both serializations and stay inside the
  // deterministic_json() byte-identity contract.
  doc.set("comm_matrix", comm_matrix_json(comm_));
  // Depot telemetry sits next to the comm matrix but is wall-clock sourced
  // (syscall counts, stall ns), so it stays out of the deterministic view.
  if (has_depot_ && include_wall) doc.set("depot", depot_);
  // plum-heap/1: the per-rank, per-phase allocation counters are
  // deterministic (rank-bound taps, claiming-worker writes) and live in
  // both views; the tracker appends its RSS gauge only when include_wall.
  if (mem_ != nullptr) doc.set("heap", mem_->heap_json(include_wall));
  Json by_class = Json::object();
  for (const auto& [cls, t] : by_class_) {
    Json entry = Json::object();
    entry.set("msgs", Json::integer(t.msgs))
        .set("bytes", Json::integer(t.bytes));
    by_class.set(cls, std::move(entry));
  }
  doc.set("comm_by_class", std::move(by_class));
  doc.set("gate_audit", gate_audit_json(gates_));
  // Present only when a framework attached a calibration document. A
  // deterministic (replayed) calibration belongs to both views; a live
  // wall-clock one is excluded from deterministic_json() like every other
  // wall-sourced field.
  if (has_calibration_ && (include_wall || calibration_deterministic_)) {
    doc.set("calibration", calibration_);
  }

  // plum-path: the counter-sourced decomposition is derived from the same
  // deterministic inputs as the superstep records above, so it lives in
  // both serializations; the wall-clock decomposition (measured per-rank
  // step seconds) only appears in the full view.
  doc.set("critical_path",
          analyze_critical_path(*this, PathSource::kCounters).to_json());
  if (include_wall) {
    doc.set("critical_path_wall",
            analyze_critical_path(*this, PathSource::kWallClock).to_json());
  }
  return doc;
}

Json TraceRecorder::to_json() const { return to_json_impl(true); }

std::string TraceRecorder::deterministic_json() const {
  return to_json_impl(false).dump();
}

}  // namespace plum::obs
