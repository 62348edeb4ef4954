#include "obs/trace.hpp"

#include "obs/scope.hpp"
#include "util/assert.hpp"

namespace plum::obs {

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
    ph.superstep_s += wall_seconds;
    ph.supersteps += 1;
    ph.compute_units += compute;
    ph.msgs_sent += msgs;
    ph.bytes_sent += bytes;
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
}

void TraceRecorder::set_modeled_seconds(std::size_t idx, double seconds) {
  PLUM_ASSERT(idx < phases_.size());
  phases_[idx].modeled_s = seconds;
}

}  // namespace plum::obs
