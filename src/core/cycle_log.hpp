#pragma once
// Everything both drivers record about a Fig. 1 cycle once it has run:
// the live paper-metric gauges, the cost-model calibrator and its replay
// book, the per-cycle histograms, the coordinator RSS gauges, and the
// plum-scope/1 stream record. A driver calls begin() at the top of
// cycle(), gauges() after the gate and end() last; the log finds the
// cycle's phases and supersteps in the driver's TraceRecorder.

#include <memory>

#include "core/options.hpp"
#include "graph/csr.hpp"
#include "obs/gate_audit.hpp"
#include "obs/metrics.hpp"
#include "obs/scope.hpp"
#include "obs/trace.hpp"
#include "partition/quality.hpp"

namespace plum::core {

class CycleLog {
 public:
  /// Seeds the calibrator with opt.machine; a non-empty opt.replay_path
  /// loads that timing book and implies calibration.enabled.
  explicit CycleLog(const FrameworkOptions& opt);

  /// Index of the cycle in progress (the number completed so far).
  [[nodiscard]] int cycle() const { return cycle_; }
  /// The cost model this cycle prices with (the static opt.machine while
  /// calibration is disabled).
  [[nodiscard]] sim::CostModel model() const { return calib_.model(); }
  /// Per-rank Wcomp blend factors (empty unless blending is on).
  [[nodiscard]] const std::vector<double>& weight_scale() const {
    return calib_.rank_weight_scale();
  }

  void begin(const obs::TraceRecorder& trace);

  /// One sample per series: "imbalance" and "edge_cut" of the partition in
  /// force after the gate (under the predicted weights), and the
  /// remap::volume_fields() breakdown (zero when the gate did not fire).
  void gauges(const graph::Csr& dual, const partition::PartVec& owner,
              const remap::RemapVolume& volume);

  /// Closes the cycle: the gate record (with its predicted-vs-measured
  /// drift), the calibration sample (work from `solve_elements`, the
  /// per-rank elements during the solve; seconds from the replay book or
  /// the phase walls) and calibration gauges, the replay-log entry, the
  /// step/phase histograms, RSS gauges, and one stream record.
  void end(const CycleReport& rep, obs::GateRecord gate,
           const std::vector<Index>& solve_elements, obs::TraceRecorder& trace,
           const obs::MemoryTracker& mem, double wall_s);

  [[nodiscard]] obs::MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const obs::MetricsRegistry& metrics() const {
    return metrics_;
  }
  [[nodiscard]] const sim::Calibration& calibration() const { return calib_; }
  [[nodiscard]] const sim::ReplayBook& replay_log() const { return log_; }

 private:
  Rank nranks_;
  int solver_steps_;
  std::string name_;  ///< stream records' "name"
  sim::Calibration calib_;
  sim::ReplayBook book_;  ///< loaded from replay_path
  bool replay_ = false;
  sim::ReplayBook log_;   ///< measured book recorded this run
  obs::MetricsRegistry metrics_;
  std::unique_ptr<obs::ScopeStreamWriter> stream_;  ///< opt.scope_stream
  int cycle_ = 0;
  double imbalance_ = 0;  ///< the "imbalance" gauge, for the stream record
  std::size_t phase_lo_ = 0;  ///< first trace phase of this cycle
  // First superstep/phase not yet sampled into the histograms (and, for
  // supersteps, not yet folded into a stream record).
  std::size_t step_cursor_ = 0;
  std::size_t hist_phase_cursor_ = 0;
};

}  // namespace plum::core
