#pragma once
// Everything both drivers record about a Fig. 1 cycle once it has run:
// the gate record, the live paper-metric gauges and the plum-scope/1
// stream record. A driver calls gauges() after the gate and end() last;
// the log finds the cycle's supersteps in the driver's TraceRecorder.

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
  /// Opens opt.scope_stream when it is set; a stream it cannot open fails
  /// the run here rather than dropping every record.
  explicit CycleLog(const FrameworkOptions& opt);

  /// Index of the cycle in progress (the number completed so far).
  [[nodiscard]] int cycle() const { return cycle_; }

  /// One sample per series: "edge_cut" of the partition in force after the
  /// gate (under the predicted weights), and the remap::volume_fields()
  /// breakdown (zero when the gate did not fire).
  void gauges(const graph::Csr& dual, const partition::PartVec& owner,
              const remap::RemapVolume& volume);

  /// Closes the cycle: the gate record (with its predicted-vs-measured
  /// drift) and one stream record.
  void end(const CycleReport& rep, obs::GateRecord gate,
           obs::TraceRecorder& trace, double wall_s);

  [[nodiscard]] obs::MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const obs::MetricsRegistry& metrics() const {
    return metrics_;
  }

 private:
  Rank nranks_;
  std::string name_;  ///< stream records' "name"
  obs::MetricsRegistry metrics_;
  std::unique_ptr<obs::ScopeStreamWriter> stream_;  ///< opt.scope_stream
  int cycle_ = 0;
  std::size_t step_cursor_ = 0;  ///< first superstep not yet in a record
};

}  // namespace plum::core
