#pragma once
// What both Fig. 1 drivers are made of besides their mesh, solver and data
// movement: the options, the plum-trace recorder, the plum-mem tracker,
// the cycle log and the balancer — and the accessors over them.

#include <utility>

#include "core/balancer.hpp"
#include "core/cycle_log.hpp"

namespace plum::core {

class Driver {
 public:
  [[nodiscard]] const FrameworkOptions& options() const { return opt_; }
  /// Current processor of each initial-mesh element (dual-graph vertex).
  [[nodiscard]] const partition::PartVec& root_partition() const {
    return balancer_.owner();
  }
  /// Dual graph of the initial mesh, weighted by the last cycle's
  /// predicted loads.
  [[nodiscard]] const graph::Csr& dual() const { return balancer_.dual(); }

  /// plum-trace recorder: every cycle() wraps the Fig. 1 phases in named
  /// scopes (solve, coarsen, mark, gate/repartition/reassign, remap,
  /// subdivide) with wall and sim::CostModel modeled seconds; the
  /// distributed driver's engine adds one SuperstepRecord per superstep.
  [[nodiscard]] obs::TraceRecorder& trace() { return trace_; }
  [[nodiscard]] const obs::TraceRecorder& trace() const { return trace_; }

  /// Live paper-metric gauges, one sample per cycle per series ("imbalance",
  /// "edge_cut", remap_* volume breakdown), plus the per-cycle fixed-bound
  /// histograms "rank_step_seconds" (wall-clock; omitted from the
  /// registry's deterministic view), "rank_wait_fraction" (counter-sourced,
  /// deterministic), and "phase_wall_seconds" (see core::CycleLog and
  /// obs/critical_path.hpp). Host-side only; see obs/metrics.hpp.
  [[nodiscard]] obs::MetricsRegistry& metrics() { return log_.metrics(); }
  [[nodiscard]] const obs::MetricsRegistry& metrics() const {
    return log_.metrics();
  }

  /// plum-mem tracker: per-rank/per-phase allocation counters and the
  /// per-row scratch arenas the hot phases allocate through (HEM match and
  /// KL-FM refine on the host row; mark/migrate/refine staging on the rank
  /// rows, written by the claiming worker). stats(row, phase) is
  /// byte-identical across engines, thread counts and transports;
  /// obs::run_entry folds it into the run's "heap" section.
  [[nodiscard]] obs::MemoryTracker& memory() { return mem_; }
  [[nodiscard]] const obs::MemoryTracker& memory() const { return mem_; }

 protected:
  Driver(const mesh::TetMesh& initial, FrameworkOptions opt)
      : opt_(std::move(opt)),
        mem_(opt_.nranks, opt_.arena_chunk_bytes),
        log_(opt_),
        balancer_(initial, opt_, mem_) {
    // Phase stamps follow the trace scopes.
    trace_.set_memory_tracker(&mem_);
  }

  /// Top of cycle(): phase scratch never outlives a cycle, so rewinding
  /// the arenas here makes steady-state cycles reuse-only (zero chunk
  /// traffic).
  void begin_cycle() { mem_.reset_arenas(); }

  FrameworkOptions opt_;
  obs::TraceRecorder trace_;
  obs::MemoryTracker mem_;
  CycleLog log_;
  Balancer balancer_;
};

}  // namespace plum::core
