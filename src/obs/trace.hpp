#pragma once
// plum-trace: phase/superstep observability for PLUM runs.
//
// A TraceRecorder attaches to an engine as a rt::SuperstepObserver and
// collects one SuperstepRecord per superstep (per-rank StepCounters and
// wall times, merged in rank order at the barrier — the engine calls the
// observer from the coordinating thread only, so recording needs no
// locking and stays rank-safe under the parallel engine). On top of that,
// the Fig. 1 phases (solve, mark, repartition, reassign, gate, remap,
// subdivide) open named PhaseScopes; each phase captures its wall seconds,
// the modeled SP2 seconds from sim::CostModel, and the superstep/compute/
// message deltas that occurred while it was open — superstep wall seconds
// included, so wall_s - superstep_s is the phase's host-serial time.
//
// The recorder serializes nothing itself: obs::run_entry (obs/run_entry.hpp)
// folds its phases, critical path and gate records into a run's
// BENCH_<bench>.json entry.

#include <cstdint>
#include <string>
#include <vector>

#include "obs/gate_audit.hpp"
#include "runtime/engine.hpp"
#include "util/timer.hpp"
#include "util/types.hpp"

namespace plum::obs {

class FlightRecorder;
class MemoryTracker;

/// One completed (or still open) named phase. `depth` is the nesting level
/// at open time (0 = outermost), so "repartition" nested inside "gate"
/// renders as a child span.
struct PhaseRecord {
  std::string name;
  int depth = 0;
  double t_start_s = 0;   ///< wall offset from the recorder's epoch
  double wall_s = 0;      ///< filled when the phase closes
  double modeled_s = 0;   ///< sim::CostModel seconds (0 when not modeled)
  // Deltas accumulated while the phase was open:
  double superstep_s = 0;  ///< wall seconds of its supersteps (the rest
                           ///< of wall_s is host-serial time)
  int supersteps = 0;
  std::int64_t compute_units = 0;
  std::int64_t msgs_sent = 0;
  std::int64_t bytes_sent = 0;
  bool closed = false;
};

/// One engine superstep as seen at the barrier.
struct SuperstepRecord {
  int step = 0;            ///< Outbox::step() index within the run
  std::string phase;       ///< innermost open phase ("" outside any phase)
  std::vector<rt::StepCounters> counters;  ///< per rank, rank order
  std::vector<double> rank_seconds;        ///< per rank step-fn wall time
  double wall_s = 0;       ///< barrier-to-barrier superstep time
};

class TraceRecorder final : public rt::SuperstepObserver {
 public:
  TraceRecorder() = default;

  // rt::SuperstepObserver — called by the engine at the superstep barrier.
  void on_superstep(int step, const std::vector<rt::StepCounters>& counters,
                    const std::vector<double>& rank_seconds,
                    double wall_seconds) override;

  /// Opens a phase; returns its index (pass to end_phase). Phases nest.
  std::size_t begin_phase(const std::string& name);
  /// Closes the innermost open phase (which must be `idx`).
  void end_phase(std::size_t idx);
  /// Attaches modeled SP2 seconds to a phase (open or closed).
  void set_modeled_seconds(std::size_t idx, double seconds);

  /// Appends one repartition-gate record (see obs/gate_audit.hpp). Called
  /// by Framework/DistFramework from the coordinating thread between
  /// supersteps, never from inside a superstep function.
  void add_gate_record(const GateRecord& rec) { gates_.push_back(rec); }

  /// Attaches (or detaches, with nullptr) a plum-scope flight recorder:
  /// begin_phase/end_phase then keep the recorder's current phase stamp in
  /// sync with the innermost open phase, so ring events carry the Fig. 1
  /// phase they happened in. The recorder is borrowed, not owned.
  void set_flight_recorder(FlightRecorder* rec) { scope_ = rec; }

  /// Inert stub: the plum-mem tracker keeps no per-phase counters, so
  /// there is nothing to feed. plum-bench's replica still calls it; it goes
  /// with the replica (ROADMAP item 1: "Trace the driver, not a replica").
  void set_memory_tracker(MemoryTracker* /*mem*/) {}

  [[nodiscard]] const std::vector<PhaseRecord>& phases() const {
    return phases_;
  }
  [[nodiscard]] const std::vector<SuperstepRecord>& supersteps() const {
    return supersteps_;
  }
  [[nodiscard]] const std::vector<GateRecord>& gate_records() const {
    return gates_;
  }

 private:
  Timer epoch_;  // steady clock; offsets below are relative to this
  std::vector<PhaseRecord> phases_;
  std::vector<std::size_t> open_;  // stack of open phase indices
  std::vector<SuperstepRecord> supersteps_;
  std::vector<GateRecord> gates_;
  FlightRecorder* scope_ = nullptr;  ///< borrowed; phase-stamp feed
};

/// RAII wrapper for TraceRecorder phases:
///
///   { obs::PhaseScope ph(trace, "repartition");
///     ... run the phase ...
///     ph.set_modeled_seconds(cm.partition_seconds(...)); }
class PhaseScope {
 public:
  PhaseScope(TraceRecorder& rec, const std::string& name)
      : rec_(rec), idx_(rec.begin_phase(name)) {}
  ~PhaseScope() { rec_.end_phase(idx_); }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

  void set_modeled_seconds(double seconds) {
    rec_.set_modeled_seconds(idx_, seconds);
  }

 private:
  TraceRecorder& rec_;
  std::size_t idx_;
};

}  // namespace plum::obs
