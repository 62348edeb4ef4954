#pragma once
// Online calibration of the SP2 cost model — the ROADMAP's "close the
// loop" item. The frameworks have been recording predicted-vs-measured
// migration drift (obs::GateRecord) and per-phase timings since the
// plum-meter PRs; sim::Calibration consumes that telemetry, one
// CalibrationSample per Fig. 1 cycle, and re-estimates the machine
// constants the gate prices with:
//
//   t_iter    <- solve seconds / bottleneck solver work
//   t_refine  <- subdivide seconds / bottleneck children created
//   t_lat,
//   t_setup   <- decayed least squares of remap seconds against
//                (words-moved, message-sets) — the §4.5 cost regressors
//   bytes_per_element,
//   bytes_per_set
//             <- decayed least squares of measured migration bytes against
//                (elements, sets); this is the fit that drives gate_drift
//                toward 0
//   gate_margin
//             <- EWMA of the realized measured/predicted cost ratio,
//                clamped; the gate then demands gain > margin * cost, so a
//                model that has been underpricing remaps gates
//                conservatively until its predictions converge
//
// Every update is damped (options.damping) so one noisy cycle cannot whip
// the model, and every estimator falls back to a joint ratio rescale when
// its regressors are degenerate (collinear or single-sample).
//
// Determinism: the byte fits consume counters only, so they are
// deterministic everywhere. The time fits consume seconds, which are
// wall-clock in a live run — real but nondeterministic. Deterministic
// replay (ReplayBook below, FrameworkOptions::replay_path) substitutes a
// recorded plum-replay/1 timing book for the wall clock; under replay every
// calibrated constant is a pure function of deterministic inputs, so
// calibration output is byte-identical across Engine/ParallelEngine and
// thread counts — the same contract plum-lint enforces for traces
// (DESIGN.md).

#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "sim/machine.hpp"
#include "util/types.hpp"

namespace plum::sim {

struct CalibrationOptions {
  /// Master switch; a disabled Calibration never moves off its initial
  /// MachineParams, so the frameworks' default behavior is unchanged.
  bool enabled = false;
  /// Weight of each new estimate in the damped updates (0 < damping <= 1).
  double damping = 0.5;
  bool fit_timings = true;  ///< fit t_iter / t_refine / t_lat / t_setup
  bool fit_bytes = true;    ///< fit bytes_per_element / bytes_per_set
  bool tune_gate_margin = true;
  double min_gate_margin = 0.5;
  double max_gate_margin = 4.0;
  /// Blend measured per-element solve seconds into the Wcomp weights the
  /// partitioner balances (rank_weight_scale below). Off by default: it
  /// changes partitions, not just prices.
  bool blend_measured_weights = false;
  /// Clamp on any per-rank blend factor (and its reciprocal).
  double max_weight_scale = 4.0;
};

/// One Fig. 1 cycle's telemetry, assembled by Framework/DistFramework.
/// Work terms are deterministic counters; seconds come from the replay book
/// (deterministic) or the wall clock (live).
struct CalibrationSample {
  int cycle = 0;
  std::int64_t solve_work = 0;  ///< bottleneck elements x solver iterations
  std::int64_t refine_children = 0;  ///< bottleneck children created
  double solve_seconds = 0;
  double remap_seconds = 0;
  double subdivide_seconds = 0;

  bool remap_executed = false;  ///< gate accepted and migration ran
  std::int64_t moved_elems = 0;  ///< C the gate priced (per its metric)
  std::int64_t moved_sets = 0;   ///< N the gate priced
  std::int64_t predicted_move_bytes = 0;  ///< prediction at decision time
  std::int64_t measured_move_bytes = 0;   ///< bytes the migration sent

  /// Optional per-rank solve decomposition for Wcomp blending
  /// (DistFramework only; both aligned by rank and same length or empty).
  std::vector<double> rank_solve_seconds;
  std::vector<Index> rank_elements;
};

/// Deterministic replay book (plum-replay/1): the per-cycle seconds an
/// instrumented run measured, keyed by cycle order. Feeding a book back via
/// FrameworkOptions::replay_path replaces every wall-clock input of the
/// calibrator, making the whole control loop bit-exact.
struct ReplayCycle {
  double solve_seconds = 0;
  double remap_seconds = 0;
  double subdivide_seconds = 0;
  std::vector<double> rank_solve_seconds;  ///< optional, rank order
};

struct ReplayBook {
  std::vector<ReplayCycle> cycles;

  /// {"schema": "plum-replay/1", "cycles": [...]} (insertion-ordered,
  /// deterministic dump like every obs::Json document).
  [[nodiscard]] obs::Json to_json() const;
  /// Strict structural parse; false + `error` on schema violations.
  static bool parse(const obs::Json& doc, ReplayBook* out,
                    std::string* error);
  static bool load(const std::string& path, ReplayBook* out,
                   std::string* error);
  [[nodiscard]] bool save(const std::string& path) const;
};

class Calibration {
 public:
  Calibration() : Calibration(MachineParams{}, CalibrationOptions{}) {}
  Calibration(MachineParams initial, CalibrationOptions opt);

  /// Feeds one cycle's telemetry. No-op when options().enabled is false.
  void observe(const CalibrationSample& s);

  [[nodiscard]] const CalibrationOptions& options() const { return opt_; }
  /// Current (calibrated) machine constants.
  [[nodiscard]] const MachineParams& params() const { return p_; }
  /// Cost model over the current constants — what the gate should price
  /// with.
  [[nodiscard]] CostModel model() const { return CostModel(p_); }

  [[nodiscard]] int cycles_observed() const { return cycles_; }
  [[nodiscard]] int remap_samples() const { return remaps_; }

  /// Mean |gate_drift| of the remap samples observed so far, each at its
  /// decision-time prediction — the "before calibration" health metric.
  [[nodiscard]] double mean_abs_drift() const;

  /// Bytes the *current* constants predict for (elems, sets) — the same
  /// arithmetic as CostModel::predicted_move_bytes without needing a
  /// RemapVolume.
  [[nodiscard]] std::int64_t predicted_bytes(std::int64_t elems,
                                             std::int64_t sets) const;
  /// |relative error| the current constants would have made on `s` — the
  /// "after calibration" counterpart of mean_abs_drift for one sample.
  [[nodiscard]] double recalibrated_abs_drift(
      const CalibrationSample& s) const;

  /// Per-rank Wcomp multipliers from the measured per-element solve seconds
  /// (EWMA of each rank's per-element seconds relative to the mean, clamped
  /// to [1/max_weight_scale, max_weight_scale]). Empty unless
  /// blend_measured_weights is set and per-rank data has been observed.
  [[nodiscard]] const std::vector<double>& rank_weight_scale() const {
    return weight_scale_;
  }

  /// A bench run's "calibration" section: options summary, sample counts,
  /// the calibrated constants, and drift health. Deterministic dump;
  /// byte-identical across engines whenever the observed samples were.
  [[nodiscard]] obs::Json to_json() const;

 private:
  /// Damped blend toward a fresh estimate: p <- (1-d)*p + d*est.
  [[nodiscard]] double mix(double current, double estimate) const;

  CalibrationOptions opt_;
  MachineParams p_;
  int cycles_ = 0;
  int remaps_ = 0;
  double abs_drift_sum_ = 0;  ///< decision-time |drift| over remap samples

  /// Decayed normal-equation accumulators for a 2-regressor least-squares
  /// fit y ~ k1*x1 + k2*x2 (used for both the byte fit and the
  /// t_lat/t_setup fit).
  struct Lsq2 {
    double a11 = 0, a12 = 0, a22 = 0, b1 = 0, b2 = 0;
    int n = 0;
    void add(double x1, double x2, double y, double decay);
    /// Solves for (k1, k2); false when degenerate (collinear regressors or
    /// fewer than two samples) or a coefficient comes out non-positive.
    [[nodiscard]] bool solve(double* k1, double* k2) const;
  };
  Lsq2 bytes_fit_;
  Lsq2 remap_fit_;

  std::vector<double> weight_scale_;
};

/// Applies per-rank Wcomp blend factors (Calibration::rank_weight_scale)
/// to a predicted weight vector, keyed by each vertex's current owner.
/// Rounded back to integer Weight (min 1) so the partitioner's arithmetic
/// stays exact; an empty factor vector is a no-op.
void blend_weights(std::vector<Weight>& wcomp, const std::vector<Rank>& owner,
                   const std::vector<double>& scale);

}  // namespace plum::sim
