#pragma once
// plum-path: critical-path and straggler attribution over a recorded trace.
//
// The engine's barrier is where load imbalance turns into lost time: every
// superstep finishes when its slowest ("critical") rank finishes, and every
// other rank idles for the difference. analyze_critical_path() folds a
// TraceRecorder's per-superstep records into that decomposition:
//
//   per superstep : critical rank, per-rank busy vs. wait
//                   (wait = critical rank's value minus own),
//                   imbalance factor (critical / mean)
//   per rank      : total busy, total wait, #steps it was critical
//   per phase     : straggler attribution — which Fig. 1 phase accumulated
//                   the wait, and which rank was most often its straggler
//
// The per-rank value is StepCounters::compute_units, the deterministic
// work proxy every rank charges via Outbox::charge(). It is byte-identical
// across Engine/ParallelEngine, thread counts and transports, so the
// decomposition sits inside the run entry's cross-engine byte-identity
// contract (asserted in test_parallel_engine.cpp).

#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "util/types.hpp"

namespace plum::obs {

/// One superstep's slice of the critical path.
struct StepPath {
  int step = 0;
  std::string phase;       ///< innermost open phase ("" outside any phase)
  Rank critical_rank = 0;  ///< argmax of the per-rank value; ties -> lowest
  double critical = 0;     ///< the critical rank's value
  double busy = 0;         ///< sum of per-rank values
  double wait = 0;         ///< sum over ranks of (critical - own)
  double imbalance = 0;    ///< critical / mean (1.0 when busy == 0)
};

/// One rank's totals across every superstep.
struct RankPath {
  double busy = 0;
  double wait = 0;
  int steps_critical = 0;  ///< supersteps where this rank was critical

  /// wait / (busy + wait); 0 when the rank never ran.
  [[nodiscard]] double wait_fraction() const;
};

/// Straggler attribution for one phase name (supersteps grouped by the
/// innermost phase that was open when they ran).
struct PhasePath {
  std::string name;
  int supersteps = 0;
  double critical = 0;  ///< sum of per-step critical values (the path length)
  double busy = 0;
  double wait = 0;
  Rank worst_rank = kNoRank;  ///< most often critical; ties -> lowest rank
  int worst_rank_steps = 0;   ///< supersteps worst_rank was critical in

  [[nodiscard]] double wait_fraction() const;
};

struct CriticalPathAnalysis {
  std::vector<StepPath> steps;    ///< one per superstep, step order
  std::vector<RankPath> ranks;    ///< rank order
  std::vector<PhasePath> phases;  ///< sorted by phase name
  double critical_total = 0;  ///< sum of per-step critical values
  double busy_total = 0;
  double wait_total = 0;

  [[nodiscard]] double wait_fraction() const;

  /// {totals, "ranks":[...], "phases":[...], "steps":[...]}; no wall-clock
  /// field, so the document joins the wall-free run entry.
  [[nodiscard]] Json to_json() const;
};

/// Decomposes every recorded superstep by its per-rank compute units.
[[nodiscard]] CriticalPathAnalysis analyze_critical_path(
    const TraceRecorder& rec);

}  // namespace plum::obs
