#pragma once
// Gate-audit records: one structured entry per repartition-gate evaluation
// (Fig. 1 "gate" phase). Each record keeps the gate's decision inputs —
// predicted imbalance, modeled gain and redistribution cost under the chosen
// sim::CostMetric — and, after an accepted remap has actually migrated data,
// the measured bytes moved. The predicted-vs-measured ratio ("drift") is the
// paper-facing health metric: a cost model whose drift wanders from 0 is
// mispricing remaps and will gate wrongly.
//
// Records are collected by obs::TraceRecorder (add_gate_record) and land in
// both forms of the run entry (obs/run_entry.hpp); every field below is
// modeled or counted, never wall-clock, so cross-engine byte-identity holds.

#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace plum::obs {

struct GateRecord {
  int cycle = 0;            ///< Framework cycle index (0-based)
  bool evaluated = false;   ///< false: imbalance below trigger, gate skipped
  bool accepted = false;    ///< CostModel::accept_remap outcome
  std::string metric;       ///< chosen CostMetric ("TotalV" / "MaxV")
  double imbalance_old = 0;  ///< predicted-weight imbalance before remap
  double imbalance_new = 0;  ///< predicted-weight imbalance after remap
  double gain_s = 0;         ///< modeled computational gain (seconds)
  double cost_s = 0;         ///< modeled redistribution cost (seconds)
  /// The C (elements) and N (message sets) the cost model priced, under the
  /// record's `metric` — the regressors sim::Calibration fits the byte
  /// constants against. 0 on records whose gate never evaluated.
  std::int64_t moved_elems = 0;
  std::int64_t moved_sets = 0;
  std::int64_t predicted_move_bytes = 0;  ///< CostModel::predicted_move_bytes
  std::int64_t measured_move_bytes = 0;   ///< bytes the migration really sent
  /// (measured - predicted) / predicted; 0 when nothing was predicted or the
  /// remap was rejected (nothing measured).
  double drift = 0;

  friend bool operator==(const GateRecord&, const GateRecord&) = default;
};

/// Relative prediction error; 0 when predicted == 0. The zero-predicted
/// case is deliberate policy, not a gap: a gate that priced nothing has no
/// meaningful relative error (measured/0 would be non-finite and would
/// poison every JSON serialization and drift mean downstream), so both
/// (0, 0) and (0, N > 0) report drift 0 — pinned by test_obs.
[[nodiscard]] double gate_drift(std::int64_t predicted_bytes,
                                std::int64_t measured_bytes);

/// One record as an insertion-ordered JSON object (field order is part of
/// the wall-free run entry's byte contract).
[[nodiscard]] Json gate_record_json(const GateRecord& rec);

/// {"gate_audit": [...]} array element list for a whole run.
[[nodiscard]] Json gate_audit_json(const std::vector<GateRecord>& records);

}  // namespace plum::obs
