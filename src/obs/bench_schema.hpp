#pragma once
// Schema validator for BENCH_<bench>.json, the one document a bench run
// writes (schema "plum-bench/3"). Shared by plum-report, plum-diff and
// tests/test_obs.cpp so they can never drift apart.
//
// Expected shape:
//   {
//     "schema": "plum-bench/3",
//     "bench":  "<bench name>",
//     "runs": [
//       {
//         "case": "<mesh/workload id>",
//         "P": <int >= 1>,
//         "metrics": { "<name>": <number> | [<number>, ...], ... },
//         "phases": [
//           { "name": "<phase>", "wall_s": <number>,
//             "modeled_s": <number>, "supersteps": <int>, ... }
//         ],
//         "critical_path"*: { "critical_total", "busy_total", "wait_total",
//                             "wait_fraction": <number>,
//                             "ranks"/"phases"/"steps": [...] },
//         "gate_audit"*: [
//           { "cycle": <int >= 0>, "evaluated": <bool>, "accepted": <bool>,
//             "metric": "<CostMetric>", "imbalance_old": <number>,
//             "imbalance_new": <number>, "gain_s": <number>,
//             "cost_s": <number>, "predicted_move_bytes": <int >= 0>,
//             "measured_move_bytes": <int >= 0>, "drift": <number> }, ...
//         ],
//         "comm_by_class"*: { "<tag class>": { "msgs": <int >= 0>,
//                                              "bytes": <int >= 0> }, ... },
//         "comm_matrix"*: { "nranks": <int >= 1>,
//                           "msgs":  [[<int>, ...], ...],   // nranks rows
//                           "bytes": [[<int>, ...], ...] }
//       }, ...
//     ]
//   }
// Starred sections are optional per run: framework runs carry the first
// three through obs::run_entry (obs/run_entry.hpp); benches that model
// phases without running the BSP loop carry none. "phases" may be an empty
// array; every non-starred field above is required. No two runs share a
// (case, P).

#include <string>

#include "obs/json.hpp"

namespace plum::obs {

/// Returns "" when `doc` is a valid plum-bench/3 report; otherwise a
/// human-readable description of the first violation found.
[[nodiscard]] std::string validate_bench_report(const Json& doc);

}  // namespace plum::obs
