#pragma once
// The run entry: one framework run's record in BENCH_<bench>.json (schema
// plum-bench/3, obs/bench_schema.hpp), the only document a bench run
// writes. run_entry() assembles it from the driver's recorders and, when
// there is one, the engine's ledger:
//
//   {
//     "metrics":       MetricsRegistry::to_json() (scalars and series),
//     "phases":        [{"name", "wall_s"*, "superstep_s"*, "modeled_s",
//                        "supersteps", "depth", "compute_units",
//                        "msgs_sent", "bytes_sent"}, ...]
//                      (TraceRecorder phases; host time = wall - superstep),
//     "critical_path": CriticalPathAnalysis::to_json() (compute units),
//     "gate_audit":    gate_audit_json(trace.gate_records()),
//     "comm_by_class"**: {"<tag class>": {"msgs", "bytes"}, ...}
//   }
//   * wall form only      ** with a ledger only
//
// The wall-free form is byte-identical across engines, thread counts and
// transports for deterministic workloads: it is what the determinism tests
// compare, together with the full ledger and the per-row live scratch
// bytes.

#include <string>

#include "obs/json.hpp"
#include "runtime/engine.hpp"

namespace plum::obs {

class MetricsRegistry;
class TraceRecorder;

/// Builds the entry described above. `ledger` may be null (a driver
/// without an engine); `wall` keeps the wall-clock fields.
[[nodiscard]] Json run_entry(const TraceRecorder& trace,
                             const MetricsRegistry& metrics,
                             const rt::Ledger* ledger, bool wall);

/// Maps a message tag to its subsystem class for comm_by_class. The values
/// mirror the senders' conventions: rt::detail::kCollectiveTag for
/// collectives, tag 0 for bulk element/ghost payloads (pmesh migrate packs
/// + finalize), 1-3 for the parallel adaption handshakes, 11/12/111 for the
/// solver halo exchange, 21/22 for the migration's SPL directory. Unknown
/// tags render as "tag<N>" rather than asserting, so entries from future
/// subsystems stay loadable.
[[nodiscard]] std::string tag_class_name(int tag);

/// {"nranks": P, "msgs": [[...],...], "bytes": [[...],...]} — row-major
/// sender-by-receiver matrices as arrays of row arrays (a bench's
/// "comm_matrix" section).
[[nodiscard]] Json comm_matrix_json(const rt::CommMatrix& m);

}  // namespace plum::obs
