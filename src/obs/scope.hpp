#pragma once
// plum-scope: the always-on flight recorder, live run streaming, and crash
// postmortems.
//
// Three surfaces, all fed from the same cheap primitives:
//
//   FlightRecorder    — a fixed-capacity per-rank ring of POD ScopeEvents,
//                       attached to an engine as a rt::RankScopeSink. The
//                       claiming worker writes rank r's slot inside the
//                       superstep (rank-safe by construction: rings are
//                       rank-indexed, the rank_seconds_ pattern), oldest
//                       events are overwritten, and recording costs a few
//                       ns per event — cheap enough to leave on always.
//                       Wall-clock fields are excluded from
//                       deterministic_json(), so the Engine/ParallelEngine
//                       byte-identity contract survives the recorder.
//   ScopeStreamWriter — an EINTR/short-write-safe NDJSON appender; the
//                       frameworks emit one "plum-scope/1" record per
//                       cycle through it (per-rank busy/wait, gate
//                       verdict, imbalance, RSS), and tools/plum-top
//                       tails the file to render a live per-rank table
//                       of a run in progress.
//   install_postmortem — hooks plum::detail::assert_fail so a failed
//                       PLUM_ASSERT flushes the failing assertion and the
//                       last-N ring events per rank to
//                       POSTMORTEM_<name>.json (schema
//                       "plum-postmortem/1") before aborting.
//
// Rank-safety: the engine is the only writer. The thread that claimed rank
// r calls record_rank_step() for r right after r's step function returns,
// so each ring has one writer per superstep. Superstep lambdas never
// record into a captured recorder (plum-lint's shared-accumulator check
// flags record_event() calls on captured objects).

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "obs/json.hpp"
#include "runtime/engine.hpp"
#include "util/types.hpp"

namespace plum::obs {

/// One flight-recorder entry: what a rank was doing in one superstep.
/// Plain POD so a ring slot write is a few stores, never an allocation.
struct ScopeEvent {
  std::int32_t step = 0;    ///< Outbox::step() index
  std::int32_t phase = -1;  ///< interned phase id (-1 = outside any phase)
  std::int32_t rank = 0;
  std::int64_t ticks = 0;    ///< compute units charged during the step
  std::int64_t wall_ns = 0;  ///< step-fn wall time; deterministic views drop it
};
static_assert(std::is_trivially_copyable_v<ScopeEvent>,
              "ScopeEvent must stay a POD ring slot");

/// Fixed-capacity per-rank binary flight recorder (see the header comment).
class FlightRecorder final : public rt::RankScopeSink {
 public:
  static constexpr int kDefaultCapacity = 256;

  explicit FlightRecorder(Rank nranks, int capacity = kDefaultCapacity);

  // rt::RankScopeSink — called by the claiming worker inside supersteps,
  // immediately after rank `rank`'s step function returns.
  void record_rank_step(int step, Rank rank, const rt::StepCounters& counters,
                        std::int64_t wall_ns) override;

  /// Sets the phase id stamped on subsequently recorded events (interning
  /// `name` on first use). Host-side only: call between supersteps (the
  /// TraceRecorder phase scopes do this automatically once attached via
  /// TraceRecorder::set_flight_recorder); workers read the current id
  /// inside supersteps under the engine's barrier ordering.
  void set_phase(const std::string& name);
  /// Resets the stamp to -1 (outside any phase).
  void clear_phase();

  [[nodiscard]] Rank nranks() const { return nranks_; }
  [[nodiscard]] int capacity() const { return capacity_; }
  /// Total events ever recorded for rank r (>= capacity means the ring
  /// wrapped and oldest events were overwritten).
  [[nodiscard]] std::uint64_t events_recorded(Rank r) const;
  /// Rank r's surviving events, oldest first (at most capacity()).
  [[nodiscard]] std::vector<ScopeEvent> last_events(Rank r) const;
  [[nodiscard]] const std::vector<std::string>& phase_names() const {
    return phase_names_;
  }

  /// {"capacity":..,"nranks":..,"phases":[..],"ranks":[{"rank":r,
  ///  "written":n,"events":[{"step":..,"phase":..,"ticks":..,
  ///  "wall_ns":..},..]},..]} — events oldest first.
  [[nodiscard]] Json to_json() const;
  /// Same minus every wall_ns field. Byte-identical across engines and
  /// thread counts for deterministic workloads (the cross-engine tests
  /// compare this view's dump()).
  [[nodiscard]] Json deterministic_json() const;

 private:
  struct RankRing {
    std::vector<ScopeEvent> slots;  ///< capacity-sized, overwrite-oldest
    std::uint64_t written = 0;
  };

  [[nodiscard]] Json to_json_impl(bool include_wall) const;

  Rank nranks_;
  int capacity_;
  std::int32_t current_phase_ = -1;  ///< host-set, worker-read (see set_phase)
  std::vector<std::string> phase_names_;  ///< interned, id = index
  std::vector<RankRing> rings_;  ///< one ring per rank (dist(P) at the resize)
};

/// EINTR/short-write-safe NDJSON appender for "plum-scope/1" streams. One
/// append() writes one complete line, so a tailing reader (tools/plum-top)
/// never sees a torn record from a single writer.
class ScopeStreamWriter {
 public:
  /// Opens `path` for appending (created if missing). ok() reports failure.
  explicit ScopeStreamWriter(const std::string& path);
  ~ScopeStreamWriter();
  ScopeStreamWriter(const ScopeStreamWriter&) = delete;
  ScopeStreamWriter& operator=(const ScopeStreamWriter&) = delete;

  [[nodiscard]] bool ok() const { return fd_ >= 0; }
  /// Appends record.dump() + '\n'. Returns false on write failure.
  bool append(const Json& record);

 private:
  int fd_ = -1;
};

/// What the postmortem hook flushes when an assertion aborts the run.
/// All pointers are borrowed and must outlive the installation; nulls are
/// allowed (the corresponding section is omitted).
struct PostmortemConfig {
  std::string name;  ///< POSTMORTEM_<name>.json
  const FlightRecorder* recorder = nullptr;
};

/// Installs the process-wide abort hook (plum::detail::set_abort_hook)
/// that writes POSTMORTEM_<name>.json — into $PLUM_BENCH_JSON_DIR, or the
/// working directory — before abort(). A second install replaces the
/// first (one postmortem owner per process; DistFramework installs on
/// construction and uninstalls on destruction).
void install_postmortem(PostmortemConfig cfg);
/// Clears the hook if the config installed with `owner` as its recorder
/// still owns it. Once a later install has taken the hook over, this is a
/// no-op, so destroying an older framework leaves a newer one's
/// postmortem in place.
void uninstall_postmortem(const FlightRecorder* owner);

/// The "plum-postmortem/1" document the hook writes (exposed so tests can
/// validate the builder without aborting).
[[nodiscard]] Json postmortem_json(const PostmortemConfig& cfg,
                                   const char* expr, const char* file,
                                   int line, const char* msg);

/// Returns "" when `doc` is a valid plum-postmortem/1 document, else a
/// description of the first violation (plum-report and the unit tests
/// share this validator).
[[nodiscard]] std::string validate_postmortem(const Json& doc);

/// Returns "" when `line` parses as one valid plum-scope/1 NDJSON record,
/// else a description of the first violation.
[[nodiscard]] std::string validate_scope_record(const Json& doc);

/// Outcome of scanning the tail of a live plum-scope/1 NDJSON stream.
enum class TailStatus {
  kNone,     ///< stream holds no record bytes at all
  kRecord,   ///< *out filled with the latest valid record
  kPartial,  ///< only a torn/partial trailing record so far — skip and retry
};

/// Finds the latest valid record in `text` (the raw bytes of a stream
/// file): newline-terminated lines are scanned backwards and the first one
/// that parses and validates wins. A trailing chunk without a newline — a
/// writer caught mid-append — or a line truncated by a crash yields
/// kPartial instead of an error, so tailing readers (tools/plum-top) skip
/// the torn record and retry on the next poll.
[[nodiscard]] TailStatus latest_stream_record(std::string_view text,
                                              Json* out);

}  // namespace plum::obs
