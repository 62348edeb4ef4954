#pragma once
// BSP superstep engines.
//
// Algorithms are written SPMD-style: a superstep function runs once per
// logical rank, reading the messages delivered at the end of the previous
// superstep and posting new ones. Two engines share that contract:
//
//   Engine          — the sequential reference. Ranks execute in order
//                     (rank 0, 1, ..., P-1) on the calling thread.
//   ParallelEngine  — ranks of one superstep execute concurrently on a
//                     persistent std::thread pool.
//
// Message *delivery* is delegated to a pluggable rt::Transport
// (runtime/transport.hpp): the engines fill per-sender sparse outbox
// queues and hand them to the transport at the barrier. InProcTransport
// (the default) moves the queued messages within the address space;
// FramedTransport encodes every payload into length-prefixed frames and
// decodes them back. Both must deliver the identical (sender rank, program
// order) stream, so engine x transport choice never changes ledgers,
// traces, or results.
//
// Determinism contract (both engines): a rank's inbox for superstep s+1
// holds the messages posted during superstep s, ordered by sender rank and,
// within one sender, by posting order. The parallel engine guarantees this
// by giving every sender a private sparse queue (sends never contend) and
// merging the queues in sender-rank order at the superstep barrier.
// Superstep functions must therefore be *rank-safe*: rank r may
// only mutate rank-r-owned state (its inbox/outbox plus any per-rank slot
// of caller state). Under that rule the two engines produce bit-identical
// message streams, StepCounters ledgers, and floating-point results.
//
// Rank-safety is statically enforced: tools/plum-lint scans superstep
// lambdas for unguarded captured-state mutations, rank-0-guarded writes
// (the historical `if (r == 0) ++phase` bug), unordered-container
// iteration on paths that feed sends or sums, and wall-clock/entropy
// calls. It runs as the `plum_lint` ctest and as a CI job; see
// tools/plum-lint/linter.hpp and the README's "Static analysis" section.
//
// Every send and every charge() is recorded per rank per superstep; the
// sim::CostModel converts these ledgers into SP2-style phase times, which
// is how the paper's Figs. 4-6 are reproduced from real executions.

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "runtime/message.hpp"
#include "runtime/transport.hpp"
#include "util/assert.hpp"
#include "util/types.hpp"

namespace plum::rt {

/// Messages delivered to one rank for the current superstep.
class Inbox {
 public:
  explicit Inbox(std::vector<Message> msgs) : msgs_(std::move(msgs)) {}
  [[nodiscard]] const std::vector<Message>& messages() const { return msgs_; }

  /// Messages with a specific tag, in sender-rank order.
  [[nodiscard]] std::vector<const Message*> with_tag(int tag) const {
    std::vector<const Message*> out;
    for (const auto& m : msgs_) {
      if (m.tag == tag) out.push_back(&m);
    }
    return out;
  }

 private:
  std::vector<Message> msgs_;
};

/// One (receiver, tag) cell of a sender's per-superstep communication row.
/// Cells appear in first-send order, which is deterministic because both
/// engines run bit-identical rank programs (see the contract above), so
/// ledgers still compare with plain ==.
struct CommCell {
  Rank to = kNoRank;
  int tag = 0;
  std::int64_t msgs = 0;
  std::int64_t bytes = 0;

  friend bool operator==(const CommCell&, const CommCell&) = default;
};

/// Per-superstep accounting for one rank.
struct StepCounters {
  std::int64_t compute_units = 0;  ///< abstract work units charged
  std::int64_t msgs_sent = 0;
  std::int64_t bytes_sent = 0;
  /// This rank's comm-matrix row for the step, attributed per (receiver,
  /// tag). Only the owning rank appends (inside Outbox::send), so the
  /// accounting is rank-safe by construction; rows are merged at the
  /// barrier like everything else in the ledger.
  std::vector<CommCell> sends;

  void account_send(Rank to, int tag, std::int64_t nbytes) {
    for (auto& c : sends) {
      if (c.to == to && c.tag == tag) {
        c.msgs += 1;
        c.bytes += nbytes;
        return;
      }
    }
    sends.push_back(CommCell{to, tag, 1, nbytes});
  }

  friend bool operator==(const StepCounters&, const StepCounters&) = default;
};

/// Send-side interface handed to the superstep function.
class Outbox {
 public:
  Outbox(Rank self, Rank nranks, int step, SendQueue* queue,
         StepCounters* counters)
      : self_(self),
        nranks_(nranks),
        step_(step),
        queue_(queue),
        counters_(counters) {}

  void send(Rank to, int tag, std::vector<std::byte> bytes) {
    PLUM_ASSERT(to >= 0 && to < nranks_);
    const auto nbytes = static_cast<std::int64_t>(bytes.size());
    counters_->msgs_sent += 1;
    counters_->bytes_sent += nbytes;
    counters_->account_send(to, tag, nbytes);
    queue_->push(to, Message{self_, tag, std::move(bytes)});
  }

  template <typename T>
  void send_vec(Rank to, int tag, const std::vector<T>& items) {
    send(to, tag, pack(items));
  }
  // Allocator-generic overload so arena-backed staging buckets
  // (obs::TrackedVec) send exactly like plain vectors.
  template <typename T, typename Alloc>
  void send_vec(Rank to, int tag, const std::vector<T, Alloc>& items) {
    send(to, tag, pack(items));
  }

  /// Charges abstract local work (e.g. elements touched) to this rank.
  void charge(std::int64_t units) { counters_->compute_units += units; }

  [[nodiscard]] Rank self() const { return self_; }
  [[nodiscard]] Rank nranks() const { return nranks_; }

  /// 0-based superstep index since the enclosing run() began. This replaces
  /// the old "rank 0 increments a captured phase counter" idiom, which
  /// relied on sequential rank order and is a data race under the parallel
  /// engine.
  [[nodiscard]] int step() const { return step_; }

 private:
  Rank self_;
  Rank nranks_;
  int step_;
  SendQueue* queue_;  ///< this sender's sparse outbox for the superstep
  StepCounters* counters_;
};

/// Per-rank in-superstep recording hook (the plum-scope flight-recorder
/// attachment point; see src/obs/scope.hpp). record_rank_step is invoked
/// by whichever worker *claimed* rank r, immediately after the rank's step
/// function returns and before the superstep barrier — unlike
/// SuperstepObserver there is no merge step, so implementations must be
/// rank-safe themselves: a call for rank r may touch only rank-r-owned
/// slots (the rank_seconds_ pattern; per-rank rings qualify, shared
/// accumulators do not). `wall_ns` is the step function's wall time;
/// deterministic views must exclude it, exactly like the observer's
/// rank_seconds.
class RankScopeSink {
 public:
  virtual ~RankScopeSink() = default;
  virtual void record_rank_step(int step, Rank rank,
                                const StepCounters& counters,
                                std::int64_t wall_ns) = 0;
};

/// Superstep-completion hook (the plum-trace attachment point; see
/// src/obs/trace.hpp). Called once per superstep on the coordinating
/// thread at the barrier, after the per-rank counters and per-rank wall
/// times have been merged in rank order — the same pattern as the outbox
/// queues, so observers never see mid-step state and need no locking.
/// `counters[r]` / `rank_seconds[r]` describe rank r's step function;
/// `wall_seconds` is the barrier-to-barrier time of the whole superstep.
/// Everything except the wall times is deterministic across engines.
class SuperstepObserver {
 public:
  virtual ~SuperstepObserver() = default;
  virtual void on_superstep(int step, const std::vector<StepCounters>& counters,
                            const std::vector<double>& rank_seconds,
                            double wall_seconds) = 0;
};

/// One (receiver -> traffic) cell of a sender's comm-matrix row, summed
/// across tags and supersteps. Rows keep cells sorted by receiver rank, so
/// the representation is canonical and == stays a determinism witness.
struct CommMatrixCell {
  Rank to = kNoRank;
  std::int64_t msgs = 0;
  std::int64_t bytes = 0;

  friend bool operator==(const CommMatrixCell&,
                         const CommMatrixCell&) = default;
};

/// Sparse P-by-P communication matrix: rows[from] holds one cell per
/// receiver that `from` actually messaged. Resident accounting state is
/// O(P·degree), not O(P²) — the dense fold happens only at report/JSON
/// time (obs::comm_matrix_json), which is host-side output. Built from
/// StepCounters comm cells, so every invariant of the ledger carries over
/// (sum of all entries == Ledger::total_bytes()).
struct CommMatrix {
  Rank nranks = 0;
  /// One sparse row per sender, cells sorted by receiver rank: one row
  /// header per sender, O(degree) cells per row, O(P*degree) resident.
  std::vector<std::vector<CommMatrixCell>> rows;

  /// Grows the matrix to `n` ranks, preserving existing entries.
  void resize(Rank n);
  /// Adds one superstep's per-rank counters (counters[r] is row r).
  void accumulate(const std::vector<StepCounters>& counters);

  [[nodiscard]] std::int64_t msgs_at(Rank from, Rank to) const;
  [[nodiscard]] std::int64_t bytes_at(Rank from, Rank to) const;
  /// Bytes sent by `from` (row sum) / received by `to` (column sum).
  [[nodiscard]] std::int64_t row_bytes(Rank from) const;
  [[nodiscard]] std::int64_t col_bytes(Rank to) const;
  [[nodiscard]] std::int64_t total_msgs() const;
  [[nodiscard]] std::int64_t total_bytes() const;

  /// Sender `from`'s sparse row (cells sorted by receiver rank).
  [[nodiscard]] const std::vector<CommMatrixCell>& row(Rank from) const;
  /// Resident (from, to) cells — the replicated-state audit hook: a
  /// degree-bounded program must keep this O(P·degree), never O(P²).
  [[nodiscard]] std::int64_t resident_cells() const;
  /// Resident accounting bytes (cells plus per-row headers), the
  /// comm matrix's memory gauge.
  [[nodiscard]] std::int64_t resident_bytes() const;

  friend bool operator==(const CommMatrix&, const CommMatrix&) = default;
};

/// Full ledger of one engine run: counters[step][rank].
struct Ledger {
  std::vector<std::vector<StepCounters>> steps;

  [[nodiscard]] int num_supersteps() const {
    return static_cast<int>(steps.size());
  }
  /// Sum of bytes sent by all ranks over the whole run.
  [[nodiscard]] std::int64_t total_bytes() const;
  /// Max over ranks of total compute units (the bottleneck processor).
  [[nodiscard]] std::int64_t max_rank_compute() const;
  /// Who-sent-what-to-whom over the whole run, summed across tags.
  [[nodiscard]] CommMatrix comm_matrix() const;

  friend bool operator==(const Ledger&, const Ledger&) = default;
};

/// Sequential reference engine (also the base class: ParallelEngine only
/// replaces how the ranks of one superstep are executed).
class Engine {
 public:
  using StepFn = std::function<bool(Rank, const Inbox&, Outbox&)>;

  /// `transport` == nullptr picks the in-process reference transport.
  explicit Engine(Rank nranks, std::unique_ptr<Transport> transport = nullptr)
      : nranks_(nranks),
        transport_(transport ? std::move(transport)
                             : std::make_unique<InProcTransport>()) {
    PLUM_ASSERT(nranks >= 1);
    // plum-scale: dist(P) -- one mailbox head per simulated rank; the engine hosts all P ranks
    pending_.resize(static_cast<std::size_t>(nranks));
  }
  virtual ~Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  [[nodiscard]] Rank nranks() const { return nranks_; }

  /// The delivery fabric (audit hooks, kind introspection).
  [[nodiscard]] Transport& transport() { return *transport_; }
  [[nodiscard]] const Transport& transport() const { return *transport_; }

  /// One superstep: fn(rank, inbox, outbox) -> bool "I want another step".
  /// Returns true while any rank asked to continue (the usual loop driver).
  virtual bool superstep(const StepFn& fn);

  /// Runs supersteps until no rank wants more. `max_steps` guards against
  /// livelock in buggy programs. Outbox::step() restarts at 0 here.
  void run(const StepFn& fn, int max_steps = 1 << 20);

  [[nodiscard]] const Ledger& ledger() const { return ledger_; }
  void reset_ledger() { ledger_.steps.clear(); }

  /// Attaches (or detaches, with nullptr) a per-superstep observer. The
  /// engine does not own it; it must outlive the runs it observes. Per-rank
  /// wall times are only measured while an observer is attached.
  void set_observer(SuperstepObserver* obs) { observer_ = obs; }
  [[nodiscard]] SuperstepObserver* observer() const { return observer_; }

  /// Attaches (or detaches, with nullptr) a per-rank scope sink. The engine
  /// does not own it; it must outlive the runs it records, and it must only
  /// be (re)attached between runs — workers read the pointer inside
  /// supersteps. Per-rank wall times are measured while a sink is attached,
  /// even without an observer.
  void set_scope_sink(RankScopeSink* sink) { scope_sink_ = sink; }
  [[nodiscard]] RankScopeSink* scope_sink() const { return scope_sink_; }

 protected:
  Rank nranks_;
  std::unique_ptr<Transport> transport_;
  std::vector<std::vector<Message>> pending_;  // queued for next superstep
  Ledger ledger_;
  int run_step_ = 0;  // Outbox::step() of the next superstep
  SuperstepObserver* observer_ = nullptr;
  RankScopeSink* scope_sink_ = nullptr;
};

/// Runs the ranks of each superstep concurrently on a persistent thread
/// pool while preserving the sequential engine's semantics bit-for-bit
/// (see the determinism contract above).
class ParallelEngine final : public Engine {
 public:
  /// `num_threads` == 0 picks hardware_concurrency; the pool is never
  /// larger than nranks (extra workers could only idle).
  explicit ParallelEngine(Rank nranks, int num_threads = 0,
                          std::unique_ptr<Transport> transport = nullptr);
  ~ParallelEngine() override;

  bool superstep(const StepFn& fn) override;

  [[nodiscard]] int num_threads() const {
    return static_cast<int>(workers_.size());
  }

 private:
  void worker_loop();

  // Per-superstep shared state, set by superstep() under mu_ before the
  // epoch bump and read by workers after they observe the new epoch.
  const StepFn* fn_ = nullptr;
  std::vector<std::vector<Message>>* delivering_ = nullptr;
  // out_queues_[sender]: each sender writes only its own sparse queue, so
  // sends never contend across threads and resident cells stay
  // O(distinct destinations), not O(P) per rank.
  std::vector<SendQueue>* out_queues_ = nullptr;
  std::vector<StepCounters>* counters_ = nullptr;
  std::vector<char>* want_more_ = nullptr;
  // Per-rank wall seconds for the observer; rank-indexed slots written by
  // whichever worker claims the rank (never contended), read at the barrier.
  // nullptr when no observer is attached.
  std::vector<double>* rank_seconds_ = nullptr;
  int step_index_ = 0;

  // Work-stealing rank cursor; reset with release, claimed with acq_rel.
  std::atomic<Rank> next_rank_{0};
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::uint64_t epoch_ = 0;  // guarded by mu_
  Rank ranks_done_ = 0;      // guarded by mu_
  bool stop_ = false;        // guarded by mu_
  std::vector<std::thread> workers_;
};

/// Engine factory used by options-driven callers: `threads == 1` returns
/// the sequential reference engine, anything else a ParallelEngine
/// (0 = one worker per hardware core). `transport` selects the delivery
/// fabric. `transport_procs` is ignored; it stays only because existing
/// callers still pass it.
std::unique_ptr<Engine> make_engine(Rank nranks, int threads,
                                    TransportKind transport,
                                    int transport_procs = 0);
std::unique_ptr<Engine> make_engine(Rank nranks, int threads);

}  // namespace plum::rt
