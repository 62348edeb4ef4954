#include "runtime/engine.hpp"

#include <algorithm>
#include <chrono>
#include <iterator>

#include "util/timer.hpp"

namespace plum::rt {

namespace {

// Per-superstep send/receive conservation: for every receiver q, the sum of
// the senders' comm-cell rows destined to q must equal what actually landed
// in q's queue this step, both in message count and in bytes. Both engines
// check this at the barrier, where `delivered[q]` holds exactly the messages
// posted to q during the step that just finished.
void check_send_receive_conservation(
    const std::vector<StepCounters>& counters,
    const std::vector<std::vector<Message>>& delivered) {
  const std::size_t nranks = delivered.size();
  // plum-scale: host-only -- barrier audit on the coordinating thread, run at every superstep
  std::vector<std::int64_t> claimed_msgs(nranks, 0);
  // plum-scale: host-only -- barrier audit on the coordinating thread, run at every superstep
  std::vector<std::int64_t> claimed_bytes(nranks, 0);
  for (const auto& c : counters) {
    for (const auto& cell : c.sends) {
      claimed_msgs[static_cast<std::size_t>(cell.to)] += cell.msgs;
      claimed_bytes[static_cast<std::size_t>(cell.to)] += cell.bytes;
    }
  }
  for (std::size_t q = 0; q < nranks; ++q) {
    std::int64_t got_bytes = 0;
    for (const auto& m : delivered[q]) {
      got_bytes += static_cast<std::int64_t>(m.bytes.size());
    }
    PLUM_ASSERT_MSG(
        claimed_msgs[q] == static_cast<std::int64_t>(delivered[q].size()),
        "superstep conservation violated: sender rows != receiver msg count");
    PLUM_ASSERT_MSG(
        claimed_bytes[q] == got_bytes,
        "superstep conservation violated: sender rows != receiver bytes");
  }
}

}  // namespace

namespace {

/// The cell for receiver `to` in a sorted sparse row, or nullptr.
const CommMatrixCell* find_cell(const std::vector<CommMatrixCell>& row,
                                Rank to) {
  const auto it = std::lower_bound(
      row.begin(), row.end(), to,
      [](const CommMatrixCell& c, Rank t) { return c.to < t; });
  if (it == row.end() || it->to != to) return nullptr;
  return &*it;
}

}  // namespace

void CommMatrix::resize(Rank n) {
  PLUM_ASSERT(n >= nranks);
  if (n == nranks) return;
  nranks = n;
  // plum-scale: dist(P) -- row headers only; each row holds O(degree) cells, total O(P*degree)
  rows.resize(static_cast<std::size_t>(n));
}

void CommMatrix::accumulate(const std::vector<StepCounters>& counters) {
  const auto n = static_cast<Rank>(counters.size());
  if (n > nranks) resize(n);
  for (std::size_t r = 0; r < counters.size(); ++r) {
    for (const auto& cell : counters[r].sends) {
      auto& row = rows[r];
      const auto it = std::lower_bound(
          row.begin(), row.end(), cell.to,
          [](const CommMatrixCell& c, Rank t) { return c.to < t; });
      if (it != row.end() && it->to == cell.to) {
        it->msgs += cell.msgs;
        it->bytes += cell.bytes;
      } else {
        row.insert(it, CommMatrixCell{cell.to, cell.msgs, cell.bytes});
      }
    }
  }
}

std::int64_t CommMatrix::msgs_at(Rank from, Rank to) const {
  PLUM_ASSERT(from >= 0 && from < nranks && to >= 0 && to < nranks);
  const CommMatrixCell* c = find_cell(rows[static_cast<std::size_t>(from)], to);
  return c ? c->msgs : 0;
}

std::int64_t CommMatrix::bytes_at(Rank from, Rank to) const {
  PLUM_ASSERT(from >= 0 && from < nranks && to >= 0 && to < nranks);
  const CommMatrixCell* c = find_cell(rows[static_cast<std::size_t>(from)], to);
  return c ? c->bytes : 0;
}

std::int64_t CommMatrix::row_bytes(Rank from) const {
  PLUM_ASSERT(from >= 0 && from < nranks);
  std::int64_t sum = 0;
  for (const auto& c : rows[static_cast<std::size_t>(from)]) sum += c.bytes;
  return sum;
}

std::int64_t CommMatrix::col_bytes(Rank to) const {
  PLUM_ASSERT(to >= 0 && to < nranks);
  std::int64_t sum = 0;
  for (const auto& row : rows) {
    if (const CommMatrixCell* c = find_cell(row, to)) sum += c->bytes;
  }
  return sum;
}

std::int64_t CommMatrix::total_msgs() const {
  std::int64_t sum = 0;
  for (const auto& row : rows) {
    for (const auto& c : row) sum += c.msgs;
  }
  return sum;
}

std::int64_t CommMatrix::total_bytes() const {
  std::int64_t sum = 0;
  for (const auto& row : rows) {
    for (const auto& c : row) sum += c.bytes;
  }
  return sum;
}

const std::vector<CommMatrixCell>& CommMatrix::row(Rank from) const {
  PLUM_ASSERT(from >= 0 && from < nranks);
  return rows[static_cast<std::size_t>(from)];
}

std::int64_t CommMatrix::resident_cells() const {
  std::int64_t cells = 0;
  for (const auto& row : rows) cells += static_cast<std::int64_t>(row.size());
  return cells;
}

std::int64_t CommMatrix::resident_bytes() const {
  return resident_cells() * static_cast<std::int64_t>(sizeof(CommMatrixCell)) +
         static_cast<std::int64_t>(rows.size()) *
             static_cast<std::int64_t>(sizeof(std::vector<CommMatrixCell>));
}

std::int64_t Ledger::total_bytes() const {
  std::int64_t sum = 0;
  for (const auto& step : steps) {
    for (const auto& c : step) sum += c.bytes_sent;
  }
  return sum;
}

std::int64_t Ledger::max_rank_compute() const {
  if (steps.empty()) return 0;
  const std::size_t nranks = steps.front().size();
  std::int64_t best = 0;
  for (std::size_t r = 0; r < nranks; ++r) {
    std::int64_t sum = 0;
    for (const auto& step : steps) sum += step[r].compute_units;
    best = std::max(best, sum);
  }
  return best;
}

CommMatrix Ledger::comm_matrix() const {
  CommMatrix m;
  for (const auto& step : steps) m.accumulate(step);
  return m;
}

bool Engine::superstep(const StepFn& fn) {
  // Swap out the queues filled by the previous superstep; sends made during
  // this step land in fresh queues and are only visible next step.
  std::vector<std::vector<Message>> delivering(
      static_cast<std::size_t>(nranks_));
  delivering.swap(pending_);

  const int step = run_step_++;
  std::vector<StepCounters> counters(static_cast<std::size_t>(nranks_));
  std::vector<SendQueue> out_queues(static_cast<std::size_t>(nranks_));
  std::vector<double> rank_seconds;
  if (observer_) rank_seconds.assign(static_cast<std::size_t>(nranks_), 0.0);
  Timer wall;
  bool any_continue = false;
  const bool timed = observer_ != nullptr || scope_sink_ != nullptr;
  for (Rank r = 0; r < nranks_; ++r) {
    const auto ur = static_cast<std::size_t>(r);
    Inbox inbox(std::move(delivering[ur]));
    Outbox outbox(r, nranks_, step, &out_queues[ur], &counters[ur]);
    if (timed) {
      Timer t;
      any_continue |= fn(r, inbox, outbox);
      const double s = t.seconds();
      if (observer_) rank_seconds[ur] = s;
      if (scope_sink_) {
        scope_sink_->record_rank_step(
            step, r, counters[ur], static_cast<std::int64_t>(s * 1e9));
      }
    } else {
      any_continue |= fn(r, inbox, outbox);
    }
  }
  // Superstep barrier: the transport merges the per-sender queues into the
  // next step's inboxes in (sender rank, program order) order.
  transport_->exchange(out_queues, pending_);
  check_send_receive_conservation(counters, pending_);
  if (observer_) {
    observer_->on_superstep(step, counters, rank_seconds, wall.seconds());
  }
  ledger_.steps.push_back(std::move(counters));
  return any_continue;
}

void Engine::run(const StepFn& fn, int max_steps) {
  run_step_ = 0;
  for (int s = 0; s < max_steps; ++s) {
    if (!superstep(fn)) return;
  }
  PLUM_ASSERT_MSG(false, "BSP program did not terminate within max_steps");
}

namespace {

/// A spin-loop hint to the core (it lets an SMT sibling run meanwhile).
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Waits until done(a) holds and returns the value that satisfied it:
/// spins for at most ParallelEngine::kSpinBound, then parks on
/// atomic::wait. Whoever makes done() true must store to `a` and then
/// notify it.
template <typename T, typename Done>
T spin_then_park(const std::atomic<T>& a, Done done) {
  T v = a.load(std::memory_order_acquire);
  if (done(v)) return v;
  const auto deadline =
      std::chrono::steady_clock::now() + ParallelEngine::kSpinBound;
  do {
    cpu_relax();
    v = a.load(std::memory_order_acquire);
    if (done(v)) return v;
  } while (std::chrono::steady_clock::now() < deadline);
  for (;;) {
    a.wait(v, std::memory_order_acquire);
    v = a.load(std::memory_order_acquire);
    if (done(v)) return v;
  }
}

}  // namespace

ParallelEngine::ParallelEngine(Rank nranks, int num_threads,
                               std::unique_ptr<Transport> transport)
    : Engine(nranks, std::move(transport)) {
  int n = num_threads;
  if (n <= 0) {
    n = static_cast<int>(std::thread::hardware_concurrency());
    if (n <= 0) n = 1;
  }
  n = std::min(n, static_cast<int>(nranks));
  // plum-scale: host-only -- the in-process engine's N-1 worker threads, N = min(threads, nranks)
  workers_.reserve(static_cast<std::size_t>(n - 1));
  for (int i = 1; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ParallelEngine::~ParallelEngine() {
  stop_.store(true, std::memory_order_relaxed);
  epoch_.fetch_add(1, std::memory_order_release);  // publishes stop_
  epoch_.notify_all();
  for (auto& w : workers_) w.join();
}

void ParallelEngine::worker_loop() {
  std::uint32_t seen = 0;
  for (;;) {
    seen = spin_then_park(epoch_,
                          [seen](std::uint32_t e) { return e != seen; });
    if (stop_.load(std::memory_order_relaxed)) return;
    run_claimed_ranks();
  }
}

void ParallelEngine::run_claimed_ranks() noexcept {
  // Claim ranks off the shared cursor until the superstep is drained. A
  // late worker of superstep N can claim a rank of superstep N+1 here: the
  // acquire half pairs with superstep()'s release reset, so the new step's
  // fn_/delivering_/... are visible to it. Nothing else is read before a
  // claim succeeds, and every rank is claimed exactly once per superstep.
  Rank claimed = 0;
  for (;;) {
    const Rank r = next_rank_.fetch_add(1, std::memory_order_acq_rel);
    if (r >= nranks_) break;
    const auto ur = static_cast<std::size_t>(r);
    Inbox inbox(std::move((*delivering_)[ur]));
    Outbox outbox(r, nranks_, step_index_, &(*out_queues_)[ur],
                  &(*counters_)[ur]);
    if (rank_seconds_ != nullptr || scope_sink_ != nullptr) {
      Timer t;
      (*want_more_)[ur] = (*fn_)(r, inbox, outbox) ? 1 : 0;
      const double s = t.seconds();
      if (rank_seconds_ != nullptr) (*rank_seconds_)[ur] = s;
      // Rank-safe by the sink contract: this thread claimed rank r, so
      // the sink call may only touch rank-r-owned slots.
      if (scope_sink_ != nullptr) {
        scope_sink_->record_rank_step(step_index_, r, (*counters_)[ur],
                                      static_cast<std::int64_t>(s * 1e9));
      }
    } else {
      (*want_more_)[ur] = (*fn_)(r, inbox, outbox) ? 1 : 0;
    }
    ++claimed;
  }
  if (claimed == 0) return;
  // The release half hands this thread's rank results to superstep(),
  // whose acquire load reads the completed count; only the thread that
  // completes it needs to wake a parked caller.
  if (ranks_done_.fetch_add(claimed, std::memory_order_acq_rel) + claimed ==
      nranks_) {
    ranks_done_.notify_one();
  }
}

bool ParallelEngine::superstep(const StepFn& fn) {
  const int step = run_step_++;
  std::vector<std::vector<Message>> delivering(
      static_cast<std::size_t>(nranks_));
  delivering.swap(pending_);

  std::vector<SendQueue> out_queues(static_cast<std::size_t>(nranks_));
  std::vector<StepCounters> counters(static_cast<std::size_t>(nranks_));
  std::vector<char> want_more(static_cast<std::size_t>(nranks_), 0);
  std::vector<double> rank_seconds;
  if (observer_) rank_seconds.assign(static_cast<std::size_t>(nranks_), 0.0);
  Timer wall;

  // Every rank of the previous superstep has reported, so no thread reads
  // these fields until it claims a rank of this one.
  fn_ = &fn;
  delivering_ = &delivering;
  out_queues_ = &out_queues;
  counters_ = &counters;
  want_more_ = &want_more;
  rank_seconds_ = observer_ ? &rank_seconds : nullptr;
  step_index_ = step;
  ranks_done_.store(0, std::memory_order_relaxed);
  next_rank_.store(0, std::memory_order_release);  // publishes the above
  epoch_.fetch_add(1, std::memory_order_release);
  epoch_.notify_all();
  // The caller is one of the rank threads: it claims ranks like a worker,
  // then waits only for ranks other threads are still running.
  run_claimed_ranks();
  spin_then_park(ranks_done_, [this](Rank done) { return done == nranks_; });

  // Superstep barrier: the transport merges the private per-sender queues
  // into the next step's inboxes in sender-rank order. The sequential
  // engine delivers in exactly this order (ranks run 0..P-1, sends append
  // in program order), so inbox contents are identical between the engines
  // — and, by the transport contract, between transports.
  transport_->exchange(out_queues, pending_);
  check_send_receive_conservation(counters, pending_);
  if (observer_) {
    observer_->on_superstep(step, counters, rank_seconds, wall.seconds());
  }
  ledger_.steps.push_back(std::move(counters));
  bool any_continue = false;
  for (char c : want_more) any_continue |= (c != 0);
  return any_continue;
}

std::unique_ptr<Engine> make_engine(Rank nranks, int threads,
                                    TransportKind transport,
                                    int /*transport_procs*/) {
  std::unique_ptr<Transport> fabric;  // nullptr: the in-process default
  if (transport == TransportKind::kFramed) {
    fabric = std::make_unique<FramedTransport>();
  }
  if (threads == 1) return std::make_unique<Engine>(nranks, std::move(fabric));
  return std::make_unique<ParallelEngine>(nranks, threads, std::move(fabric));
}

std::unique_ptr<Engine> make_engine(Rank nranks, int threads) {
  return make_engine(nranks, threads, TransportKind::kInProc);
}

}  // namespace plum::rt
