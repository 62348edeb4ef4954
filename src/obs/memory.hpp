#pragma once
// plum-mem: per-rank, per-phase allocation observability plus the arena
// the hot phase scratch structures allocate from.
//
// Three pieces, one ownership rule:
//
//   MemoryTracker      — per-rank (plus one host row), per-phase counters:
//                        alloc/free count, bytes requested, peak live
//                        bytes. Counters are written through rank-bound
//                        MemTap handles by the claiming worker — the same
//                        rank-indexed-slot rule as rt::StepCounters and
//                        the plum-scope flight recorder — so the counts
//                        are deterministic and byte-identical across
//                        Engine/ParallelEngine, thread counts, and
//                        transports (rank lambdas always run in the
//                        coordinator process). The phase stamp is
//                        host-set/worker-read, fed by TraceRecorder's
//                        begin_phase/end_phase exactly like the flight
//                        recorder's.
//   Arena              — a chunked bump allocator for per-cycle scratch.
//                        reset() rewinds every chunk for reuse (frees only
//                        oversized dedicated blocks), so steady-state
//                        cycles perform zero scratch heap traffic. One
//                        arena per rank row inside the tracker: a shared
//                        bump pointer would race under ParallelEngine.
//   TrackingAllocator  — a std-allocator adapter carrying {Arena*, MemTap}
//                        (a MemScratch). Counts every allocate/deallocate
//                        through the tap and serves memory from the arena
//                        when one is bound, from operator new otherwise.
//
// What the deterministic counters exclude, by design: the arena's own
// chunk allocations (operator new traffic that depends on reuse history),
// and every RSS gauge (util::read_rss) — those are wall-class observables
// and only appear in wall-clock views.
//
// This header is deliberately link-light: everything the hot subsystems
// (partition, adapt, pmesh) touch is defined inline, so they can allocate
// through a MemScratch without linking plum_obs. The run entry's "heap"
// section is folded by obs::run_entry; only its validator
// (validate_heap_section) and rss_json live in memory.cpp.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <string>
#include <type_traits>
#include <vector>

#include "util/types.hpp"

namespace plum::obs {

class Json;
class MemoryTracker;

/// Allocation counters for one (rank row, phase) cell.
struct MemStats {
  std::int64_t allocs = 0;           ///< allocate() calls
  std::int64_t frees = 0;            ///< deallocate() calls
  std::int64_t bytes_requested = 0;  ///< sum of allocate() sizes
  std::int64_t peak_live_bytes = 0;  ///< max(row live bytes) while in phase

  friend bool operator==(const MemStats&, const MemStats&) = default;
};

/// Rank-bound counting handle. Each tap writes only its own row of the
/// tracker, so capturing per-rank taps (MemoryTracker::scratch(r)) in a
/// superstep lambda is rank-safe; sharing one tap across ranks is the
/// shared-accumulator bug plum-lint flags. A default-constructed tap is a
/// no-op, so call sites need no null guards.
class MemTap {
 public:
  MemTap() = default;
  MemTap(MemoryTracker* t, int row) : t_(t), row_(row) {}

  inline void on_alloc(std::size_t bytes);
  inline void on_free(std::size_t bytes);

 private:
  MemoryTracker* t_ = nullptr;
  int row_ = -1;
};

/// Chunked bump allocator for phase-local scratch. allocate() never frees;
/// reset() rewinds all chunks for reuse and releases only the oversized
/// dedicated blocks. Owned by a MemoryTracker row (or a bench fixture) and
/// reset by the framework at the top of each cycle.
class Arena {
 public:
  static constexpr std::size_t kDefaultChunkBytes = std::size_t{1} << 20;

  explicit Arena(std::size_t chunk_bytes = kDefaultChunkBytes)
      : chunk_bytes_(chunk_bytes == 0 ? kDefaultChunkBytes : chunk_bytes) {}
  ~Arena() { release_all(); }
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Bump-allocates `bytes` aligned to `align`. Requests larger than the
  /// chunk size (or over-aligned beyond max_align_t) get a dedicated block
  /// that reset() frees.
  void* allocate(std::size_t bytes, std::size_t align) {
    if (bytes == 0) bytes = 1;
    live_bytes_ += static_cast<std::int64_t>(bytes);
    if (live_bytes_ > peak_live_bytes_) peak_live_bytes_ = live_bytes_;
    if (bytes > chunk_bytes_ || align > alignof(std::max_align_t)) {
      return allocate_oversized(bytes, align);
    }
    for (;;) {
      if (cursor_ < chunks_.size()) {
        Chunk& c = chunks_[cursor_];
        const std::size_t aligned = align_up(c.used, align);
        if (aligned + bytes <= c.size) {
          c.used = aligned + bytes;
          return c.data + aligned;
        }
        ++cursor_;
        continue;
      }
      chunks_.push_back(Chunk{
          static_cast<std::byte*>(::operator new(chunk_bytes_)),
          chunk_bytes_, 0});
    }
  }

  /// Rewinds every chunk (memory is reused, not freed) and releases the
  /// oversized dedicated blocks. Live accounting returns to zero; the peak
  /// survives so a cycle-spanning high-water mark stays observable.
  void reset() {
    for (Chunk& c : chunks_) c.used = 0;
    cursor_ = 0;
    free_oversized();
    live_bytes_ = 0;
  }

  [[nodiscard]] std::int64_t live_bytes() const { return live_bytes_; }
  [[nodiscard]] std::int64_t peak_live_bytes() const {
    return peak_live_bytes_;
  }
  /// Bytes of chunk capacity currently held (reused across resets).
  [[nodiscard]] std::int64_t reserved_bytes() const {
    return static_cast<std::int64_t>(chunks_.size() * chunk_bytes_);
  }
  [[nodiscard]] std::size_t chunk_count() const { return chunks_.size(); }
  [[nodiscard]] std::size_t oversized_count() const {
    return oversized_.size();
  }
  [[nodiscard]] std::size_t chunk_bytes() const { return chunk_bytes_; }

 private:
  struct Chunk {
    std::byte* data = nullptr;
    std::size_t size = 0;
    std::size_t used = 0;
  };
  struct Oversized {
    void* data = nullptr;
    std::size_t align = 0;
  };

  static std::size_t align_up(std::size_t v, std::size_t align) {
    return (v + align - 1) & ~(align - 1);
  }

  void* allocate_oversized(std::size_t bytes, std::size_t align) {
    const std::size_t a =
        align > alignof(std::max_align_t) ? align : alignof(std::max_align_t);
    void* p = ::operator new(bytes, std::align_val_t(a));
    oversized_.push_back(Oversized{p, a});
    return p;
  }

  void free_oversized() {
    for (const Oversized& o : oversized_) {
      ::operator delete(o.data, std::align_val_t(o.align));
    }
    oversized_.clear();
  }

  void release_all() {
    for (const Chunk& c : chunks_) ::operator delete(c.data);
    chunks_.clear();
    free_oversized();
  }

  std::size_t chunk_bytes_;
  std::vector<Chunk> chunks_;
  std::size_t cursor_ = 0;  ///< first chunk with room
  std::vector<Oversized> oversized_;
  std::int64_t live_bytes_ = 0;
  std::int64_t peak_live_bytes_ = 0;
};

/// What a hot-phase call site receives: the arena to allocate from and the
/// tap that attributes the traffic. Default-constructed (both empty) means
/// "plain heap, uncounted" — every converted subsystem accepts a MemScratch
/// defaulting to {} so standalone callers need no tracker.
struct MemScratch {
  Arena* arena = nullptr;
  MemTap tap;
};

/// std-allocator adapter over a MemScratch. With an arena bound, memory is
/// bump-allocated and individual deallocations only update the tap (the
/// arena reclaims on reset); without one it forwards to operator new/
/// delete. Either way every call is counted through the tap.
template <class T>
class TrackingAllocator {
 public:
  using value_type = T;
  using propagate_on_container_copy_assignment = std::true_type;
  using propagate_on_container_move_assignment = std::true_type;
  using propagate_on_container_swap = std::true_type;
  using is_always_equal = std::false_type;

  TrackingAllocator() = default;
  explicit TrackingAllocator(MemScratch s) : arena_(s.arena), tap_(s.tap) {}
  template <class U>
  TrackingAllocator(const TrackingAllocator<U>& other)  // NOLINT(runtime/explicit)
      : arena_(other.arena_), tap_(other.tap_) {}

  T* allocate(std::size_t n) {
    const std::size_t bytes = n * sizeof(T);
    tap_.on_alloc(bytes);
    if (arena_ != nullptr) {
      return static_cast<T*>(arena_->allocate(bytes, alignof(T)));
    }
    return static_cast<T*>(::operator new(bytes));
  }

  void deallocate(T* p, std::size_t n) {
    tap_.on_free(n * sizeof(T));
    if (arena_ != nullptr) return;  // reclaimed wholesale by Arena::reset()
    ::operator delete(p);
  }

  /// The bound arena (nullptr = plain heap); public so the cross-type
  /// operator== below can compare sources without befriending every
  /// instantiation.
  [[nodiscard]] Arena* arena_ptr() const { return arena_; }

  /// Allocators are interchangeable iff they draw from the same source
  /// (same arena, or both plain heap). Tap identity is irrelevant for
  /// memory safety — frees are attributed to the freeing row.
  template <class U>
  friend bool operator==(const TrackingAllocator& a,
                         const TrackingAllocator<U>& b) {
    return a.arena_ptr() == b.arena_ptr();
  }
  template <class U>
  friend bool operator!=(const TrackingAllocator& a,
                         const TrackingAllocator<U>& b) {
    return !(a == b);
  }

 private:
  template <class U>
  friend class TrackingAllocator;

  Arena* arena_ = nullptr;
  MemTap tap_;
};

/// The common case: a vector of scratch POD-ish elements.
template <class T>
using TrackedVec = std::vector<T, TrackingAllocator<T>>;

/// Per-rank, per-phase deterministic allocation counters (see the header
/// comment). Rows 0..nranks-1 belong to the ranks (written only by the
/// claiming worker through scratch(r)); row nranks is the host row
/// (serial framework phases: partition, repartition, local subdivision).
class MemoryTracker {
 public:
  explicit MemoryTracker(Rank nranks,
                         std::size_t arena_chunk_bytes = Arena::kDefaultChunkBytes)
      : nranks_(nranks), rows_(static_cast<std::size_t>(nranks) + 1) {
    arenas_.reserve(rows_.size());
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      arenas_.push_back(std::make_unique<Arena>(arena_chunk_bytes));
    }
  }

  [[nodiscard]] Rank nranks() const { return nranks_; }

  /// Rank r's scratch bundle: its arena and its counting tap. Rank-safe to
  /// capture per rank in superstep lambdas (rank-indexed rows/arenas).
  [[nodiscard]] MemScratch scratch(Rank r) {
    return MemScratch{arenas_[static_cast<std::size_t>(r)].get(),
                      MemTap(this, static_cast<int>(r))};
  }
  /// The host row's scratch bundle, for serial framework-side phases.
  [[nodiscard]] MemScratch host_scratch() {
    return MemScratch{arenas_.back().get(),
                      MemTap(this, static_cast<int>(nranks_))};
  }

  /// Rewinds every row's arena (call at the top of each cycle; this is the
  /// scratch-memory contract's "scratch dies with the cycle" edge).
  void reset_arenas() {
    for (auto& a : arenas_) a->reset();
  }
  [[nodiscard]] Arena& arena(Rank r) {
    return *arenas_[static_cast<std::size_t>(r)];
  }
  [[nodiscard]] Arena& host_arena() { return *arenas_.back(); }

  /// Sets the phase id stamped on subsequent counts (interning `name` on
  /// first use). Host-side only, between supersteps — TraceRecorder's
  /// phase scopes drive this once attached via set_memory_tracker();
  /// workers read the current id under the engine's barrier ordering,
  /// exactly like FlightRecorder::set_phase.
  void set_phase(const std::string& name) {
    for (std::size_t i = 0; i < phase_names_.size(); ++i) {
      if (phase_names_[i] == name) {
        current_phase_ = static_cast<std::int32_t>(i);
        return;
      }
    }
    phase_names_.push_back(name);
    current_phase_ = static_cast<std::int32_t>(phase_names_.size() - 1);
  }
  /// Resets the stamp to -1 (counts land in the "unphased" bucket).
  void clear_phase() { current_phase_ = -1; }

  [[nodiscard]] const std::vector<std::string>& phase_names() const {
    return phase_names_;
  }

  /// Stats for one (row, phase) cell; phase -1 reads the unphased bucket.
  [[nodiscard]] MemStats stats(int row, std::int32_t phase) const {
    const RowState& r = rows_[static_cast<std::size_t>(row)];
    if (phase < 0) return r.unphased;
    const auto p = static_cast<std::size_t>(phase);
    return p < r.by_phase.size() ? r.by_phase[p] : MemStats{};
  }
  /// Currently-live tracked bytes for one row (rank r, or nranks for the
  /// host row). Returns to zero when all scratch containers are destroyed
  /// — the steady-state leak check asserts exactly that.
  [[nodiscard]] std::int64_t live_bytes(int row) const {
    return rows_[static_cast<std::size_t>(row)].live_bytes;
  }
  [[nodiscard]] std::int64_t total_live_bytes() const {
    std::int64_t sum = 0;
    for (const RowState& r : rows_) sum += r.live_bytes;
    return sum;
  }

  /// Drops all counters and interned phases (arenas keep their chunks).
  void clear() {
    for (RowState& r : rows_) r = RowState{};
    phase_names_.clear();
    current_phase_ = -1;
  }

 private:
  friend class MemTap;

  struct RowState {
    std::vector<MemStats> by_phase;  ///< indexed by interned phase id
    MemStats unphased;               ///< phase stamp was -1
    std::int64_t live_bytes = 0;
  };

  MemStats& cell(RowState& r) {
    const std::int32_t p = current_phase_;
    if (p < 0) return r.unphased;
    const auto idx = static_cast<std::size_t>(p);
    if (idx >= r.by_phase.size()) r.by_phase.resize(idx + 1);
    return r.by_phase[idx];
  }

  void on_alloc(int row, std::size_t bytes) {
    RowState& r = rows_[static_cast<std::size_t>(row)];
    MemStats& s = cell(r);
    ++s.allocs;
    s.bytes_requested += static_cast<std::int64_t>(bytes);
    r.live_bytes += static_cast<std::int64_t>(bytes);
    if (r.live_bytes > s.peak_live_bytes) s.peak_live_bytes = r.live_bytes;
  }

  void on_free(int row, std::size_t bytes) {
    RowState& r = rows_[static_cast<std::size_t>(row)];
    ++cell(r).frees;
    r.live_bytes -= static_cast<std::int64_t>(bytes);
  }

  Rank nranks_;
  std::int32_t current_phase_ = -1;  ///< host-set, worker-read
  std::vector<std::string> phase_names_;  ///< interned, id = index
  std::vector<RowState> rows_;  ///< ranks 0..P-1 then the host row (dist(P))
  std::vector<std::unique_ptr<Arena>> arenas_;  ///< one per row (dist(P))
};

inline void MemTap::on_alloc(std::size_t bytes) {
  if (t_ != nullptr) t_->on_alloc(row_, bytes);
}
inline void MemTap::on_free(std::size_t bytes) {
  if (t_ != nullptr) t_->on_free(row_, bytes);
}

/// Returns "" when `heap` is a valid run-entry "heap" section (see
/// obs/run_entry.hpp), else a description of the first violation (shared
/// by validate_bench_report and the unit tests).
[[nodiscard]] std::string validate_heap_section(const Json& heap);

/// {"vm_rss_bytes":..,"vm_hwm_bytes":..} from util::read_rss() —
/// wall-class, wall-clock views only.
[[nodiscard]] Json rss_json();

}  // namespace plum::obs
