#pragma once
// plum-mem: the arenas PLUM's per-cycle scratch allocates from, and the
// check that the scratch dies with its cycle.
//
//   Arena              — a chunked bump allocator for per-cycle scratch.
//                        reset() rewinds every chunk for reuse (frees only
//                        oversized dedicated blocks), so steady-state
//                        cycles perform zero scratch heap traffic. It
//                        counts live bytes: up in allocate(), down in
//                        release().
//   TrackingAllocator  — a std-allocator adapter over an Arena*. With an
//                        arena bound it bump-allocates and hands each
//                        deallocation's bytes back through release(), the
//                        same size it allocated; with none it is plain
//                        operator new/delete.
//   MemoryTracker      — one arena per rank row plus a host row: a shared
//                        bump pointer would race under ParallelEngine, and
//                        rank r's arena is touched only by the worker that
//                        claims rank r. reset_arenas(), called at the top
//                        of every cycle, asserts that every row's live
//                        bytes are back at zero before it rewinds, so a
//                        scratch container that outlives its cycle aborts
//                        the run (with the plum-scope postmortem when one
//                        is installed) instead of reading reused memory.
//
// Header-only: the hot subsystems (partition, adapt, pmesh) allocate
// through an Arena* without linking plum_obs.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

#include "util/assert.hpp"
#include "util/types.hpp"

namespace plum::obs {

/// Chunked bump allocator for phase-local scratch. allocate() never frees;
/// reset() rewinds all chunks for reuse and releases only the oversized
/// dedicated blocks. Owned by a MemoryTracker row (or a bench fixture) and
/// reset by the framework at the top of each cycle. Cache-line aligned:
/// each rank's worker writes its own row's arena on every allocation and
/// deallocation, so two rows must not share a line.
class alignas(64) Arena {
 public:
  static constexpr std::size_t kDefaultChunkBytes = std::size_t{1} << 20;

  explicit Arena(std::size_t chunk_bytes = kDefaultChunkBytes)
      : chunk_bytes_(chunk_bytes == 0 ? kDefaultChunkBytes : chunk_bytes) {}
  ~Arena() { release_all(); }
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Bump-allocates `bytes` aligned to `align` and counts them live.
  /// Requests larger than the chunk size (or over-aligned beyond
  /// max_align_t) get a dedicated block that reset() frees.
  void* allocate(std::size_t bytes, std::size_t align) {
    live_bytes_ += static_cast<std::int64_t>(bytes);
    if (live_bytes_ > peak_live_bytes_) peak_live_bytes_ = live_bytes_;
    if (bytes == 0) bytes = 1;
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

  /// Stops counting `bytes` of an earlier allocate(bytes, ...) as live. The
  /// memory itself stays in its chunk until reset().
  void release(std::size_t bytes) {
    live_bytes_ -= static_cast<std::int64_t>(bytes);
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

/// std-allocator adapter over an Arena*. With an arena bound, memory is
/// bump-allocated and each deallocation only returns its bytes to the
/// arena's live count (the arena reclaims the memory on reset); without
/// one (nullptr, the default) it forwards to operator new/delete.
template <class T>
class TrackingAllocator {
 public:
  using value_type = T;
  using propagate_on_container_copy_assignment = std::true_type;
  using propagate_on_container_move_assignment = std::true_type;
  using propagate_on_container_swap = std::true_type;
  using is_always_equal = std::false_type;

  TrackingAllocator() = default;
  explicit TrackingAllocator(Arena* arena) : arena_(arena) {}
  template <class U>
  TrackingAllocator(const TrackingAllocator<U>& other)  // NOLINT(runtime/explicit)
      : arena_(other.arena()) {}

  T* allocate(std::size_t n) {
    if (arena_ != nullptr) {
      return static_cast<T*>(arena_->allocate(n * sizeof(T), alignof(T)));
    }
    return static_cast<T*>(::operator new(n * sizeof(T)));
  }

  void deallocate(T* p, std::size_t n) {
    if (arena_ != nullptr) {
      arena_->release(n * sizeof(T));
      return;
    }
    ::operator delete(p);
  }

  /// The bound arena (nullptr = plain heap).
  [[nodiscard]] Arena* arena() const { return arena_; }

  /// Allocators are interchangeable iff they draw from the same source
  /// (same arena, or both plain heap).
  template <class U>
  friend bool operator==(const TrackingAllocator& a,
                         const TrackingAllocator<U>& b) {
    return a.arena() == b.arena();
  }
  template <class U>
  friend bool operator!=(const TrackingAllocator& a,
                         const TrackingAllocator<U>& b) {
    return !(a == b);
  }

 private:
  Arena* arena_ = nullptr;
};

/// The common case: a vector of scratch POD-ish elements.
template <class T>
using TrackedVec = std::vector<T, TrackingAllocator<T>>;

/// The per-row scratch arenas (see the header comment). Rows 0..nranks-1
/// belong to the ranks; row nranks is the host row (serial framework
/// phases: partition, repartition, local subdivision).
class MemoryTracker {
 public:
  explicit MemoryTracker(Rank nranks,
                         std::size_t arena_chunk_bytes = Arena::kDefaultChunkBytes)
      : nranks_(nranks) {
    // plum-scale: dist(P) -- one scratch arena per rank row, plus the host's
    arenas_.reserve(static_cast<std::size_t>(nranks) + 1);
    for (Rank r = 0; r <= nranks; ++r) {
      arenas_.push_back(std::make_unique<Arena>(arena_chunk_bytes));
    }
  }

  [[nodiscard]] Rank nranks() const { return nranks_; }

  /// Rank r's arena. Rank-safe to capture per rank in superstep lambdas.
  [[nodiscard]] Arena* scratch(Rank r) {
    return arenas_[static_cast<std::size_t>(r)].get();
  }
  /// The host row's arena, for serial framework-side phases.
  [[nodiscard]] Arena* host_scratch() { return arenas_.back().get(); }

  /// Rewinds every row's arena. Called at the top of each cycle, the edge
  /// where the scratch-memory contract says scratch has died: a row with
  /// live bytes left holds a container that outlived its cycle, and the
  /// run aborts here rather than hand that container's memory out again.
  void reset_arenas() {
    for (const auto& a : arenas_) {
      PLUM_ASSERT_MSG(a->live_bytes() == 0,
                      "plum-mem: a scratch container outlived its cycle's "
                      "arena reset");
    }
    for (auto& a : arenas_) a->reset();
  }

  /// Currently-live scratch bytes for one row (rank r, or nranks for the
  /// host row); zero once every scratch container is destroyed.
  [[nodiscard]] std::int64_t live_bytes(int row) const {
    return arenas_[static_cast<std::size_t>(row)]->live_bytes();
  }
  [[nodiscard]] std::int64_t total_live_bytes() const {
    std::int64_t sum = 0;
    for (const auto& a : arenas_) sum += a->live_bytes();
    return sum;
  }

 private:
  Rank nranks_;
  std::vector<std::unique_ptr<Arena>> arenas_;  ///< ranks, then the host
};

}  // namespace plum::obs
