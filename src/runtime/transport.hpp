#pragma once
// Pluggable message transport for the BSP engines.
//
// The engines own *scheduling* (which thread runs which rank when); a
// Transport owns *delivery*: at every superstep barrier the engine hands it
// the per-sender outboxes and receives the next superstep's inboxes. The
// contract is exactly the determinism contract of engine.hpp, restated at
// the fabric level:
//
//   - queues[s] holds sender s's messages in program order, bucketed by
//     destination in first-send order (sparse: O(distinct destinations),
//     never an O(P) row — see the waLBerla rule below);
//   - exchange() must fill inboxes[q] with every message addressed to q,
//     ordered by sender rank and, within one sender, by program order;
//   - payload bytes must arrive bit-identical.
//
// Any implementation meeting that contract is indistinguishable to rank
// programs, ledgers, traces, and comm matrices — which is what lets the
// cross-transport determinism tests compare serialized bytes.
//
// Implementations:
//   InProcTransport — ranks share one address space; delivery is a move of
//                     the queued Message objects (the fast path, and the
//                     reference semantics everything else must match).
//   FramedTransport — every message is encoded as a length-prefixed frame
//                     (rt::frame) into one sender-rank-major byte stream,
//                     which is then decoded in a fixed cycle of small
//                     chunk sizes, so each barrier splits headers and
//                     coalesces frames the way a socket read would. It is
//                     the wire-format check: a transport that serializes
//                     and re-parses every payload must leave inboxes,
//                     ledgers and traces byte-identical to the move.
//
// Replicated-state rule (Schornbaum & Rüde): no per-rank structure in the
// transport may be O(P) or O(global mesh). Outboxes are sparse destination
// buckets and comm accounting is sparse CommCells (engine.hpp).
// peak_queue_cells() exposes the high-water mark so tests can assert
// O(neighbors) residency.

#include <cstddef>
#include <vector>

#include "runtime/message.hpp"
#include "util/types.hpp"

namespace plum::rt {

enum class TransportKind { kInProc, kFramed };

/// One sender's messages for one destination, in program (send) order.
struct SendBucket {
  Rank to = kNoRank;
  std::vector<Message> msgs;
};

/// One sender's per-superstep outbox: sparse destination buckets in
/// first-send order. This is the O(neighbors) replacement for the old
/// dense per-sender vector<vector<Message>> row (which was O(P) per rank,
/// O(P^2) per superstep — exactly the replicated state the extreme-scale
/// AMR literature forbids).
class SendQueue {
 public:
  void push(Rank to, Message m) {
    for (auto& b : buckets_) {
      if (b.to == to) {
        b.msgs.push_back(std::move(m));
        return;
      }
    }
    buckets_.push_back(SendBucket{to, {}});
    buckets_.back().msgs.push_back(std::move(m));
  }

  [[nodiscard]] const std::vector<SendBucket>& buckets() const {
    return buckets_;
  }
  [[nodiscard]] std::vector<SendBucket>& buckets() { return buckets_; }
  [[nodiscard]] std::size_t num_buckets() const { return buckets_.size(); }
  [[nodiscard]] bool empty() const { return buckets_.empty(); }
  void clear() { buckets_.clear(); }

 private:
  std::vector<SendBucket> buckets_;
};

class Transport {
 public:
  virtual ~Transport() = default;

  /// Superstep barrier: deliver queues[s] into inboxes[q] per the ordering
  /// contract above. Drains the queues. inboxes must arrive sized P with
  /// empty slots.
  virtual void exchange(std::vector<SendQueue>& queues,
                        std::vector<std::vector<Message>>& inboxes) = 0;

  /// High-water mark of total outbox buckets across all senders in one
  /// exchange — the per-superstep resident cell count. For a program whose
  /// ranks each talk to d neighbors this is <= P*d, and the O(neighbors)
  /// audit in test_runtime asserts it stays far below P^2.
  [[nodiscard]] std::size_t peak_queue_cells() const { return peak_cells_; }

 protected:
  /// Called by implementations at the top of exchange().
  void note_queue_usage(const std::vector<SendQueue>& queues) {
    std::size_t cells = 0;
    for (const auto& q : queues) cells += q.num_buckets();
    if (cells > peak_cells_) peak_cells_ = cells;
  }

 private:
  std::size_t peak_cells_ = 0;
};

/// The shared-memory reference transport: delivery is a move.
class InProcTransport final : public Transport {
 public:
  void exchange(std::vector<SendQueue>& queues,
                std::vector<std::vector<Message>>& inboxes) override;
};

/// Encode-then-decode transport: every message crosses the frame codec
/// (see the header comment). Stateless between barriers.
class FramedTransport final : public Transport {
 public:
  void exchange(std::vector<SendQueue>& queues,
                std::vector<std::vector<Message>>& inboxes) override;
};

}  // namespace plum::rt
