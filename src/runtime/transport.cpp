#include "runtime/transport.hpp"

#include <algorithm>
#include <iterator>
#include <span>

#include "runtime/frame.hpp"
#include "util/assert.hpp"

namespace plum::rt {

// --- InProcTransport ----------------------------------------------------------

void InProcTransport::exchange(std::vector<SendQueue>& queues,
                               std::vector<std::vector<Message>>& inboxes) {
  note_queue_usage(queues);
  // Sender-rank-major merge: identical order to the sequential reference
  // engine (ranks run 0..P-1, sends append in program order).
  for (auto& q : queues) {
    for (auto& b : q.buckets()) {
      auto& dst = inboxes[static_cast<std::size_t>(b.to)];
      dst.insert(dst.end(), std::make_move_iterator(b.msgs.begin()),
                 std::make_move_iterator(b.msgs.end()));
    }
    q.clear();
  }
}

// --- FramedTransport ----------------------------------------------------------

namespace {

/// Decoder feed sizes, cycled over the stream: 1 and 7 split headers, 19
/// straddles header/payload boundaries, 4096 coalesces many frames into one
/// feed. Every feed stays bounded because FrameDecoder::next erases from the
/// front of its buffer, which is quadratic on one large feed.
constexpr std::size_t kFeedCycle[] = {1, 7, 19, 4096};

}  // namespace

void FramedTransport::exchange(std::vector<SendQueue>& queues,
                               std::vector<std::vector<Message>>& inboxes) {
  note_queue_usage(queues);
  // One byte stream in sender-rank-major program order: decoding it in
  // order reproduces the in-proc (sender, program) order at every receiver.
  std::vector<std::byte> wire;
  Frame f;
  const auto p = static_cast<Rank>(queues.size());
  for (Rank s = 0; s < p; ++s) {
    for (auto& b : queues[static_cast<std::size_t>(s)].buckets()) {
      for (auto& m : b.msgs) {
        f.from = s;
        f.to = b.to;
        f.tag = m.tag;
        f.payload = std::move(m.bytes);
        encode_frame(f, &wire);
      }
    }
    queues[static_cast<std::size_t>(s)].clear();
  }

  FrameDecoder dec;
  std::size_t pos = 0;
  for (std::size_t k = 0; pos < wire.size(); ++k) {
    const std::size_t n = std::min(kFeedCycle[k % std::size(kFeedCycle)],
                                   wire.size() - pos);
    dec.feed(std::span<const std::byte>(wire.data() + pos, n));
    pos += n;
    while (dec.next(&f)) {
      inboxes[static_cast<std::size_t>(f.to)].push_back(
          Message{f.from, f.tag, std::move(f.payload)});
    }
  }
  PLUM_ASSERT_MSG(!dec.mid_frame(),
                  "framed transport: stream ended inside a frame");
}

}  // namespace plum::rt
