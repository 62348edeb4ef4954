#pragma once
// Wire format for the framed transport: length-prefixed frames.
//
// Every message that crosses the codec is one frame — a fixed little-endian
// header followed by the payload bytes:
//
//   offset  size  field
//        0     4  magic       (kFrameMagic, catches stream desync)
//        4     4  from        (sender rank)
//        8     4  to          (receiver rank)
//       12     4  tag         (message tag)
//       16     4  payload_len (bytes that follow)
//
// The codec is deliberately stream-oriented: FrameDecoder consumes
// arbitrary chunkings of the byte stream (split headers, coalesced frames,
// one-byte-at-a-time) and re-emits whole frames, the way a socket reader
// would have to. FramedTransport feeds it exactly such chunkings.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/types.hpp"

namespace plum::rt {

inline constexpr std::uint32_t kFrameMagic = 0x504c4d46u;  // "PLMF"
inline constexpr std::size_t kFrameHeaderBytes = 20;

struct Frame {
  Rank from = kNoRank;
  Rank to = kNoRank;
  int tag = 0;
  std::vector<std::byte> payload;

  friend bool operator==(const Frame&, const Frame&) = default;
};

/// Appends the encoded frame (header + payload) to `out`.
void encode_frame(const Frame& f, std::vector<std::byte>* out);

/// Incremental decoder. Feed it arbitrary chunks of the byte stream; poll
/// next() for completed frames. Any header whose magic does not match is a
/// stream-corruption bug and fails hard.
class FrameDecoder {
 public:
  /// Appends a chunk of raw stream bytes.
  void feed(std::span<const std::byte> chunk);

  /// Extracts the next complete frame into *out. Returns false when the
  /// buffered bytes do not yet hold a whole frame.
  bool next(Frame* out);

  /// True when a frame prefix is buffered but incomplete (a stream that
  /// ended mid-frame).
  [[nodiscard]] bool mid_frame() const { return !buf_.empty(); }

 private:
  std::vector<std::byte> buf_;  // unconsumed stream bytes, front-compacted
};

}  // namespace plum::rt
