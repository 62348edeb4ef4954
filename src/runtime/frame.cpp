#include "runtime/frame.hpp"

#include "util/assert.hpp"

namespace plum::rt {

namespace {

void put_u32(std::uint32_t v, std::vector<std::byte>* out) {
  out->push_back(static_cast<std::byte>(v & 0xff));
  out->push_back(static_cast<std::byte>((v >> 8) & 0xff));
  out->push_back(static_cast<std::byte>((v >> 16) & 0xff));
  out->push_back(static_cast<std::byte>((v >> 24) & 0xff));
}

std::uint32_t get_u32(const std::byte* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace

void encode_frame(const Frame& f, std::vector<std::byte>* out) {
  out->reserve(out->size() + kFrameHeaderBytes + f.payload.size());
  put_u32(kFrameMagic, out);
  put_u32(static_cast<std::uint32_t>(f.from), out);
  put_u32(static_cast<std::uint32_t>(f.to), out);
  put_u32(static_cast<std::uint32_t>(f.tag), out);
  put_u32(static_cast<std::uint32_t>(f.payload.size()), out);
  out->insert(out->end(), f.payload.begin(), f.payload.end());
}

void FrameDecoder::feed(std::span<const std::byte> chunk) {
  buf_.insert(buf_.end(), chunk.begin(), chunk.end());
}

bool FrameDecoder::next(Frame* out) {
  if (buf_.size() < kFrameHeaderBytes) return false;
  const std::byte* p = buf_.data();
  const std::uint32_t magic = get_u32(p);
  PLUM_ASSERT_MSG(magic == kFrameMagic,
                  "frame stream desynchronized (bad magic)");
  const std::uint32_t payload_len = get_u32(p + 16);
  const std::size_t total = kFrameHeaderBytes + payload_len;
  if (buf_.size() < total) return false;
  out->from = static_cast<Rank>(static_cast<std::int32_t>(get_u32(p + 4)));
  out->to = static_cast<Rank>(static_cast<std::int32_t>(get_u32(p + 8)));
  out->tag = static_cast<int>(static_cast<std::int32_t>(get_u32(p + 12)));
  out->payload.assign(buf_.begin() + static_cast<std::ptrdiff_t>(
                                         kFrameHeaderBytes),
                      buf_.begin() + static_cast<std::ptrdiff_t>(total));
  buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(total));
  return true;
}

}  // namespace plum::rt
