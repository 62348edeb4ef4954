#pragma once
// Typed message buffers for the BSP runtime.
//
// The paper's codes are C/C++ + MPI; our portable stand-in keeps MPI's
// programming model (explicit sends, per-rank address spaces, collective
// phases) while running P logical ranks inside one process. Payloads are
// byte buffers with pack/unpack helpers for trivially-copyable records, so
// rank-local state can only cross rank boundaries through an explicit,
// countable message — exactly the property the cost model needs.

#include <cstddef>
#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

#include "util/assert.hpp"
#include "util/types.hpp"

namespace plum::rt {

struct Message {
  Rank from = kNoRank;
  int tag = 0;
  std::vector<std::byte> bytes;
};

/// Serializes a span of trivially-copyable records into a message payload.
template <typename T>
std::vector<std::byte> pack(std::span<const T> items) {
  static_assert(std::is_trivially_copyable_v<T>);
  std::vector<std::byte> out(items.size_bytes());
  if (!items.empty()) std::memcpy(out.data(), items.data(), items.size_bytes());
  return out;
}

template <typename T, typename Alloc>
std::vector<std::byte> pack(const std::vector<T, Alloc>& items) {
  // Allocator-generic so arena-backed staging buckets (obs::TrackedVec)
  // pack exactly like plain vectors.
  return pack(std::span<const T>(items.data(), items.size()));
}

/// Deserializes a payload produced by pack<T>.
template <typename T>
std::vector<T> unpack(std::span<const std::byte> bytes) {
  static_assert(std::is_trivially_copyable_v<T>);
  PLUM_ASSERT_MSG(bytes.size() % sizeof(T) == 0, "payload size mismatch");
  std::vector<T> out(bytes.size() / sizeof(T));
  if (!out.empty()) std::memcpy(out.data(), bytes.data(), bytes.size());
  return out;
}

template <typename T>
std::vector<T> unpack(const Message& m) {
  return unpack<T>(std::span<const std::byte>(m.bytes));
}

}  // namespace plum::rt
