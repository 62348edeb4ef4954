#pragma once
// Collective operations expressed as BSP programs.
//
// The paper's framework gathers to one host: each processor computes one
// row of the similarity matrix and a single host gathers the rows and
// solves the assignment (§4.3). The helper runs on an Engine so the
// traffic it generates lands in the same ledger as everything else.

#include <vector>

#include "runtime/engine.hpp"

namespace plum::rt {

namespace detail {
inline constexpr int kCollectiveTag = -4242;
}

/// Gather per-rank vectors to `root`; result[from] valid only at the root.
/// Two supersteps: every rank with a non-empty row sends it to the root
/// (the root included), then the root unpacks its inbox by sender.
template <typename T>
std::vector<std::vector<T>> gather(Engine& eng,
                                   const std::vector<std::vector<T>>& input,
                                   Rank root = 0) {
  const Rank p = eng.nranks();
  PLUM_ASSERT(static_cast<Rank>(input.size()) == p);
  // plum-scale: dist(P) -- the gathered result: one row per sender at the root
  std::vector<std::vector<T>> result(static_cast<std::size_t>(p));
  eng.run([&](Rank r, const Inbox& inbox, Outbox& out) {
    if (out.step() == 0) {
      const auto& mine = input[static_cast<std::size_t>(r)];
      if (!mine.empty()) out.send_vec(root, detail::kCollectiveTag, mine);
      return true;  // need one more step to receive
    }
    for (const auto& m : inbox.messages()) {
      // plum-lint: allow(shared-accumulator) -- every message goes to the
      // root, so only the root's step writes here, one slot per sender.
      result[static_cast<std::size_t>(m.from)] = unpack<T>(m);
    }
    return false;
  });
  return result;
}

}  // namespace plum::rt
