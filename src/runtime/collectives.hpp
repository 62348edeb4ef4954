#pragma once
// Collective operations expressed as BSP programs.
//
// The paper's framework gathers to one host: each processor computes one
// row of the similarity matrix and a single host gathers the rows and
// solves the assignment (§4.3). The helper runs on an Engine so the
// traffic it generates lands in the same ledger as everything else, and
// its row-function form builds each rank's row on that rank, inside the
// gather's own first superstep.

#include <concepts>
#include <type_traits>
#include <vector>

#include "runtime/engine.hpp"

namespace plum::rt {

namespace detail {
inline constexpr int kCollectiveTag = -4242;
}

/// Gather per-rank rows to `root`; result[from] valid only at the root.
/// Two supersteps: every rank builds its row with `row(r, out)` (which may
/// charge its work to `out`) and sends it to the root when non-empty (the
/// root included), then the root unpacks its inbox by sender.
template <typename RowFn>
  requires std::invocable<RowFn&, Rank, Outbox&>
auto gather(Engine& eng, RowFn&& row, Rank root = 0) {
  using Row = std::remove_cvref_t<std::invoke_result_t<RowFn&, Rank, Outbox&>>;
  using T = typename Row::value_type;
  // plum-scale: dist(P) -- the gathered result: one row per sender at the root
  std::vector<std::vector<T>> result(static_cast<std::size_t>(eng.nranks()));
  eng.run([&](Rank r, const Inbox& inbox, Outbox& out) {
    if (out.step() == 0) {
      const auto& mine = row(r, out);
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

/// As above, with the rows built beforehand (one per rank).
template <typename T>
std::vector<std::vector<T>> gather(Engine& eng,
                                   const std::vector<std::vector<T>>& input,
                                   Rank root = 0) {
  PLUM_ASSERT(static_cast<Rank>(input.size()) == eng.nranks());
  return gather(
      eng,
      [&](Rank r, Outbox&) -> const std::vector<T>& {
        return input[static_cast<std::size_t>(r)];
      },
      root);
}

}  // namespace plum::rt
