// plum-lint fixture (lint-only, never compiled): rt::gather's row function
// runs inside the gather's first superstep, so a captured accumulator it
// writes without rank indexing races like any other superstep write. The
// rank-indexed write below must NOT be flagged.
// Expected: 1x shared-accumulator.
#include <vector>

#include "runtime/collectives.hpp"

namespace plum::fixture {

std::vector<std::vector<double>> bad_gather_row(
    rt::Engine& eng, const std::vector<std::vector<double>>& err) {
  double total = 0.0;
  std::vector<std::size_t> sizes(static_cast<std::size_t>(eng.nranks()));
  return rt::gather(eng, [&](Rank r, rt::Outbox&) -> std::vector<double> {
    const auto& mine = err[static_cast<std::size_t>(r)];
    for (double e : mine) total += e;                  // BAD
    sizes[static_cast<std::size_t>(r)] = mine.size();  // OK: rank-owned
    return mine;
  });
}

}  // namespace plum::fixture
