#include "partition/refine_kway.hpp"

#include <algorithm>
#include <numeric>

#include "util/assert.hpp"

namespace plum::partition {

RefineStats refine_kway(const graph::Csr& g, PartVec& part, Rank nparts,
                        const RefineOptions& opt, Rng& rng,
                        obs::Arena* scratch) {
  const Index n = g.num_vertices();
  RefineStats stats;
  stats.cut_before = edge_cut(g, part);

  const obs::TrackingAllocator<Weight> walloc{scratch};
  const obs::TrackingAllocator<Index> ialloc{scratch};
  const std::vector<Weight> loads_init = part_loads(g, part, nparts);
  // plum-scale: scratch -- pass-local load table, arena-backed
  obs::TrackedVec<Weight> loads(loads_init.begin(), loads_init.end(), walloc);
  // plum-scale: scratch -- pass-local part population counts, arena-backed
  obs::TrackedVec<Index> counts(static_cast<std::size_t>(nparts), 0, ialloc);
  for (Rank p : part) ++counts[static_cast<std::size_t>(p)];

  const Weight total = std::accumulate(loads.begin(), loads.end(), Weight{0});
  const auto max_load = static_cast<Weight>(
      (static_cast<double>(total) / nparts) * (1.0 + opt.imbalance_tol)) + 1;
  // A perfectly balanced part holds at most ceil(total/nparts). Truncating
  // division would forbid filling a receiver to the exact ceiling average,
  // walling diffusion off at at-capacity parts whenever total % nparts != 0.
  const Weight avg_ceil = (total + static_cast<Weight>(nparts) - 1) /
                          static_cast<Weight>(nparts);

  // plum-scale: scratch -- random visit order dies with the refine call
  obs::TrackedVec<Index> order(static_cast<std::size_t>(n), ialloc);
  std::iota(order.begin(), order.end(), 0);

  // Per-candidate-part connection weights, reset per vertex via a stamp.
  // The stamp holds vertex ids, so it must be Index-typed — an `int` stamp
  // would silently truncate if Index ever widened past 32 bits.
  // plum-scale: scratch -- per-part connection table, arena-backed
  obs::TrackedVec<Weight> conn(static_cast<std::size_t>(nparts), 0, walloc);
  // plum-scale: scratch -- per-part stamp table, arena-backed
  obs::TrackedVec<Index> stamp(static_cast<std::size_t>(nparts), kInvalidIndex,
                               ialloc);

  for (int pass = 0; pass < opt.max_passes; ++pass) {
    ++stats.passes;
    // The stamps must be invalidated between passes: they hold vertex ids,
    // so on a revisit the previous pass's stamp still "matches" and conn
    // would keep accumulating — every revisited vertex would see inflated
    // connection weights and phantom cut gains.
    std::fill(stamp.begin(), stamp.end(), kInvalidIndex);
    // Fresh random order each pass avoids systematic drift.
    for (Index i = n - 1; i > 0; --i) {
      std::swap(order[static_cast<std::size_t>(i)],
                order[rng.below(static_cast<std::uint64_t>(i) + 1)]);
    }
    std::int64_t moves_this_pass = 0;

    for (Index v : order) {
      const Rank from = part[v];
      if (counts[static_cast<std::size_t>(from)] <= 1) continue;
      const auto nbrs = g.neighbors(v);
      const auto wts = g.edge_weights(v);

      // Connections of v to each adjacent part.
      bool boundary = false;
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        const Rank p = part[nbrs[i]];
        if (stamp[static_cast<std::size_t>(p)] != v) {
          stamp[static_cast<std::size_t>(p)] = v;
          conn[static_cast<std::size_t>(p)] = 0;
        }
        conn[static_cast<std::size_t>(p)] += wts[i];
        if (p != from) boundary = true;
      }
      if (!boundary) continue;

      const Weight internal = stamp[static_cast<std::size_t>(from)] == v
                                  ? conn[static_cast<std::size_t>(from)]
                                  : 0;
      const Weight wv = g.wcomp(v);
      const bool from_overloaded =
          loads[static_cast<std::size_t>(from)] > max_load;

      Rank best = kNoRank;
      Weight best_gain = 0;
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        const Rank to = part[nbrs[i]];
        if (to == from) continue;
        const Weight to_after = loads[static_cast<std::size_t>(to)] + wv;
        const Weight gain = conn[static_cast<std::size_t>(to)] - internal;

        // Cut-improving moves must not break balance. Balancing moves must
        // be strictly downhill, from an overloaded part or into a genuinely
        // starved one — the latter lets load diffuse *through* intermediate
        // parts that sit at capacity and wall off an overloaded part.
        const bool cut_move = gain > 0 && to_after <= max_load;
        const bool balance_move =
            opt.allow_balancing_moves &&
            to_after < loads[static_cast<std::size_t>(from)] &&
            (from_overloaded ||
             (loads[static_cast<std::size_t>(from)] > avg_ceil &&
              to_after <= avg_ceil));
        if (!cut_move && !balance_move) continue;
        if (best == kNoRank || gain > best_gain) {
          best = to;
          best_gain = gain;
        }
      }
      if (best == kNoRank) continue;

      part[v] = best;
      loads[static_cast<std::size_t>(from)] -= wv;
      loads[static_cast<std::size_t>(best)] += wv;
      --counts[static_cast<std::size_t>(from)];
      ++counts[static_cast<std::size_t>(best)];
      ++moves_this_pass;
    }
    stats.moves += moves_this_pass;
    if (moves_this_pass == 0) break;
  }
  stats.cut_after = edge_cut(g, part);
  return stats;
}

}  // namespace plum::partition
