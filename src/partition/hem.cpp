#include "partition/hem.hpp"

#include <algorithm>
#include <numeric>
#include <unordered_map>

namespace plum::partition {

CoarseLevel coarsen_hem(const graph::Csr& g, Rng& rng,
                        obs::Arena* scratch) {
  const Index n = g.num_vertices();
  const obs::TrackingAllocator<Index> alloc{scratch};
  // plum-scale: scratch -- HEM match state is phase-local arena scratch
  obs::TrackedVec<Index> match(static_cast<std::size_t>(n), kInvalidIndex,
                               alloc);

  // Random visit order decorrelates matchings across levels.
  // plum-scale: scratch -- visit permutation dies with the match pass
  obs::TrackedVec<Index> order(static_cast<std::size_t>(n), alloc);
  std::iota(order.begin(), order.end(), 0);
  for (Index i = n - 1; i > 0; --i) {
    std::swap(order[static_cast<std::size_t>(i)],
              order[rng.below(static_cast<std::uint64_t>(i) + 1)]);
  }

  for (Index v : order) {
    if (match[v] != kInvalidIndex) continue;
    const auto nbrs = g.neighbors(v);
    const auto wts = g.edge_weights(v);
    Index best = kInvalidIndex;
    Weight best_w = -1;
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const Index u = nbrs[i];
      if (match[u] != kInvalidIndex) continue;
      if (wts[i] > best_w) {
        best_w = wts[i];
        best = u;
      }
    }
    if (best == kInvalidIndex) {
      match[v] = v;  // stays single
    } else {
      match[v] = best;
      match[best] = v;
    }
  }

  // Coarse ids: the smaller endpoint of each matched pair owns the id.
  CoarseLevel out;
  out.cmap.assign(static_cast<std::size_t>(n), kInvalidIndex);
  Index nc = 0;
  for (Index v = 0; v < n; ++v) {
    if (out.cmap[v] != kInvalidIndex) continue;
    out.cmap[v] = nc;
    const Index u = match[v];
    if (u != v) out.cmap[u] = nc;
    ++nc;
  }

  // Coarse adjacency: merge parallel edges by weight.
  // plum-scale: scratch -- edge-merge staging; from_edges copies it out
  obs::TrackedVec<std::pair<Index, Index>> cedges{
      obs::TrackingAllocator<std::pair<Index, Index>>{scratch}};
  // plum-scale: scratch -- merged weights staging, same lifetime as cedges
  obs::TrackedVec<Weight> cwts{obs::TrackingAllocator<Weight>{scratch}};
  {
    using SeenEntry = std::pair<const std::uint64_t, std::size_t>;
    // plum-scale: scratch -- dedupe map is phase-local arena scratch
    // plum-lint: allow(unordered-iteration) -- dedupe index only: cedges/cwts append in the deterministic v scan order; the map is never iterated
    std::unordered_map<std::uint64_t, std::size_t, std::hash<std::uint64_t>,
                       std::equal_to<>, obs::TrackingAllocator<SeenEntry>>
        seen{obs::TrackingAllocator<SeenEntry>{scratch}};
    for (Index v = 0; v < n; ++v) {
      const auto nbrs = g.neighbors(v);
      const auto wts = g.edge_weights(v);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        const Index cu = out.cmap[v], cw = out.cmap[nbrs[i]];
        if (cu >= cw) continue;  // dedupe: count each fine edge once
        const std::uint64_t key =
            (static_cast<std::uint64_t>(static_cast<std::uint32_t>(cu))
             << 32) |
            static_cast<std::uint32_t>(cw);
        auto it = seen.find(key);
        if (it == seen.end()) {
          seen.emplace(key, cedges.size());
          cedges.emplace_back(cu, cw);
          cwts.push_back(wts[i]);
        } else {
          cwts[it->second] += wts[i];
        }
      }
    }
  }
  out.graph = graph::Csr::from_edges(nc, cedges, cwts);

  // Vertex weights add under contraction.
  std::vector<Weight> wcomp(static_cast<std::size_t>(nc), 0);
  std::vector<Weight> wremap(static_cast<std::size_t>(nc), 0);
  for (Index v = 0; v < n; ++v) {
    wcomp[static_cast<std::size_t>(out.cmap[v])] += g.wcomp(v);
    wremap[static_cast<std::size_t>(out.cmap[v])] += g.wremap(v);
  }
  out.graph.set_weights(std::move(wcomp), std::move(wremap));
  return out;
}

}  // namespace plum::partition
