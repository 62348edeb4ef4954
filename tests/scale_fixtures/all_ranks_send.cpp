// plum-scale fixture (analyzed-only, never compiled): send loops over
// every rank. Expected diagnostics:
//   all-ranks-send: 3 total — the unconditional all-to-all and the guarded
//                   P-bucket loop flagged, the root broadcast suppressed
//                   by its allow(); the peer-list loop and the host-side
//                   rank loop are clean
#include <vector>

#include "runtime/engine.hpp"

namespace plum::fixture {

namespace rt = plum::rt;
using plum::Rank;

void all_to_all(rt::Engine& eng) {
  const Rank P = eng.nranks();
  eng.run([&](Rank r, const rt::Inbox& in, rt::Outbox& out) {
    const std::vector<double> mine{1.0};
    for (Rank q = 0; q < P; ++q) {  // flagged: P messages per rank
      out.send_vec(q, 7, mine);
    }
    return false;
  });
}

void guarded_buckets(rt::Engine& eng,
                     const std::vector<std::vector<int>>& buckets) {
  eng.run([&](Rank r, const rt::Inbox& in, rt::Outbox& out) {
    // flagged: the guard skips empty buckets, but every rank still walks P
    for (Rank q = 0; q < eng.nranks(); ++q)
      if (!buckets[static_cast<std::size_t>(q)].empty())
        out.send_vec(q, 8, buckets[static_cast<std::size_t>(q)]);
    return false;
  });
}

void peer_list(rt::Engine& eng, const std::vector<Rank>& peers) {
  eng.run([&](Rank r, const rt::Inbox& in, rt::Outbox& out) {
    const std::vector<int> payload{r};
    for (const Rank q : peers) out.send_vec(q, 9, payload);  // clean
    for (std::size_t i = 0; i < peers.size(); ++i) {          // clean
      out.send_vec(peers[i], 9, payload);
    }
    return false;
  });
}

void root_broadcast(rt::Engine& eng) {
  const Rank nranks = eng.nranks();
  eng.run([&](Rank r, const rt::Inbox& in, rt::Outbox& out) {
    if (r != 0) return false;
    const std::vector<double> value{2.0};
    // plum-scale: allow(all-ranks-send) -- one root broadcast: P messages
    // in total, not P per rank
    for (Rank q = 0; q < nranks; ++q) out.send_vec(q, 10, value);
    return false;
  });
}

template <class Channel>
void host_loop(Channel& channel, Rank P) {
  const std::vector<int> payload{0};
  // clean: a host loop over ranks, outside any superstep lambda
  for (Rank q = 0; q < P; ++q) channel.send(q, 11, payload);
}

}  // namespace plum::fixture
