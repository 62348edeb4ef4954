#include "pmesh/parallel_adapt.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace plum::pmesh {

namespace {

constexpr int kTagMark = 1;
constexpr int kTagBisect = 2;
constexpr int kTagFaceEdge = 3;

/// Mark notification: "your local edge `edge` is now marked".
struct MarkMsg {
  Index edge;
};

/// Bisection notification for a shared edge (phase 1 of SPL repair).
struct BisectMsg {
  Index your_edge;     ///< receiver-local id of the shared edge
  Index my_v0_on_you;  ///< receiver-local id of *my* canonical v0
  Index my_child0;     ///< my child containing my v0
  Index my_child1;
  Index my_mid;
};

/// Face-crossing edge announcement (phase 2): both endpoints are shared
/// with the receiver; it owns the twin edge iff find_edge succeeds.
struct FaceEdgeMsg {
  Index your_v0;  ///< receiver-local endpoint ids
  Index your_v1;
  Index my_edge;
};

/// Receiver-local id of vertex `v` on rank `q`, or kInvalidIndex.
Index vert_on(const LocalMesh& lm, Index v, Rank q) {
  auto it = lm.shared_verts.find(v);
  if (it == lm.shared_verts.end()) return kInvalidIndex;
  for (const auto& c : it->second) {
    if (c.rank == q) return c.remote_id;
  }
  return kInvalidIndex;
}

void add_shared(SplMap& map, Index local, Rank rank, Index remote) {
  auto& spl = map[local];
  for (const auto& c : spl) {
    if (c.rank == rank && c.remote_id == remote) return;  // idempotent
  }
  spl.push_back({rank, remote});
}

}  // namespace

ParallelMarkResult parallel_mark(
    DistMesh& dm, rt::Engine& eng,
    const std::vector<std::vector<char>>& seed_marks,
    obs::MemoryTracker* mem) {
  PLUM_ASSERT(static_cast<Rank>(seed_marks.size()) == dm.nranks());
  return parallel_mark(
      dm, eng,
      [&](Rank r, rt::Outbox&) {
        return seed_marks[static_cast<std::size_t>(r)];
      },
      mem);
}

ParallelMarkResult parallel_mark(DistMesh& dm, rt::Engine& eng,
                                 const SeedRowFn& seed_row,
                                 obs::MemoryTracker* mem) {
  const Rank P = dm.nranks();

  ParallelMarkResult out;
  // plum-scale: dist(P) -- driver output: one refinement summary per rank
  out.per_rank.resize(static_cast<std::size_t>(P));

  // Per-rank accumulated seeds and the set of shared marks already sent,
  // both filled by the rank's first superstep.
  // plum-scale: dist(P) -- per-rank accumulated seed marks, written by that rank
  std::vector<std::vector<char>> seeds(static_cast<std::size_t>(P));
  // plum-scale: dist(P) -- per-destination dedup marks for mark-propagation sends
  std::vector<std::vector<char>> sent(static_cast<std::size_t>(P));

  // Rank-safe program: rank r touches only its own slots of seeds / sent /
  // out.per_rank / exchanged, so both engines run it identically.
  // plum-scale: dist(P) -- per-peer exchange counters for the comm ledger
  std::vector<std::int64_t> exchanged(static_cast<std::size_t>(P), 0);
  const int steps_before = eng.ledger().num_supersteps();
  eng.run([&](Rank r, const rt::Inbox& inbox, rt::Outbox& outbox) {
    LocalMesh& lm = dm.local(r);
    auto& my_seeds = seeds[static_cast<std::size_t>(r)];
    auto& my_sent = sent[static_cast<std::size_t>(r)];

    // First round: this rank's seeds. Then absorb cross-partition marks.
    bool new_input = outbox.step() == 0;
    if (new_input) {
      const auto ne = static_cast<std::size_t>(lm.mesh.num_edges());
      my_seeds = seed_row(r, outbox);
      my_seeds.resize(ne, 0);
      my_sent.assign(ne, 0);
    }
    for (const auto* m : inbox.with_tag(kTagMark)) {
      for (const auto& rec : rt::unpack<MarkMsg>(*m)) {
        if (!my_seeds[static_cast<std::size_t>(rec.edge)]) {
          my_seeds[static_cast<std::size_t>(rec.edge)] = 1;
          new_input = true;
        }
      }
    }
    if (!new_input) return false;

    // Local propagation to a fixpoint; charge one unit per local element
    // re-examined (the serial kernel does the same work).
    auto& result = out.per_rank[static_cast<std::size_t>(r)];
    result = adapt::propagate_marks(lm.mesh, my_seeds);
    outbox.charge(lm.mesh.num_active_elements());

    // Marks may have grown beyond the seeds; fold back so the next round
    // starts from the fixpoint.
    my_seeds = result.edge_marked;

    // Send newly marked shared-edge copies to their SPL ranks. The
    // claiming worker stages through its own rank's scratch row.
    obs::Arena* const ms = mem != nullptr ? mem->scratch(r) : nullptr;
    PeerBuckets<MarkMsg, obs::TrackingAllocator<MarkMsg>> outgoing(
        obs::TrackingAllocator<MarkMsg>{ms});
    bool sent_any = false;
    for (Index e : result.marked_edges) {
      if (my_sent[static_cast<std::size_t>(e)]) continue;
      my_sent[static_cast<std::size_t>(e)] = 1;
      auto it = lm.shared_edges.find(e);
      if (it == lm.shared_edges.end()) continue;
      for (const auto& copy : it->second) {
        outgoing[copy.rank].push_back({copy.remote_id});
        ++exchanged[static_cast<std::size_t>(r)];
        sent_any = true;
      }
    }
    outgoing.post(outbox, kTagMark);
    return sent_any;
  });
  out.comm_rounds = eng.ledger().num_supersteps() - steps_before;
  for (Rank r = 0; r < P; ++r) {
    out.marks_exchanged += exchanged[static_cast<std::size_t>(r)];
  }

  // Ranks that never re-ran after the last absorb still hold a fixpoint
  // result; ranks that never had marks need an (empty) result too.
  for (Rank r = 0; r < P; ++r) {
    auto& res = out.per_rank[static_cast<std::size_t>(r)];
    if (res.edge_marked.empty()) {
      res = adapt::propagate_marks(dm.local(r).mesh,
                                   seeds[static_cast<std::size_t>(r)]);
    }
  }
  return out;
}

ParallelRefineResult parallel_refine(DistMesh& dm, rt::Engine& eng,
                                     const ParallelMarkResult& marks,
                                     obs::MemoryTracker* mem) {
  const Rank P = dm.nranks();
  ParallelRefineResult out;
  // plum-scale: dist(P) -- driver output: one adaptation summary per rank
  out.per_rank.resize(static_cast<std::size_t>(P));
  // plum-scale: dist(P) -- driver output: per-rank work accounting
  out.work_per_rank.assign(static_cast<std::size_t>(P), 0);

  // plum-scale: dist(P) -- pre-subdivision edge count per simulated rank, written by that rank's superstep
  std::vector<Index> old_ne(static_cast<std::size_t>(P));
  // Iterated below to build BisectMsg batches: must stay an ordered map so
  // the message payload order matches the sequential engine bit for bit.
  // plum-scale: dist(P) -- pre-subdivision edge SPLs per simulated rank, written by that rank's superstep
  std::vector<SplMap> old_edge_spl(static_cast<std::size_t>(P));

  // Per-rank tallies of new shared-object records (summed after the runs;
  // a shared counter would race under the parallel engine).
  // plum-scale: host-only -- driver accounting of created entities for the report
  std::vector<std::int64_t> new_edges(static_cast<std::size_t>(P), 0);
  // plum-scale: host-only -- driver accounting of created entities for the report
  std::vector<std::int64_t> new_verts(static_cast<std::size_t>(P), 0);

  // --- local subdivision + post-processing phase 1: bisected shared edges ---
  eng.run([&](Rank r, const rt::Inbox& inbox, rt::Outbox& outbox) {
    LocalMesh& lm = dm.local(r);

    if (outbox.step() == 0) {
      // Rank r subdivides its own mesh (an on_bisect hook may touch only
      // rank-r state), staging through its own scratch row.
      obs::Arena* const ms = mem != nullptr ? mem->scratch(r) : nullptr;
      old_ne[static_cast<std::size_t>(r)] = lm.mesh.num_edges();
      old_edge_spl[static_cast<std::size_t>(r)] = lm.shared_edges;
      auto& stats = out.per_rank[static_cast<std::size_t>(r)];
      stats = adapt::refine_mesh(
          lm.mesh, marks.per_rank[static_cast<std::size_t>(r)], ms);
      out.work_per_rank[static_cast<std::size_t>(r)] = stats.work_units();
      outbox.charge(out.work_per_rank[static_cast<std::size_t>(r)]);
      PeerBuckets<BisectMsg, obs::TrackingAllocator<BisectMsg>> outgoing(
          obs::TrackingAllocator<BisectMsg>{ms});
      for (const auto& [e, spl] : old_edge_spl[static_cast<std::size_t>(r)]) {
        const auto& ed = lm.mesh.edge(e);
        // Bisected this round: children are fresh edge ids.
        if (ed.is_leaf() ||
            ed.child[0] < old_ne[static_cast<std::size_t>(r)]) {
          continue;
        }
        for (const auto& copy : spl) {
          const Index v0_on_peer = vert_on(lm, ed.v0, copy.rank);
          PLUM_ASSERT_MSG(v0_on_peer != kInvalidIndex,
                          "shared edge endpoint not shared");
          outgoing[copy.rank].push_back(
              {copy.remote_id, v0_on_peer, ed.child[0], ed.child[1], ed.mid});
        }
      }
      outgoing.post(outbox, kTagBisect);
      return true;  // one more step to receive
    }

    for (const auto* m : inbox.with_tag(kTagBisect)) {
      for (const auto& msg : rt::unpack<BisectMsg>(*m)) {
        const auto& ed = lm.mesh.edge(msg.your_edge);
        PLUM_ASSERT_MSG(!ed.is_leaf(),
                        "peer bisected a shared edge we did not");
        // Pair children by which one touches the corresponded endpoint.
        const bool aligned = ed.v0 == msg.my_v0_on_you;
        const Index my_c0 = ed.child[0];
        const Index my_c1 = ed.child[1];
        add_shared(lm.shared_edges, my_c0, m->from,
                   aligned ? msg.my_child0 : msg.my_child1);
        add_shared(lm.shared_edges, my_c1, m->from,
                   aligned ? msg.my_child1 : msg.my_child0);
        add_shared(lm.shared_verts, ed.mid, m->from, msg.my_mid);
        new_edges[static_cast<std::size_t>(r)] += 2;
        ++new_verts[static_cast<std::size_t>(r)];
      }
    }
    return false;
  });

  // --- post-processing phase 2: face-crossing edges --------------------------
  eng.run([&](Rank r, const rt::Inbox& inbox, rt::Outbox& outbox) {
    LocalMesh& lm = dm.local(r);

    if (outbox.step() == 0) {
      obs::Arena* const ms = mem != nullptr ? mem->scratch(r) : nullptr;
      PeerBuckets<FaceEdgeMsg, obs::TrackingAllocator<FaceEdgeMsg>> outgoing(
          obs::TrackingAllocator<FaceEdgeMsg>{ms});
      for (Index e = old_ne[static_cast<std::size_t>(r)];
           e < lm.mesh.num_edges(); ++e) {
        const auto& ed = lm.mesh.edge(e);
        if (ed.parent != kInvalidIndex) continue;  // child edges: phase 1
        // Candidate ranks: those sharing both endpoints.
        auto it0 = lm.shared_verts.find(ed.v0);
        auto it1 = lm.shared_verts.find(ed.v1);
        if (it0 == lm.shared_verts.end() || it1 == lm.shared_verts.end()) {
          continue;
        }
        for (const auto& c0 : it0->second) {
          for (const auto& c1 : it1->second) {
            if (c0.rank != c1.rank) continue;
            outgoing[c0.rank].push_back({c0.remote_id, c1.remote_id, e});
          }
        }
      }
      outgoing.post(outbox, kTagFaceEdge);
      return true;
    }

    for (const auto* m : inbox.with_tag(kTagFaceEdge)) {
      for (const auto& msg : rt::unpack<FaceEdgeMsg>(*m)) {
        const Index mine = lm.mesh.find_edge(msg.your_v0, msg.your_v1);
        if (mine == kInvalidIndex) continue;  // not shared with the sender
        add_shared(lm.shared_edges, mine, m->from, msg.my_edge);
        ++new_edges[static_cast<std::size_t>(r)];
      }
    }
    return false;
  });

  for (Rank r = 0; r < P; ++r) {
    out.new_shared_edges += new_edges[static_cast<std::size_t>(r)];
    out.new_shared_verts += new_verts[static_cast<std::size_t>(r)];
  }
  return out;
}

}  // namespace plum::pmesh
