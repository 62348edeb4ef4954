// Unit tests for the BSP runtime: message routing, determinism, ledger
// accounting, collectives.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <span>

#include "runtime/collectives.hpp"
#include "runtime/engine.hpp"
#include "runtime/frame.hpp"
#include "runtime/transport.hpp"

namespace plum::rt {
namespace {

TEST(Message, PackUnpackRoundTrip) {
  std::vector<std::int32_t> v = {1, -2, 3};
  const auto bytes = pack(v);
  EXPECT_EQ(bytes.size(), 12u);
  const auto back = unpack<std::int32_t>(bytes);
  EXPECT_EQ(back, v);
}

TEST(Message, EmptyPayload) {
  std::vector<double> v;
  const auto back = unpack<double>(pack(v));
  EXPECT_TRUE(back.empty());
}

TEST(Engine, RingPassDeliversNextStep) {
  const Rank p = 4;
  Engine eng(p);
  std::vector<int> received(p, -1);
  int phase = 0;
  eng.run([&](Rank r, const Inbox& in, Outbox& out) {
    if (r == 0) ++phase;
    if (phase == 1) {
      out.send_vec<int>((r + 1) % p, 0, {static_cast<int>(r)});
      return true;
    }
    for (const auto& m : in.messages()) {
      received[r] = unpack<int>(m)[0];
    }
    return false;
  });
  for (Rank r = 0; r < p; ++r) EXPECT_EQ(received[r], (r + p - 1) % p);
}

TEST(Engine, MessagesNotVisibleSameStep) {
  Engine eng(2);
  bool saw_in_step0 = false;
  int step = 0;
  eng.run([&](Rank r, const Inbox& in, Outbox& out) {
    if (r == 0 && step == 0) {
      out.send_vec<int>(1, 0, {99});
    }
    if (r == 1 && step == 0) saw_in_step0 = !in.messages().empty();
    if (r == 1) ++step;
    return step < 2;
  });
  EXPECT_FALSE(saw_in_step0);
}

TEST(Engine, LedgerCountsBytesAndMessages) {
  Engine eng(2);
  int phase = 0;
  eng.run([&](Rank r, const Inbox&, Outbox& out) {
    if (r == 0 && phase == 0) {
      out.send_vec<std::int64_t>(1, 0, {1, 2, 3});
      out.charge(10);
    }
    if (r == 1) ++phase;
    return phase < 2;
  });
  EXPECT_EQ(eng.ledger().total_bytes(), 24);
  EXPECT_EQ(eng.ledger().max_rank_compute(), 10);
}

TEST(Engine, TagFiltering) {
  Engine eng(2);
  std::vector<int> got;
  int phase = 0;
  eng.run([&](Rank r, const Inbox& in, Outbox& out) {
    if (r == 0) ++phase;
    if (phase == 1) {
      if (r == 0) {
        out.send_vec<int>(1, 7, {70});
        out.send_vec<int>(1, 8, {80});
      }
      return true;
    }
    if (r == 1) {
      for (const auto* m : in.with_tag(8)) got.push_back(unpack<int>(*m)[0]);
    }
    return false;
  });
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], 80);
}

TEST(Collectives, GatherToRoot) {
  const Rank p = 4;
  const Rank root = 2;
  Engine eng(p);
  // Rank 1 contributes nothing: it must send no message at all.
  std::vector<std::vector<int>> input(p);
  for (Rank r = 0; r < p; ++r) {
    if (r != 1) input[r] = {static_cast<int>(r * r), static_cast<int>(r)};
  }
  const auto rows = gather(eng, input, root);
  ASSERT_EQ(rows.size(), static_cast<std::size_t>(p));
  for (Rank r = 0; r < p; ++r) EXPECT_EQ(rows[r], input[r]) << "rank " << r;

  // The ledger is part of the contract (baselines and plum-bench
  // fingerprints depend on it): two supersteps, one message per non-empty
  // row in the first — the root's own row included — and none after.
  const Ledger& led = eng.ledger();
  ASSERT_EQ(led.num_supersteps(), 2);
  for (Rank r = 0; r < p; ++r) {
    const StepCounters& c = led.steps[0][r];
    if (r == 1) {
      EXPECT_EQ(c.msgs_sent, 0);
      EXPECT_TRUE(c.sends.empty());
      continue;
    }
    EXPECT_EQ(c.msgs_sent, 1) << "rank " << r;
    EXPECT_EQ(c.bytes_sent,
              static_cast<std::int64_t>(input[r].size() * sizeof(int)));
    ASSERT_EQ(c.sends.size(), 1u);
    EXPECT_EQ(c.sends[0].to, root);
    EXPECT_EQ(c.sends[0].tag, detail::kCollectiveTag);
  }
  for (Rank r = 0; r < p; ++r) EXPECT_EQ(led.steps[1][r].msgs_sent, 0);
}

TEST(Inbox, WithTagFiltersAndKeepsDeliveryOrder) {
  // Direct construction: with_tag must return exactly the matching
  // messages, preserving delivery (sender-rank) order, without copying.
  std::vector<Message> msgs;
  for (int i = 0; i < 4; ++i) {
    const std::vector<int> payload = {i + 1};
    msgs.push_back(Message{i, i == 1 ? 5 : 7, pack(payload)});
  }
  Inbox inbox(std::move(msgs));

  const auto tagged = inbox.with_tag(7);
  ASSERT_EQ(tagged.size(), 3u);
  EXPECT_EQ(tagged[0]->from, 0);
  EXPECT_EQ(tagged[1]->from, 2);
  EXPECT_EQ(tagged[2]->from, 3);
  EXPECT_EQ(unpack<int>(*tagged[1])[0], 3);
  EXPECT_TRUE(inbox.with_tag(99).empty());
  // Pointers alias the inbox's own storage.
  EXPECT_EQ(tagged[0], &inbox.messages()[0]);
}

TEST(Inbox, WithTagSenderRankOrderThroughEngine) {
  // All ranks message rank 0 with interleaved tags; delivery and therefore
  // with_tag order is sender-rank order regardless of tag interleaving.
  const Rank p = 5;
  Engine eng(p);
  std::vector<Rank> senders;
  eng.run([&](Rank r, const Inbox& in, Outbox& out) {
    if (out.step() == 0) {
      out.send_vec<int>(0, r % 2, {static_cast<int>(r)});
      out.send_vec<int>(0, 3, {static_cast<int>(100 + r)});
      return true;
    }
    if (r == 0) {
      for (const auto* m : in.with_tag(3)) senders.push_back(m->from);
    }
    return false;
  });
  ASSERT_EQ(senders.size(), static_cast<std::size_t>(p));
  for (Rank r = 0; r < p; ++r) EXPECT_EQ(senders[static_cast<std::size_t>(r)], r);
}

TEST(Outbox, SendAccountsMessagesAndBytesPerRankPerStep) {
  const Rank p = 3;
  Engine eng(p);
  eng.run([&](Rank r, const Inbox&, Outbox& out) {
    if (out.step() == 0) {
      if (r == 1) {
        out.send(0, 0, std::vector<std::byte>(10));
        out.send(2, 0, std::vector<std::byte>(32));
        out.charge(5);
      }
      return true;
    }
    if (out.step() == 1 && r == 2) {
      out.send_vec<double>(0, 1, {1.0, 2.0, 3.0});
    }
    return false;
  });

  const auto& steps = eng.ledger().steps;
  ASSERT_EQ(steps.size(), 2u);
  EXPECT_EQ(steps[0][1].msgs_sent, 2);
  EXPECT_EQ(steps[0][1].bytes_sent, 42);
  EXPECT_EQ(steps[0][1].compute_units, 5);
  EXPECT_EQ(steps[0][0].msgs_sent, 0);
  EXPECT_EQ(steps[0][2].bytes_sent, 0);
  EXPECT_EQ(steps[1][2].msgs_sent, 1);
  EXPECT_EQ(steps[1][2].bytes_sent, 24);  // 3 doubles
  EXPECT_EQ(eng.ledger().total_bytes(), 66);
}

TEST(Outbox, StepIndexRestartsPerRun) {
  Engine eng(2);
  std::vector<int> seen;
  auto fn = [&](Rank r, const Inbox&, Outbox& out) {
    if (r == 0) seen.push_back(out.step());
    return out.step() < 1;
  };
  eng.run(fn);
  eng.run(fn);
  EXPECT_EQ(seen, (std::vector<int>{0, 1, 0, 1}));
}

TEST(Engine, LedgerTracksSupersteps) {
  Engine eng(2);
  int steps = 0;
  eng.run([&](Rank r, const Inbox&, Outbox&) {
    if (r == 0) ++steps;
    return steps < 3;
  });
  EXPECT_EQ(eng.ledger().num_supersteps(), 3);
  eng.reset_ledger();
  EXPECT_EQ(eng.ledger().num_supersteps(), 0);
}

TEST(CommCell, SendsAttributedPerReceiverTagAndStep) {
  const Rank p = 3;
  Engine eng(p);
  eng.run([&](Rank r, const Inbox&, Outbox& out) {
    if (out.step() == 0) {
      if (r == 1) {
        out.send(0, 7, std::vector<std::byte>(10));
        out.send(0, 7, std::vector<std::byte>(6));   // same cell
        out.send(0, 9, std::vector<std::byte>(4));   // same peer, new tag
        out.send(2, 7, std::vector<std::byte>(32));  // new peer
      }
      return true;
    }
    return false;
  });

  const auto& row = eng.ledger().steps[0][1].sends;
  ASSERT_EQ(row.size(), 3u);  // (0,7), (0,9), (2,7) in first-send order
  EXPECT_EQ(row[0].to, 0);
  EXPECT_EQ(row[0].tag, 7);
  EXPECT_EQ(row[0].msgs, 2);
  EXPECT_EQ(row[0].bytes, 16);
  EXPECT_EQ(row[1].to, 0);
  EXPECT_EQ(row[1].tag, 9);
  EXPECT_EQ(row[1].bytes, 4);
  EXPECT_EQ(row[2].to, 2);
  EXPECT_EQ(row[2].bytes, 32);
  // Cell totals reconcile with the flat counters.
  EXPECT_EQ(eng.ledger().steps[0][1].msgs_sent, 4);
  EXPECT_EQ(eng.ledger().steps[0][1].bytes_sent, 52);
  // Ranks that sent nothing have empty rows.
  EXPECT_TRUE(eng.ledger().steps[0][0].sends.empty());
  EXPECT_TRUE(eng.ledger().steps[1][1].sends.empty());
}

TEST(CommMatrix, RowAndColumnSumsMatchLedgerTotals) {
  const Rank p = 4;
  Engine eng(p);
  // Every rank sends (r+1) bytes to each other rank for two supersteps.
  eng.run([&](Rank r, const Inbox&, Outbox& out) {
    for (Rank q = 0; q < p; ++q) {
      if (q == r) continue;
      out.send(q, 3, std::vector<std::byte>(static_cast<std::size_t>(r + 1)));
    }
    return out.step() < 1;
  });

  const CommMatrix cm = eng.ledger().comm_matrix();
  ASSERT_EQ(cm.nranks, p);
  EXPECT_EQ(cm.bytes_at(0, 0), 0);  // no self-sends in this program
  EXPECT_EQ(cm.bytes_at(2, 1), 2 * 3);  // 3 bytes per step, 2 steps
  EXPECT_EQ(cm.msgs_at(2, 1), 2);
  std::int64_t row_total = 0;
  std::int64_t col_total = 0;
  for (Rank r = 0; r < p; ++r) {
    EXPECT_EQ(cm.row_bytes(r), 2 * (p - 1) * (r + 1));
    row_total += cm.row_bytes(r);
    col_total += cm.col_bytes(r);
  }
  EXPECT_EQ(row_total, cm.total_bytes());
  EXPECT_EQ(col_total, cm.total_bytes());
  EXPECT_EQ(cm.total_bytes(), eng.ledger().total_bytes());
  EXPECT_EQ(cm.total_msgs(), 2 * p * (p - 1));
}

TEST(CommMatrix, IdenticalAcrossEngines) {
  auto program = [](Rank r, const Inbox& in, Outbox& out) {
    if (out.step() == 0) {
      out.send_vec<int>((r + 1) % out.nranks(), 5, {static_cast<int>(r), 2});
      return true;
    }
    for (const auto& m : in.messages()) {
      out.send(m.from, 6, m.bytes);  // echo back
    }
    return out.step() < 2;
  };
  Engine seq(4);
  seq.run(program);
  ParallelEngine par(4, 2);
  par.run(program);
  EXPECT_EQ(seq.ledger(), par.ledger());  // includes the per-cell rows
  EXPECT_EQ(seq.ledger().comm_matrix(), par.ledger().comm_matrix());
  EXPECT_GT(seq.ledger().comm_matrix().total_bytes(), 0);
}

// Regression for the send/receive conservation assert: a mixed-tag,
// mixed-size program must pass it on both engines (the assert fires inside
// superstep(), so simply completing the run exercises it every step).
TEST(Engine, SendReceiveConservationHoldsAcrossEngines) {
  auto program = [](Rank r, const Inbox&, Outbox& out) {
    if (out.step() > 3) return false;
    for (Rank q = 0; q < out.nranks(); ++q) {
      out.send(q, r % 3,
               std::vector<std::byte>(static_cast<std::size_t>(r + q + 1)));
    }
    return true;
  };
  Engine seq(5);
  seq.run(program);
  ParallelEngine par(5, 3);
  par.run(program);
  EXPECT_EQ(seq.ledger(), par.ledger());
}

TEST(Engine, RunAbortsOnLivelock) {
  Engine eng(1);
  EXPECT_DEATH(
      eng.run([](Rank, const Inbox&, Outbox&) { return true; }, 100),
      "did not terminate");
}

// --- wire framing -------------------------------------------------------------

std::vector<Frame> sample_frames() {
  std::vector<Frame> fs;
  fs.push_back({0, 1, 7, {std::byte{0xde}, std::byte{0xad}}});
  fs.push_back({3, 0, 0, {}});  // empty payload
  Frame big;
  big.from = 2;
  big.to = 3;
  big.tag = 42;
  big.payload.resize(100000);
  for (std::size_t i = 0; i < big.payload.size(); ++i) {
    big.payload[i] = static_cast<std::byte>(i * 31 + 7);
  }
  fs.push_back(std::move(big));
  return fs;
}

TEST(Frame, EncodeDecodeRoundTrip) {
  std::vector<std::byte> wire;
  const auto want = sample_frames();
  for (const auto& f : want) encode_frame(f, &wire);

  FrameDecoder dec;
  dec.feed(wire);
  Frame f;
  for (const auto& w : want) {
    ASSERT_TRUE(dec.next(&f));
    EXPECT_EQ(f, w);
  }
  EXPECT_FALSE(dec.next(&f));
  EXPECT_FALSE(dec.mid_frame());
}

TEST(Frame, DecoderHandlesSplitAndCoalescedReads) {
  std::vector<std::byte> wire;
  const auto want = sample_frames();
  // Three copies of the batch so frames also straddle batch boundaries.
  for (int rep = 0; rep < 3; ++rep) {
    for (const auto& f : want) encode_frame(f, &wire);
  }

  // Deterministic "fuzz": every chunking from 1-byte trickles through
  // chunks far larger than a frame must yield the identical frame list.
  for (const std::size_t chunk :
       {std::size_t{1}, std::size_t{3}, std::size_t{7}, std::size_t{19},
        std::size_t{kFrameHeaderBytes}, std::size_t{4096}, wire.size()}) {
    FrameDecoder dec;
    std::vector<Frame> got;
    Frame f;
    for (std::size_t at = 0; at < wire.size(); at += chunk) {
      const std::size_t n = std::min(chunk, wire.size() - at);
      dec.feed(std::span<const std::byte>(wire.data() + at, n));
      while (dec.next(&f)) got.push_back(std::move(f));
    }
    ASSERT_EQ(got.size(), 3 * want.size()) << "chunk=" << chunk;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], want[i % want.size()]) << "chunk=" << chunk;
    }
    EXPECT_FALSE(dec.mid_frame()) << "chunk=" << chunk;
  }
}

TEST(Frame, MidFrameReportsIncompleteTail) {
  std::vector<std::byte> wire;
  encode_frame({0, 1, 2, {std::byte{1}, std::byte{2}, std::byte{3}}}, &wire);
  FrameDecoder dec;
  // Header only: no frame yet, but the decoder knows bytes are pending —
  // this is how the transport detects a stream that ended mid-frame.
  dec.feed(std::span<const std::byte>(wire.data(), kFrameHeaderBytes));
  Frame f;
  EXPECT_FALSE(dec.next(&f));
  EXPECT_TRUE(dec.mid_frame());
  dec.feed(std::span<const std::byte>(wire.data() + kFrameHeaderBytes,
                                      wire.size() - kFrameHeaderBytes));
  EXPECT_TRUE(dec.next(&f));
  EXPECT_FALSE(dec.mid_frame());
}

// --- transport ----------------------------------------------------------------

TEST(SendQueue, BucketsInFirstSendOrderProgramOrderWithin) {
  SendQueue q;
  EXPECT_TRUE(q.empty());
  q.push(3, Message{0, 1, {}});
  q.push(1, Message{0, 2, {}});
  q.push(3, Message{0, 3, {}});
  ASSERT_EQ(q.num_buckets(), 2u);  // sparse: two destinations, two buckets
  EXPECT_EQ(q.buckets()[0].to, 3);  // first-send order, not rank order
  EXPECT_EQ(q.buckets()[1].to, 1);
  ASSERT_EQ(q.buckets()[0].msgs.size(), 2u);
  EXPECT_EQ(q.buckets()[0].msgs[0].tag, 1);
  EXPECT_EQ(q.buckets()[0].msgs[1].tag, 3);
  q.clear();
  EXPECT_TRUE(q.empty());
}

/// Runs a degree-2 ring exchange (each rank talks to its two neighbors)
/// for several supersteps and returns the engine's transport for auditing.
void run_ring_exchange(Engine& eng, int steps) {
  const Rank p = eng.nranks();
  eng.run([&](Rank r, const Inbox& in, Outbox& out) {
    for (const auto& m : in.messages()) {
      (void)unpack<std::int32_t>(m);
    }
    if (out.step() >= steps) return false;
    out.send_vec<std::int32_t>((r + 1) % p, 0, {static_cast<std::int32_t>(r)});
    out.send_vec<std::int32_t>((r + p - 1) % p, 1,
                               {static_cast<std::int32_t>(r)});
    return true;
  });
}

// The replicated-state audit: for a P=64 ring, the resident transport
// queue state must be O(P * neighbors), never O(P^2). The old engine
// allocated a dense P*P vector-of-vectors per superstep (4096 cells here);
// sparse SendQueue buckets keep it at exactly P * degree = 128.
TEST(Transport, ResidentQueueStateIsNeighborsNotRanksSquared) {
  const Rank p = 64;
  const std::size_t degree = 2;
  for (const TransportKind kind : {TransportKind::kInProc,
                                   TransportKind::kFramed}) {
    const char* name = kind == TransportKind::kInProc ? "inproc" : "framed";
    auto eng = make_engine(p, 1, kind);
    run_ring_exchange(*eng, 5);
    const std::size_t cells = eng->transport().peak_queue_cells();
    EXPECT_EQ(cells, static_cast<std::size_t>(p) * degree) << name;
    EXPECT_LT(cells, static_cast<std::size_t>(p) * static_cast<std::size_t>(p) / 8)
        << name;
    // Comm accounting mirrors the queues: the ledger's CommMatrix keeps one
    // sparse cell per (sender, neighbor) pair — P * degree resident cells,
    // never a dense P*P grid.
    const CommMatrix cm = eng->ledger().comm_matrix();
    EXPECT_EQ(cm.resident_cells(),
              static_cast<std::int64_t>(p) * static_cast<std::int64_t>(degree))
        << name;
    const auto dense_bytes = static_cast<std::int64_t>(p) *
                             static_cast<std::int64_t>(p) *
                             static_cast<std::int64_t>(sizeof(CommMatrixCell));
    EXPECT_LT(cm.resident_bytes(), dense_bytes / 4) << name;
  }
}

}  // namespace
}  // namespace plum::rt
