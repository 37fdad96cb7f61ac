// The flat containers behind pattern state: the (Vs, id)-ordered
// candidate store of SEQUENCE/ATLEAST, and the due queues, window index
// and blockers of negation. Each must reproduce the order of the tree
// container it replaced, since that order drives enumeration,
// resolution and snapshot bytes.
#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <string>

#include "common/rng.h"
#include "engine/sink.h"
#include "pattern/negation.h"
#include "pattern/sequence.h"
#include "testing/helpers.h"

namespace cedr {
namespace {

using testing::KV;

EventRef Ref(EventId id, Time vs, int64_t value = 0) {
  return std::make_shared<const Event>(MakeEvent(id, vs, vs + 10, KV(0, value)));
}

std::vector<std::pair<Time, EventId>> Keys(const CandidateStore& s) {
  std::vector<std::pair<Time, EventId>> keys;
  for (const CandidateStore::Entry& e : s) {
    EXPECT_EQ(e.vs, e.event->vs);
    EXPECT_EQ(e.id, e.event->id);
    keys.emplace_back(e.vs, e.id);
  }
  return keys;
}

TEST(CandidateStoreTest, OutOfOrderArrivalLandsInVsIdOrder) {
  CandidateStore s;
  EXPECT_TRUE(s.Insert(Ref(4, 5)));
  EXPECT_TRUE(s.Insert(Ref(2, 9)));
  EXPECT_TRUE(s.Insert(Ref(3, 3)));  // behind the tail
  EXPECT_TRUE(s.Insert(Ref(1, 5)));  // equal Vs, smaller id
  EXPECT_TRUE(s.Insert(Ref(6, 5)));  // equal Vs, larger id
  EXPECT_TRUE(s.Insert(Ref(5, 12)));
  using Key = std::pair<Time, EventId>;
  EXPECT_EQ(Keys(s), (std::vector<Key>{
                         {3, 3}, {5, 1}, {5, 4}, {5, 6}, {9, 2}, {12, 5}}));
  EXPECT_EQ(s.lower_bound(5)->id, 1u);
  EXPECT_EQ(s.lower_bound(6)->id, 2u);
  EXPECT_EQ(s.lower_bound(13), s.end());
  ASSERT_NE(s.find(5, 4), s.end());
  EXPECT_EQ(s.find(5, 4)->event->id, 4u);
  EXPECT_EQ(s.find(5, 5), s.end());
}

TEST(CandidateStoreTest, DuplicateKeepsTheFirstEvent) {
  CandidateStore s;
  EventRef first = Ref(1, 5, /*value=*/10);
  ASSERT_TRUE(s.Insert(first));
  ASSERT_TRUE(s.Insert(Ref(2, 7)));
  EXPECT_FALSE(s.Insert(Ref(1, 5, /*value=*/99)));  // in the middle
  EXPECT_FALSE(s.Insert(Ref(2, 7, /*value=*/99)));  // at the tail
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s.begin()->event, first);
  EXPECT_EQ(s.find(2, 7), s.end());
  EXPECT_EQ(s.find(7, 2)->event->payload.at(1), Value(int64_t{0}));

  // Merging keeps what is already stored, too.
  CandidateStore other;
  other.Insert(Ref(1, 5, /*value=*/77));
  other.Insert(Ref(3, 6));
  s.Merge(std::move(other));
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s.begin()->event, first);
}

TEST(CandidateStoreTest, PrefixTrimLeavesTheTailIntact) {
  CandidateStore s;
  std::vector<EventRef> refs;
  for (int i = 0; i < 8; ++i) {
    refs.push_back(Ref(static_cast<EventId>(i + 1), 2 * i));
    s.Insert(refs.back());
  }
  s.ErasePrefixWhile(
      [](const CandidateStore::Entry& e) { return e.vs + 5 <= 8; });
  ASSERT_EQ(s.size(), 6u);
  size_t i = 2;
  for (const CandidateStore::Entry& e : s) EXPECT_EQ(e.event, refs[i++]);
  s.ErasePrefixWhile([](const CandidateStore::Entry&) { return false; });
  EXPECT_EQ(s.size(), 6u);
  s.ErasePrefixWhile([](const CandidateStore::Entry&) { return true; });
  EXPECT_TRUE(s.empty());
}

std::vector<EventId> Drain(DueQueue* q) {
  std::vector<EventId> keys;
  while (!q->empty()) keys.push_back(q->Pop());
  return keys;
}

TEST(DueQueueTest, EqualTimesPopInInsertionOrder) {
  DueQueue q;
  q.Push(5, 10);
  q.Push(3, 20);
  q.Push(5, 30);
  q.Push(5, 40);
  q.Push(1, 50);
  q.Push(5, 60);
  EXPECT_EQ(q.top_time(), 1);
  EXPECT_EQ(Drain(&q), (std::vector<EventId>{50, 20, 10, 30, 40, 60}));
}

TEST(DueQueueTest, RepushedKeyPopsAfterExistingEqualTimes) {
  DueQueue q;
  q.Push(5, 1);
  q.Push(5, 2);
  q.Push(5, 3);
  EXPECT_EQ(q.Pop(), 1u);
  q.Push(5, 1);  // resurrected: back to pending
  q.Push(4, 9);
  EXPECT_EQ(Drain(&q), (std::vector<EventId>{9, 2, 3, 1}));
}

TEST(DueQueueTest, CompactionKeepsTheOrder) {
  DueQueue q;
  for (EventId key = 1; key <= 12; ++key) q.Push(key % 3 == 0 ? 2 : 7, key);
  q.Filter([](EventId key) { return key % 2 == 1; });
  EXPECT_EQ(q.size(), 6u);
  EXPECT_EQ(Drain(&q), (std::vector<EventId>{3, 9, 1, 5, 7, 11}));
}

// The multimap the due queues replaced, written the way the snapshot
// wrote it.
std::string WriteMultimap(const std::multimap<Time, EventId>& index) {
  io::BinaryWriter w;
  w.PutU64(index.size());
  for (const auto& [t, key] : index) {
    w.PutTime(t);
    w.PutU64(key);
  }
  return w.Take();
}

TEST(DueQueueTest, WrittenOrderEqualsAMultimapFedTheSamePushes) {
  Rng rng(17);
  DueQueue q;
  std::multimap<Time, EventId> index;
  for (int step = 0; step < 400; ++step) {
    if (!index.empty() && rng.NextInt(0, 3) == 0) {
      EXPECT_EQ(q.Pop(), index.begin()->second);
      index.erase(index.begin());
    } else if (rng.NextInt(0, 40) == 0) {
      auto odd = [](EventId key) { return key % 2 == 1; };
      q.Filter(odd);
      std::erase_if(index, [&](const auto& e) { return !odd(e.second); });
    } else {
      Time t = rng.NextInt(0, 6);  // many ties
      EventId key = static_cast<EventId>(rng.NextInt(0, 50));
      q.Push(t, key);
      index.emplace(t, key);
    }
    io::BinaryWriter w;
    q.Write(&w);
    ASSERT_EQ(w.bytes(), WriteMultimap(index)) << "step " << step;
  }

  // Read assigns push order in read order: the copy pops, writes and
  // takes later pushes as the original does.
  io::BinaryWriter w;
  q.Write(&w);
  DueQueue restored;
  io::BinaryReader r(w.bytes());
  ASSERT_TRUE(restored.Read(&r).ok());
  EXPECT_TRUE(r.ExpectEnd().ok());
  q.Push(3, 1000);
  restored.Push(3, 1000);
  EXPECT_EQ(Drain(&restored), Drain(&q));
}

std::string SnapshotOf(const Operator& op) {
  io::BinaryWriter w;
  op.Snapshot(&w);
  return w.Take();
}

std::vector<EventId> IdsOf(const CollectingSink& sink, MessageKind kind) {
  std::vector<EventId> ids;
  for (const Message& m : sink.messages()) {
    if (m.kind == kind) ids.push_back(m.event.id);
  }
  return ids;
}

TEST(NegationIndexTest, EqualBlockLoKeepsInsertionOrderThroughSnapshot) {
  // UNLESS(w = 10) at middle: positives 5, 3 and 9 share Vs 10, hence
  // block_lo, and are emitted as they arrive. A blocker at Vs 12 retracts
  // them in window-index order, which is arrival order, not id order, in
  // the operator and in a copy restored from its snapshot.
  NegationOp op(NegationWindow::Unless(10), nullptr, ConsistencySpec::Middle());
  CollectingSink sink;
  op.ConnectTo(&sink, 0);
  Time cs = 0;
  for (EventId id : {5, 3, 9}) {
    ASSERT_TRUE(op.Push(0, InsertOf(MakeEvent(id, 10, 11, KV(0, 0)), ++cs))
                    .ok());
  }
  ASSERT_EQ(IdsOf(sink, MessageKind::kInsert),
            (std::vector<EventId>{5, 3, 9}));
  const std::string bytes = SnapshotOf(op);

  NegationOp restored(NegationWindow::Unless(10), nullptr,
                      ConsistencySpec::Middle());
  CollectingSink restored_sink;
  restored.ConnectTo(&restored_sink, 0);
  io::BinaryReader r(bytes);
  ASSERT_TRUE(restored.Restore(&r).ok());
  EXPECT_TRUE(r.ExpectEnd().ok());
  EXPECT_EQ(SnapshotOf(restored), bytes);

  const Message blocker = InsertOf(MakeEvent(20, 12, 13, KV(0, 0)), ++cs);
  ASSERT_TRUE(op.Push(1, blocker).ok());
  ASSERT_TRUE(restored.Push(1, blocker).ok());
  EXPECT_EQ(IdsOf(sink, MessageKind::kRetract),
            (std::vector<EventId>{5, 3, 9}));
  EXPECT_EQ(IdsOf(restored_sink, MessageKind::kRetract),
            (std::vector<EventId>{5, 3, 9}));
}

TEST(NegationIndexTest, DuplicateBlockerKeepsTheFirstCopy) {
  // Strong UNLESS(w = 10) whose predicate blocks only on value 2. The
  // blocker (Vs 12, id 2) arrives with value 1, then again with value 2:
  // the first copy stays, so the positive is emitted at the guarantee,
  // and a restored copy holds that same single blocker.
  auto blocks_on_two = [](const std::vector<const Event*>&, const Event& b) {
    return b.payload.at(1) == Value(int64_t{2});
  };
  NegationOp op(NegationWindow::Unless(10), blocks_on_two,
                ConsistencySpec::Strong());
  CollectingSink sink;
  op.ConnectTo(&sink, 0);
  Time cs = 0;
  ASSERT_TRUE(op.Push(0, InsertOf(MakeEvent(1, 10, 11, KV(0, 0)), ++cs)).ok());
  ASSERT_TRUE(op.Push(1, InsertOf(MakeEvent(2, 12, 13, KV(0, 1)), ++cs)).ok());
  ASSERT_TRUE(op.Push(1, InsertOf(MakeEvent(2, 12, 13, KV(0, 2)), ++cs)).ok());
  // Release both blockers from the alignment buffer, short of the window.
  for (int port = 0; port < 2; ++port) {
    ASSERT_TRUE(op.Push(port, CtiOf(15, ++cs)).ok());
  }
  EXPECT_EQ(op.StateSize(), 2u);  // the candidate and one blocker

  NegationOp restored(NegationWindow::Unless(10), blocks_on_two,
                      ConsistencySpec::Strong());
  CollectingSink restored_sink;
  restored.ConnectTo(&restored_sink, 0);
  const std::string bytes = SnapshotOf(op);
  io::BinaryReader r(bytes);
  ASSERT_TRUE(restored.Restore(&r).ok());
  EXPECT_EQ(SnapshotOf(restored), bytes);

  for (NegationOp* copy : {&op, &restored}) {
    for (int port = 0; port < 2; ++port) {
      ASSERT_TRUE(copy->Push(port, CtiOf(30, ++cs)).ok());
    }
  }
  EXPECT_EQ(IdsOf(sink, MessageKind::kInsert), (std::vector<EventId>{1}));
  EXPECT_EQ(IdsOf(restored_sink, MessageKind::kInsert),
            (std::vector<EventId>{1}));
}

// A SEQUENCE whose SnapshotState a test can read.
class ProbedPattern : public PatternOp {
 public:
  using PatternOp::PatternOp;
  using PatternOp::SnapshotState;
};

// StateSize recounted from the operator's snapshot: live composites plus
// stored entries, less the consumed ones.
size_t Recount(const ProbedPattern& op) {
  io::BinaryWriter w;
  op.SnapshotState(&w);
  io::BinaryReader r(w.bytes());
  size_t n = r.GetU64().ValueOrDie();
  for (size_t i = 0, composites = n; i < composites; ++i) {
    EXPECT_TRUE(io::ReadEvent(&r).ok());
  }
  r.GetBool().ValueOrDie();  // shared events
  const uint64_t stores = r.GetU64().ValueOrDie();
  for (uint64_t s = 0; s < stores; ++s) {
    const uint64_t entries = r.GetU64().ValueOrDie();
    for (uint64_t i = 0; i < entries; ++i) {
      EXPECT_TRUE(io::ReadEvent(&r).ok());
      if (!r.GetBool().ValueOrDie()) ++n;  // a consumed entry is no state
      const uint64_t owned = r.GetU64().ValueOrDie();
      for (uint64_t j = 0; j < owned; ++j) r.GetU64().ValueOrDie();
    }
  }
  EXPECT_TRUE(r.ExpectEnd().ok());
  return n;
}

TEST(PatternStateSizeTest, RunningCountEqualsARecount) {
  // SEQUENCE(A, B, 20) partitioned on a double key, A consumed by each
  // match. Inserts, matches, a full retraction, a NaN key (which merges
  // every partition), a trimming CTI and a restore each keep StateSize
  // equal to a recount.
  const SchemaPtr schema = Schema::Make({{"key", ValueType::kDouble}});
  auto make = [&] {
    ScModes modes(2);
    modes[0].consumption = ConsumptionMode::kConsume;
    return std::make_unique<ProbedPattern>(
        2, /*ordered=*/true, 2, /*scope=*/20, nullptr, modes, nullptr,
        ConsistencySpec::Middle(),
        std::vector<FieldSlot>{FieldSlot(schema, "key"),
                               FieldSlot(schema, "key")});
  };
  auto op = make();
  ASSERT_TRUE(op->partitioned());
  CollectingSink sink;
  op->ConnectTo(&sink, 0);
  Time cs = 0;
  auto event = [&](EventId id, Time vs, double key) {
    return MakeEvent(id, vs, vs + 30, Row(schema, {Value(key)}));
  };
  auto check = [&](const std::string& step) {
    EXPECT_EQ(op->StateSize(), Recount(*op)) << step;
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Event b4 = event(4, 4, 2);
  struct Step {
    int port;
    Message msg;
  };
  const std::vector<Step> steps = {
      {0, InsertOf(event(1, 1, 1), 0)},
      {0, InsertOf(event(2, 2, 2), 0)},
      {1, InsertOf(event(3, 3, 1), 0)},  // (1, 3); A1 consumed
      {1, InsertOf(b4, 0)},              // (2, 4); A2 consumed
      {1, RetractOf(b4, 4, 0)},          // retracts (2, 4), drops B4
      {0, InsertOf(event(5, 5, 7), 0)},
      {0, InsertOf(event(6, 6, nan), 0)},  // merges the partitions
      {1, InsertOf(event(7, 8, 7), 0)},    // (5, 7), (6, 7)
      {1, InsertOf(event(3, 3, 1), 0)},    // a duplicate (Vs, id)
  };
  for (size_t i = 0; i < steps.size(); ++i) {
    Message msg = steps[i].msg;
    msg.cs = ++cs;
    ASSERT_TRUE(op->Push(steps[i].port, msg).ok());
    check("step " + std::to_string(i));
  }
  EXPECT_FALSE(op->partitioned());
  EXPECT_GT(sink.inserts(), 0u);
  EXPECT_GT(sink.retracts(), 0u);

  auto restored = make();
  const std::string bytes = SnapshotOf(*op);
  io::BinaryReader r(bytes);
  ASSERT_TRUE(restored->Restore(&r).ok());
  EXPECT_EQ(restored->StateSize(), Recount(*restored));
  EXPECT_EQ(restored->StateSize(), op->StateSize());

  for (int port = 0; port < 2; ++port) {
    ASSERT_TRUE(op->Push(port, CtiOf(26, ++cs)).ok());
  }
  check("trim");
  EXPECT_LT(op->StateSize(), restored->StateSize());
}

}  // namespace
}  // namespace cedr
