// The composites a PatternOp has emitted, kept on its contributors'
// store entries: which a full retraction retracts, in what order and
// shape, when they expire, and how they survive a snapshot.
#include <gtest/gtest.h>

#include <string>

#include "engine/sink.h"
#include "pattern/sequence.h"
#include "testing/helpers.h"

namespace cedr {
namespace {

using testing::KV;

Event E(EventId id, Time vs, int64_t key = 0) {
  return MakeEvent(id, vs, TimeAdd(vs, 100), KV(key, static_cast<int64_t>(id)));
}

SchemaPtr PairSchema() {
  static const SchemaPtr kSchema =
      Schema::Make({{"key", ValueType::kInt64},
                    {"value", ValueType::kInt64},
                    {"key2", ValueType::kInt64},
                    {"value2", ValueType::kInt64}});
  return kSchema;
}

// SEQUENCE(A, B, w) over two ports, fed by hand (no closing CTI) so the
// test sees the state between pushes.
struct Seq {
  PatternOp op;
  CollectingSink sink;
  Time cs = 0;

  explicit Seq(Duration w, ConsistencySpec spec = ConsistencySpec::Middle(),
               ScModes modes = {})
      : op(2, /*ordered=*/true, 2, w, nullptr, std::move(modes), PairSchema(),
           spec) {
    op.ConnectTo(&sink, 0);
  }

  void Insert(int port, const Event& e) {
    ASSERT_TRUE(op.Push(port, InsertOf(e, ++cs)).ok());
  }
  void Remove(int port, const Event& e) {
    ASSERT_TRUE(op.Push(port, RetractOf(e, e.vs, ++cs)).ok());
  }
  void Cti(Time t) {
    for (int port = 0; port < 2; ++port) {
      ASSERT_TRUE(op.Push(port, CtiOf(t, ++cs)).ok());
    }
  }

  std::vector<Event> Of(MessageKind kind) const {
    std::vector<Event> out;
    for (const Message& m : sink.messages()) {
      if (m.kind == kind) out.push_back(m.event);
    }
    return out;
  }
  std::vector<Event> Inserted() const { return Of(MessageKind::kInsert); }
  std::vector<Event> Retracted() const { return Of(MessageKind::kRetract); }
};

std::vector<EventId> Ids(const std::vector<Event>& events) {
  std::vector<EventId> ids;
  for (const Event& e : events) ids.push_back(e.id);
  return ids;
}

TEST(CompositeRecordTest, RetractionRetractsOnlyItsOwnCompositesOnce) {
  Seq seq(20);
  Event a = E(1, 3), b = E(2, 9), c = E(3, 12);
  seq.Insert(0, a);
  seq.Insert(1, b);
  seq.Insert(1, c);
  ASSERT_EQ(seq.Inserted().size(), 2u);  // (a, b), (a, c)
  const EventId ab = seq.Inserted()[0].id, ac = seq.Inserted()[1].id;
  EXPECT_EQ(seq.op.StateSize(), 5u);  // three candidates, two composites

  // Removing b invalidates only (a, b).
  seq.Remove(1, b);
  EXPECT_EQ(Ids(seq.Retracted()), std::vector<EventId>{ab});
  EXPECT_EQ(seq.op.StateSize(), 3u);
  // Removing a invalidates the rest; (a, b) is not retracted again.
  seq.Remove(0, a);
  EXPECT_EQ(Ids(seq.Retracted()), (std::vector<EventId>{ab, ac}));
  EXPECT_EQ(seq.op.StateSize(), 1u);  // c alone
  EXPECT_EQ(seq.op.stats().lost_corrections, 0u);
}

TEST(CompositeRecordTest, UnknownContributorRetractsNothingAndIsLost) {
  Seq seq(20);
  seq.Insert(0, E(1, 3));
  seq.Insert(1, E(2, 9));
  seq.Remove(0, E(99, 4));
  EXPECT_TRUE(seq.Retracted().empty());
  EXPECT_EQ(seq.op.stats().lost_corrections, 1u);
}

TEST(CompositeRecordTest, ExpiredCompositeIsNotRetractedAndIsLost) {
  // Weak with no memory trims up to the input guarantee. (a, b) lives on
  // [9, 13): a horizon of 12 keeps it, 13 expires it with a.
  Seq seq(10, ConsistencySpec::Weak(0));
  Event a = E(1, 3), b = E(2, 9);
  seq.Insert(0, a);
  seq.Insert(1, b);
  ASSERT_EQ(seq.Inserted().size(), 1u);
  EXPECT_EQ(seq.Inserted()[0].ve, 13);
  seq.Cti(12);
  EXPECT_EQ(seq.op.StateSize(), 3u);  // a, b and (a, b)

  seq.Cti(13);
  EXPECT_EQ(seq.op.StateSize(), 1u);  // b
  seq.Remove(0, a);
  EXPECT_TRUE(seq.Retracted().empty());
  EXPECT_EQ(seq.op.stats().lost_corrections, 1u);
}

TEST(CompositeRecordTest, RetractionRebuildsTheEmittedComposite) {
  Seq seq(20);
  Event a = MakeEvent(1, 3, 40, KV(1, 10));
  Event b = MakeEvent(2, 9, 40, KV(1, 20));
  b.os = 8;
  b.oe = 50;
  Event c = MakeEvent(3, 12, 40, KV(0, 0));
  seq.Insert(0, a);
  seq.Insert(1, b);
  seq.Insert(1, c);
  seq.Remove(0, a);

  std::vector<Event> inserted = seq.Inserted();
  std::vector<Event> retracted = seq.Retracted();
  ASSERT_EQ(inserted.size(), 2u);
  ASSERT_EQ(retracted.size(), 2u);
  for (size_t i = 0; i < inserted.size(); ++i) {
    // The message carries the event as emitted; only its CEDR time is
    // the retraction's own.
    Event expected = inserted[i];
    expected.cs = retracted[i].cs;
    EXPECT_TRUE(testing::IdenticalEvents(retracted[i], expected));
    EXPECT_EQ(retracted[i].payload.schema(), PairSchema());
    // The rebuild shares the emitted lineage rather than copying it.
    EXPECT_EQ(retracted[i].cbt.data(), inserted[i].cbt.data());
  }
}

TEST(CompositeRecordTest, ConsumedContributorRetractsItsComposite) {
  ScModes modes(2);
  modes[0].consumption = ConsumptionMode::kConsume;
  Seq seq(20, ConsistencySpec::Middle(), modes);
  Event a = E(1, 3), b = E(2, 9), c = E(3, 12);
  seq.Insert(0, a);
  seq.Insert(1, b);
  seq.Insert(1, c);  // a is consumed: no second match
  ASSERT_EQ(seq.Inserted().size(), 1u);
  EXPECT_EQ(seq.op.StateSize(), 3u);  // b, c and (a, b)

  seq.Remove(0, a);
  EXPECT_EQ(Ids(seq.Retracted()), std::vector<EventId>{seq.Inserted()[0].id});
  EXPECT_EQ(seq.op.StateSize(), 2u);
  EXPECT_EQ(seq.op.stats().lost_corrections, 0u);
}

TEST(CompositeRecordTest, SelfJoinRetractsInRecordingOrderAcrossBothPorts) {
  // SEQUENCE(A AS x, A AS y, w): every A arrives on both ports. a2 is y
  // in (a1, a2), recorded first, and x in (a2, a3), recorded last.
  Seq seq(20);
  Event a1 = E(1, 1), a2 = E(2, 2), a3 = E(3, 3);
  for (const Event& a : {a1, a2, a3}) {
    seq.Insert(0, a);
    seq.Insert(1, a);
  }
  std::vector<EventId> recorded = Ids(seq.Inserted());
  ASSERT_EQ(recorded.size(), 3u);  // (a1, a2), (a1, a3), (a2, a3)
  EXPECT_EQ(recorded[0], IdGen({1, 2}));
  EXPECT_EQ(recorded[2], IdGen({2, 3}));

  // The first of a2's two retractions retracts both of its composites,
  // in recording order; the second finds its entry and nothing to do.
  seq.Remove(0, a2);
  EXPECT_EQ(Ids(seq.Retracted()), (std::vector<EventId>{recorded[0],
                                                        recorded[2]}));
  seq.Remove(1, a2);
  EXPECT_EQ(seq.Retracted().size(), 2u);
  EXPECT_EQ(seq.op.stats().lost_corrections, 0u);
}

TEST(CompositeRecordTest, DuplicateArrivalReemitsAndIsRetractedOnce) {
  Seq seq(20);
  Event a = E(1, 3), b = E(2, 9);
  seq.Insert(0, a);
  seq.Insert(1, b);
  seq.Insert(1, b);  // a duplicate (Vs, id): enumerated as it came
  ASSERT_EQ(seq.Inserted().size(), 2u);
  EXPECT_EQ(seq.Inserted()[0].id, seq.Inserted()[1].id);
  EXPECT_EQ(seq.op.StateSize(), 3u);  // a, b and one composite

  seq.Remove(0, a);
  EXPECT_EQ(Ids(seq.Retracted()), std::vector<EventId>{seq.Inserted()[0].id});
}

TEST(CompositeRecordTest, SelfJoinRebuildsACompositeAndRecordsItOnce) {
  // ATLEAST(2, A, A, A, w): e1 and e2 each arrive on all three ports, so
  // several port pairs bind the same two events in the same order.
  PatternOp op(2, /*ordered=*/false, 3, 20, nullptr, {}, nullptr,
               ConsistencySpec::Middle());
  CollectingSink sink;
  op.ConnectTo(&sink, 0);
  Time cs = 0;
  Event e1 = E(1, 1), e2 = E(2, 2);
  for (const Event& e : {e1, e2}) {
    for (int port = 0; port < 3; ++port) {
      ASSERT_TRUE(op.Push(port, InsertOf(e, ++cs)).ok());
    }
  }
  EXPECT_EQ(sink.inserts(), 6u);
  EXPECT_EQ(op.StateSize(), 8u);  // six entries, two composites

  for (int port = 0; port < 3; ++port) {
    ASSERT_TRUE(op.Push(port, RetractOf(e1, e1.vs, ++cs)).ok());
  }
  std::vector<EventId> retracted;
  for (const Message& m : sink.messages()) {
    if (m.kind == MessageKind::kRetract) retracted.push_back(m.event.id);
  }
  EXPECT_EQ(retracted, (std::vector<EventId>{IdGen({2, 1}), IdGen({1, 2})}));
  EXPECT_EQ(op.StateSize(), 3u);  // e2's entries
  EXPECT_EQ(op.stats().lost_corrections, 0u);
}

// Composites (a, b), (a, c) and (a, d) over a shared contributor a;
// d's removal has already retracted (a, d).
void Populate(Seq* seq) {
  seq->Insert(0, MakeEvent(1, 3, 40, KV(1, 10)));
  Event b = MakeEvent(2, 9, 40, KV(1, 20));
  b.os = 8;
  b.oe = 50;
  seq->Insert(1, b);
  seq->Insert(1, MakeEvent(3, 12, 40, KV(0, 0)));
  seq->Insert(1, E(4, 14));
  seq->Remove(1, E(4, 14));
}

std::string SnapshotOf(const PatternOp& op) {
  io::BinaryWriter w;
  op.Snapshot(&w);
  return w.Take();
}

TEST(CompositeRecordTest, SnapshotRestoreSnapshotIsByteIdentical) {
  ScModes modes(2);
  modes[1].consumption = ConsumptionMode::kConsume;
  Seq seq(20, ConsistencySpec::Middle(), modes);
  Populate(&seq);
  const std::string first = SnapshotOf(seq.op);

  Seq restored(20, ConsistencySpec::Middle(), modes);
  io::BinaryReader reader(first);
  ASSERT_TRUE(restored.op.Restore(&reader).ok());
  EXPECT_TRUE(reader.ExpectEnd().ok());
  EXPECT_EQ(SnapshotOf(restored.op), first);
  EXPECT_EQ(restored.op.StateSize(), seq.op.StateSize());

  // Both retract the same composites, rebuilt alike.
  const size_t before = seq.Retracted().size();
  Event a = MakeEvent(1, 3, 40, KV(1, 10));
  seq.Remove(0, a);
  restored.Remove(0, a);
  std::vector<Event> want = seq.Retracted(), got = restored.Retracted();
  ASSERT_EQ(want.size(), before + 2);  // (a, b) and (a, c)
  ASSERT_EQ(got.size(), 2u);
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(testing::IdenticalEvents(got[i], want[before + i]));
  }
}

TEST(CompositeRecordTest, TamperedCompositeIdRestoresToCorruption) {
  Seq seq(20);
  Populate(&seq);
  std::string bytes = SnapshotOf(seq.op);
  // The first composite's id, which the snapshot writes before its
  // contributors.
  io::BinaryWriter id;
  id.PutU64(seq.Inserted()[0].id);
  const size_t at = bytes.find(id.bytes());
  ASSERT_NE(at, std::string::npos);
  bytes[at] ^= 1;
  Seq restored(20);
  io::BinaryReader reader(bytes);
  EXPECT_EQ(restored.op.Restore(&reader).code(), StatusCode::kCorruption);
}

}  // namespace
}  // namespace cedr
