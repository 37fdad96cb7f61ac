// Alignment buffer and consistency monitor mechanics (Figure 7).
#include "ops/alignment_buffer.h"

#include <gtest/gtest.h>

#include "consistency/monitor.h"

namespace cedr {
namespace {

Message Ins(EventId id, Time vs, Time ve, Time cs) {
  return InsertOf(MakeEvent(id, vs, ve), cs);
}

TEST(AlignmentBufferTest, PassThroughWhenBlockingZero) {
  AlignmentBuffer buffer(0);
  std::vector<Message> released;
  buffer.Offer(Ins(1, 10, 20, 1), 1, &released);
  ASSERT_EQ(released.size(), 1u);
  EXPECT_TRUE(buffer.pass_through());
  EXPECT_EQ(buffer.size(), 0u);
}

TEST(AlignmentBufferTest, InfiniteBlockingWaitsForCti) {
  AlignmentBuffer buffer(kInfinity);
  std::vector<Message> released;
  buffer.Offer(Ins(1, 10, 20, 1), 1, &released);
  buffer.Offer(Ins(2, 5, 20, 2), 2, &released);
  EXPECT_TRUE(released.empty());
  EXPECT_EQ(buffer.size(), 2u);
  buffer.Offer(CtiOf(12, 3), 3, &released);
  // Both released, in sync order, then the CTI itself.
  ASSERT_EQ(released.size(), 3u);
  EXPECT_EQ(released[0].event.id, 2u);  // sync 5 first
  EXPECT_EQ(released[1].event.id, 1u);
  EXPECT_EQ(released[2].kind, MessageKind::kCti);
}

TEST(AlignmentBufferTest, FiniteBlockingReleasesByWatermark) {
  AlignmentBuffer buffer(5);
  std::vector<Message> released;
  buffer.Offer(Ins(1, 10, 20, 1), 1, &released);
  EXPECT_TRUE(released.empty());
  // Watermark advances to 16: frontier 11 >= 10 releases event 1.
  buffer.Offer(Ins(2, 16, 20, 2), 2, &released);
  ASSERT_EQ(released.size(), 1u);
  EXPECT_EQ(released[0].event.id, 1u);
}

TEST(AlignmentBufferTest, LateMessagePassesThroughImmediately) {
  AlignmentBuffer buffer(5);
  std::vector<Message> released;
  buffer.Offer(Ins(1, 100, 120, 1), 1, &released);
  // Event far in the past (beyond B of the watermark): cannot be
  // ordered anymore, passes through for optimistic repair.
  buffer.Offer(Ins(2, 3, 8, 2), 2, &released);
  ASSERT_EQ(released.size(), 1u);
  EXPECT_EQ(released[0].event.id, 2u);
}

TEST(AlignmentBufferTest, RetractionMergesWithBufferedInsert) {
  AlignmentBuffer buffer(kInfinity);
  std::vector<Message> released;
  Event e = MakeEvent(1, 10, 100);
  buffer.Offer(InsertOf(e, 1), 1, &released);
  buffer.Offer(RetractOf(e, 50, 2), 2, &released);
  EXPECT_TRUE(released.empty());
  EXPECT_EQ(buffer.stats().merged_retractions, 1u);
  buffer.Offer(CtiOf(kInfinity, 3), 3, &released);
  // One corrected insert comes out; the retraction vanished.
  ASSERT_EQ(released.size(), 2u);
  EXPECT_EQ(released[0].kind, MessageKind::kInsert);
  EXPECT_EQ(released[0].event.ve, 50);
}

TEST(AlignmentBufferTest, FullRemovalAnnihilatesBufferedInsert) {
  AlignmentBuffer buffer(kInfinity);
  std::vector<Message> released;
  Event e = MakeEvent(1, 10, 100);
  buffer.Offer(InsertOf(e, 1), 1, &released);
  buffer.Offer(RetractOf(e, 10, 2), 2, &released);
  EXPECT_EQ(buffer.stats().annihilated_inserts, 1u);
  buffer.Offer(CtiOf(kInfinity, 3), 3, &released);
  ASSERT_EQ(released.size(), 1u);  // only the CTI
  EXPECT_EQ(released[0].kind, MessageKind::kCti);
}

TEST(AlignmentBufferTest, BlockingStatsMeasured) {
  AlignmentBuffer buffer(kInfinity);
  std::vector<Message> released;
  buffer.Offer(Ins(1, 10, 20, 100), 100, &released);
  buffer.Offer(CtiOf(50, 130), 130, &released);
  EXPECT_EQ(buffer.stats().total_blocking_cs, 30);
  EXPECT_EQ(buffer.stats().max_blocking_cs, 30);
  // Only formerly-buffered messages count; pass-through CTIs do not.
  EXPECT_EQ(buffer.stats().released, 1u);
}

TEST(AlignmentBufferTest, DrainReleasesEverything) {
  AlignmentBuffer buffer(kInfinity);
  std::vector<Message> released;
  buffer.Offer(Ins(1, 10, 20, 1), 1, &released);
  buffer.Offer(Ins(2, 5, 20, 2), 2, &released);
  buffer.Drain(3, &released);
  ASSERT_EQ(released.size(), 2u);
  EXPECT_EQ(released[0].event.id, 2u);
  EXPECT_EQ(buffer.size(), 0u);
}

TEST(AlignmentBufferTest, MaxSizeTracked) {
  AlignmentBuffer buffer(kInfinity);
  std::vector<Message> released;
  for (int i = 0; i < 5; ++i) {
    buffer.Offer(Ins(i + 1, 10 + i, 100, i), i, &released);
  }
  EXPECT_EQ(buffer.stats().max_size, 5u);
}

// Offers a retraction of `e` to ve 20 and then CTI(inf); returns what
// comes out.
std::vector<Message> RetractAndClose(AlignmentBuffer* buffer, const Event& e) {
  std::vector<Message> out;
  buffer->Offer(RetractOf(e, 20, 10), 10, &out);
  buffer->Offer(CtiOf(kInfinity, 11), 11, &out);
  return out;
}

AlignmentBuffer Restored(const AlignmentBuffer& buffer) {
  io::BinaryWriter w;
  buffer.Snapshot(&w);
  AlignmentBuffer restored(kInfinity);
  io::BinaryReader r(w.bytes());
  EXPECT_TRUE(restored.Restore(&r).ok());
  EXPECT_TRUE(r.ExpectEnd().ok());
  return restored;
}

TEST(AlignmentBufferTest, RetractionMergesIntoTheNewestInsertOfItsId) {
  // B (Vs 10) and then A (Vs 5) share id 7. The newest is A, although B
  // is later in sync order; a restored buffer picks the same target.
  AlignmentBuffer buffer(kInfinity);
  std::vector<Message> released;
  Event b = MakeEvent(7, 10, 100), a = MakeEvent(7, 5, 100);
  buffer.Offer(InsertOf(b, 1), 1, &released);
  buffer.Offer(InsertOf(a, 2), 2, &released);
  AlignmentBuffer restored = Restored(buffer);
  for (AlignmentBuffer* copy : {&buffer, &restored}) {
    std::vector<Message> out = RetractAndClose(copy, a);
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[0].event.vs, 5);
    EXPECT_EQ(out[0].event.ve, 20);
    EXPECT_EQ(out[1].event.vs, 10);
    EXPECT_EQ(out[1].event.ve, 100);
    EXPECT_EQ(out[2].kind, MessageKind::kCti);
  }
}

TEST(AlignmentBufferTest, RetractionAfterAReleaseMergesAliveAndRestored) {
  // CTI 6 releases A, the newest insert of id 7; the retraction then
  // merges into B, the one still buffered, with or without a snapshot
  // in between.
  AlignmentBuffer buffer(kInfinity);
  std::vector<Message> released;
  Event b = MakeEvent(7, 10, 100), a = MakeEvent(7, 5, 100);
  buffer.Offer(InsertOf(b, 1), 1, &released);
  buffer.Offer(InsertOf(a, 2), 2, &released);
  buffer.Offer(CtiOf(6, 3), 3, &released);
  ASSERT_EQ(released.size(), 2u);  // A, then the CTI
  AlignmentBuffer restored = Restored(buffer);
  for (AlignmentBuffer* copy : {&buffer, &restored}) {
    std::vector<Message> out = RetractAndClose(copy, b);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].kind, MessageKind::kInsert);
    EXPECT_EQ(out[0].event.vs, 10);
    EXPECT_EQ(out[0].event.ve, 20);
    EXPECT_EQ(out[1].kind, MessageKind::kCti);
    EXPECT_EQ(copy->stats().merged_retractions, 1u);
  }
}

TEST(AlignmentBufferTest, LateArrivalsReleaseInSyncThenArrivalOrder) {
  // Out-of-order arrivals and equal sync times around released prefixes:
  // each release is in (sync, arrival) order, and a snapshot taken with
  // a released prefix pending restores to the same buffer.
  AlignmentBuffer buffer(kInfinity);
  std::vector<Message> released;
  const std::vector<std::pair<EventId, Time>> arrivals = {
      {1, 8}, {2, 3}, {3, 8}, {4, 1}, {5, 12}, {6, 3}, {7, 20}, {8, 12}};
  for (size_t i = 0; i < arrivals.size(); ++i) {
    const Time cs = static_cast<Time>(i + 1);
    buffer.Offer(Ins(arrivals[i].first, arrivals[i].second, 50, cs), cs,
                 &released);
  }
  buffer.Offer(CtiOf(4, 9), 9, &released);
  std::vector<EventId> ids;
  for (const Message& m : released) {
    if (m.kind == MessageKind::kInsert) ids.push_back(m.event.id);
  }
  EXPECT_EQ(ids, (std::vector<EventId>{4, 2, 6}));
  buffer.Offer(Ins(9, 8, 50, 10), 10, &released);  // equal sync, newest
  EXPECT_EQ(buffer.size(), 6u);

  AlignmentBuffer restored = Restored(buffer);
  io::BinaryWriter a, b;
  buffer.Snapshot(&a);
  restored.Snapshot(&b);
  EXPECT_EQ(a.bytes(), b.bytes());
  for (AlignmentBuffer* copy : {&buffer, &restored}) {
    std::vector<Message> out;
    copy->Offer(CtiOf(kInfinity, 11), 11, &out);
    ids.clear();
    for (const Message& m : out) {
      if (m.kind == MessageKind::kInsert) ids.push_back(m.event.id);
    }
    EXPECT_EQ(ids, (std::vector<EventId>{1, 3, 9, 5, 8, 7}));
    EXPECT_EQ(copy->size(), 0u);
  }
}

TEST(ConsistencyMonitorTest, EffectiveSpecClampsBlockingToMemory) {
  ConsistencyMonitor monitor(ConsistencySpec::Custom(100, 10), 1);
  EXPECT_EQ(monitor.spec().max_blocking, 10);
  EXPECT_EQ(monitor.spec().max_memory, 10);
}

// Offers a message and records every released message as dispatched (the
// operator base class does this per message).
void OfferAndDispatch(ConsistencyMonitor* monitor, int port,
                      const Message& msg, Time now_cs) {
  std::vector<Message> released;
  monitor->Offer(port, msg, now_cs, &released);
  for (const Message& m : released) {
    monitor->NoteDispatch(port, m);
  }
}

TEST(ConsistencyMonitorTest, CombinedGuaranteeIsMinOverPorts) {
  ConsistencyMonitor monitor(ConsistencySpec::Middle(), 2);
  OfferAndDispatch(&monitor, 0, CtiOf(10, 1), 1);
  EXPECT_EQ(monitor.InputGuarantee(), kMinTime);  // port 1 silent
  OfferAndDispatch(&monitor, 1, CtiOf(7, 2), 2);
  EXPECT_EQ(monitor.InputGuarantee(), 7);
  OfferAndDispatch(&monitor, 1, CtiOf(20, 3), 3);
  EXPECT_EQ(monitor.InputGuarantee(), 10);
}

TEST(ConsistencyMonitorTest, GuaranteeNotVisibleBeforeDispatch) {
  // A CTI in flight (returned from Offer but not yet dispatched) must
  // not advance the observed guarantee.
  ConsistencyMonitor monitor(ConsistencySpec::Middle(), 1);
  std::vector<Message> released;
  monitor.Offer(0, CtiOf(10, 1), 1, &released);
  ASSERT_EQ(released.size(), 1u);
  EXPECT_EQ(monitor.InputGuarantee(), kMinTime);
  monitor.NoteDispatch(0, released[0]);
  EXPECT_EQ(monitor.InputGuarantee(), 10);
}

TEST(ConsistencyMonitorTest, RepairHorizonUsesMemory) {
  ConsistencyMonitor monitor(ConsistencySpec::Weak(10), 1);
  OfferAndDispatch(&monitor, 0, Ins(1, 100, 200, 1), 1);
  // Watermark 100, memory 10: horizon 90.
  EXPECT_EQ(monitor.RepairHorizon(), 90);
}

TEST(ConsistencyMonitorTest, RepairHorizonUsesGuaranteeWhenLarger) {
  ConsistencyMonitor monitor(ConsistencySpec::Weak(1000), 1);
  OfferAndDispatch(&monitor, 0, CtiOf(95, 1), 1);
  OfferAndDispatch(&monitor, 0, Ins(1, 100, 200, 2), 2);
  EXPECT_EQ(monitor.RepairHorizon(), 95);
}

TEST(ConsistencyMonitorTest, StrongHorizonIsGuaranteeOnly) {
  ConsistencyMonitor monitor(ConsistencySpec::Strong(), 1);
  OfferAndDispatch(&monitor, 0, CtiOf(42, 1), 1);
  EXPECT_EQ(monitor.RepairHorizon(), 42);
}

TEST(ConsistencySpecTest, NamedLevels) {
  EXPECT_TRUE(ConsistencySpec::Strong().IsStrong());
  EXPECT_TRUE(ConsistencySpec::Middle().IsMiddle());
  EXPECT_TRUE(ConsistencySpec::Weak(5).IsWeak());
  EXPECT_FALSE(ConsistencySpec::Strong().IsWeak());
  EXPECT_EQ(ConsistencySpec::Strong().ToString(), "strong");
  EXPECT_EQ(ConsistencySpec::Middle().ToString(), "middle");
  EXPECT_EQ(ConsistencySpec::Weak(0).ToString(), "weak");
}

}  // namespace
}  // namespace cedr
