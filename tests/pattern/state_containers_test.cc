// The flat containers behind pattern state: the (Vs, id)-ordered
// candidate store of SEQUENCE/ATLEAST and the due queues of negation.
// Both must reproduce the order of the tree containers they replaced,
// since that order drives enumeration, resolution and snapshot bytes.
#include <gtest/gtest.h>

#include <map>

#include "common/rng.h"
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

}  // namespace
}  // namespace cedr
