// Composite construction (Section 3.3.1 header semantics) and the
// contributor-lineage index.
#include "pattern/instance.h"

#include <gtest/gtest.h>

#include "testing/helpers.h"

namespace cedr {
namespace {

using testing::KV;

EventRef Share(const Event& e) { return std::make_shared<const Event>(e); }

TEST(MakeCompositeEventTest, HeaderFieldsPerPaper) {
  Event a = MakeEvent(1, 3, 4, KV(1, 10));
  Event b = MakeEvent(2, 9, 10, KV(2, 20));
  b.os = 9;
  b.oe = 42;
  Event c = MakeCompositeEvent({Share(a), Share(b)}, /*w=*/20, nullptr);
  EXPECT_EQ(c.id, IdGen({1, 2}));
  EXPECT_EQ(c.vs, 9);          // last contributor's Vs
  EXPECT_EQ(c.ve, 3 + 20);     // first contributor's Vs + w
  EXPECT_EQ(c.os, 9);          // Os/Oe from the last contributor
  EXPECT_EQ(c.oe, 42);
  EXPECT_EQ(c.rt, 3);          // min root time
  ASSERT_EQ(c.cbt.size(), 2u);
  EXPECT_EQ(c.cbt[0]->id, 1u);
  EXPECT_EQ(c.payload.size(), 4u);  // concatenated payloads
  EXPECT_EQ(c.payload.at(2), Value(2));
}

TEST(MakeCompositeEventTest, RootTimePropagatesThroughNesting) {
  Event a = MakeEvent(1, 3, 4);
  Event b = MakeEvent(2, 9, 10);
  Event inner = MakeCompositeEvent({Share(a), Share(b)}, 20, nullptr);
  Event c = MakeEvent(3, 15, 16);
  Event outer = MakeCompositeEvent({Share(inner), Share(c)}, 30, nullptr);
  EXPECT_EQ(outer.rt, 3);  // min over the whole lineage
}

TEST(CompositeIndexTest, TakeByContributor) {
  CompositeIndex index(20, nullptr);
  Event a = MakeEvent(1, 3, 4);
  Event b = MakeEvent(2, 9, 10);
  Event c = MakeEvent(3, 12, 13);
  Event c1 = MakeCompositeEvent({Share(a), Share(b)}, 20, nullptr);
  Event c2 = MakeCompositeEvent({Share(a), Share(c)}, 20, nullptr);
  index.Record(c1);
  index.Record(c2);
  EXPECT_EQ(index.size(), 2u);

  // Removing contributor b invalidates only c1.
  std::vector<Event> taken = index.TakeByContributor(b.id);
  ASSERT_EQ(taken.size(), 1u);
  EXPECT_EQ(taken[0].id, c1.id);
  EXPECT_EQ(index.size(), 1u);

  // Removing a invalidates the rest; already-taken composites are gone.
  taken = index.TakeByContributor(a.id);
  ASSERT_EQ(taken.size(), 1u);
  EXPECT_EQ(taken[0].id, c2.id);
  EXPECT_EQ(index.size(), 0u);
}

TEST(CompositeIndexTest, TakeUnknownContributorIsEmpty) {
  CompositeIndex index(20, nullptr);
  EXPECT_TRUE(index.TakeByContributor(99).empty());
}

TEST(CompositeIndexTest, TrimDropsFinishedComposites) {
  CompositeIndex index(20, nullptr);
  Event a = MakeEvent(1, 3, 4);
  Event composite = MakeCompositeEvent({Share(a)}, 10, nullptr);  // [3, 13)
  index.Record(composite);
  index.Trim(10);
  EXPECT_EQ(index.size(), 1u);
  index.Trim(13);
  EXPECT_EQ(index.size(), 0u);
  EXPECT_TRUE(index.TakeByContributor(a.id).empty());
}

SchemaPtr PairSchema() {
  static const SchemaPtr kSchema =
      Schema::Make({{"key", ValueType::kInt64},
                    {"value", ValueType::kInt64},
                    {"key2", ValueType::kInt64},
                    {"value2", ValueType::kInt64}});
  return kSchema;
}

// Composites over a shared contributor a, one of which ends before 30.
struct Recorded {
  CompositeIndex index{20, PairSchema()};
  std::vector<Event> composites;

  Recorded() {
    EventRef a = Share(MakeEvent(1, 3, 40, KV(1, 10)));
    Event b = MakeEvent(2, 9, 40, KV(1, 20));
    b.os = 8;
    b.oe = 50;
    Event nested = MakeCompositeEvent(
        {Share(MakeEvent(7, 1, 2, KV(0, 0))), Share(MakeEvent(8, 2, 3))}, 5,
        nullptr);  // rt 1, below a's
    nested.vs = 12;
    composites.push_back(MakeCompositeEvent({a, Share(b)}, 20, PairSchema()));
    composites.push_back(
        MakeCompositeEvent({a, Share(nested)}, 20, PairSchema()));
    for (const Event& c : composites) index.Record(c);
  }
};

TEST(CompositeIndexTest, TakeRebuildsTheRecordedComposites) {
  Recorded r;
  std::vector<Event> taken = r.index.TakeByContributor(1);
  ASSERT_EQ(taken.size(), 2u);
  for (size_t i = 0; i < taken.size(); ++i) {
    EXPECT_TRUE(testing::IdenticalEvents(taken[i], r.composites[i]));
    EXPECT_EQ(taken[i].payload.schema(), PairSchema());
    // The rebuild shares the recorded lineage rather than copying it.
    EXPECT_EQ(taken[i].cbt.data(), r.composites[i].cbt.data());
  }
  EXPECT_EQ(r.composites[1].rt, 1);
  EXPECT_EQ(r.index.size(), 0u);
}

TEST(CompositeIndexTest, SnapshotRestoreSnapshotIsByteIdentical) {
  Recorded r;
  io::BinaryWriter first;
  r.index.Snapshot(&first);

  CompositeIndex restored(20, PairSchema());
  io::BinaryReader reader(first.bytes());
  ASSERT_TRUE(restored.Restore(&reader).ok());
  EXPECT_TRUE(reader.ExpectEnd().ok());
  io::BinaryWriter second;
  restored.Snapshot(&second);
  EXPECT_EQ(second.bytes(), first.bytes());

  std::vector<Event> taken = restored.TakeByContributor(2);
  ASSERT_EQ(taken.size(), 1u);
  EXPECT_TRUE(testing::IdenticalEvents(taken[0], r.composites[0]));
}

TEST(CompositeIndexTest, TamperedCompositeIdRestoresToCorruption) {
  Recorded r;
  io::BinaryWriter w;
  r.index.Snapshot(&w);
  std::string bytes = w.bytes();
  bytes[8] ^= 1;  // the first composite's id, right after the count
  CompositeIndex restored(20, PairSchema());
  io::BinaryReader reader(bytes);
  EXPECT_EQ(restored.Restore(&reader).code(), StatusCode::kCorruption);
}

}  // namespace
}  // namespace cedr
