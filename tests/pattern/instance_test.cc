// Composite construction (Section 3.3.1 header semantics).
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

}  // namespace
}  // namespace cedr
