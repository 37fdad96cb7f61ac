#include "stream/event.h"

#include <gtest/gtest.h>

namespace cedr {
namespace {

TEST(EventTest, MakeEventDefaults) {
  Event e = MakeEvent(3, 5, 12);
  EXPECT_EQ(e.id, 3u);
  EXPECT_EQ(e.valid(), (Interval{5, 12}));
  EXPECT_EQ(e.os, 5);
  EXPECT_EQ(e.oe, kInfinity);
  EXPECT_EQ(e.k, 3u);
  EXPECT_EQ(e.rt, 5);
  EXPECT_TRUE(e.is_primitive());
}

TEST(EventTest, MakeBitemporalEvent) {
  Event e = MakeBitemporalEvent(1, 1, 10, 2, 3);
  EXPECT_EQ(e.occurrence(), (Interval{2, 3}));
  EXPECT_EQ(e.valid(), (Interval{1, 10}));
}

TEST(EventTest, ToStringShowsThreeTemporalDimensions) {
  Event e = MakeEvent(7, 1, kInfinity);
  e.cs = 4;
  std::string s = e.ToString();
  EXPECT_NE(s.find("e7"), std::string::npos);
  EXPECT_NE(s.find("V[1, inf)"), std::string::npos);
  EXPECT_NE(s.find("O[1, inf)"), std::string::npos);
  EXPECT_NE(s.find("C[4, inf)"), std::string::npos);
}

TEST(IdGenTest, DifferentInputSetsGiveDifferentIds) {
  EXPECT_NE(IdGen({1, 2}), IdGen({2, 1}));  // order sensitive
  EXPECT_NE(IdGen({1, 2}), IdGen({1, 3}));
  EXPECT_NE(IdGen({1}), IdGen({1, 1}));
  EXPECT_EQ(IdGen({4, 5, 6}), IdGen({4, 5, 6}));  // deterministic
}

TEST(IdGenTest, HighBitSetAvoidsPrimitiveIdCollisions) {
  EXPECT_NE(IdGen({1, 2}) & (1ULL << 63), 0u);
}

TEST(LineageTest, CopiesOfAnEventShareOneList) {
  Event composite = MakeEvent(9, 4, 12);
  composite.cbt = {std::make_shared<const Event>(MakeEvent(1, 2, 3)),
                   std::make_shared<const Event>(MakeEvent(2, 4, 5))};
  Event copy = composite;
  ASSERT_EQ(copy.cbt.size(), 2u);
  EXPECT_EQ(copy.cbt.data(), composite.cbt.data());  // one list, not two
  EXPECT_EQ(copy.cbt.front()->id, 1u);
  EXPECT_EQ(copy.cbt.back()->id, 2u);
  EXPECT_FALSE(copy.is_primitive());
}

TEST(LineageTest, ReadsLikeTheVectorItWasBuiltFrom) {
  Lineage::List refs = {std::make_shared<const Event>(MakeEvent(1, 2, 3)),
                        std::make_shared<const Event>(MakeEvent(2, 4, 5)),
                        std::make_shared<const Event>(MakeEvent(3, 6, 7))};
  Lineage lineage = refs;
  ASSERT_EQ(lineage.size(), 3u);
  EXPECT_FALSE(lineage.empty());
  std::vector<EventId> ids;
  for (const EventRef& c : lineage) ids.push_back(c->id);
  EXPECT_EQ(ids, (std::vector<EventId>{1, 2, 3}));
  EXPECT_EQ(lineage[1], refs[1]);  // the same contributor, not a copy

  Lineage none = Lineage::List{};
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(none.begin(), none.end());
  EXPECT_TRUE(MakeEvent(4, 1, 2).is_primitive());
}

}  // namespace
}  // namespace cedr
