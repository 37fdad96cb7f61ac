// ATLEAST / ALL / ANY runtime detectors.
#include "pattern/counting.h"

#include <gtest/gtest.h>

#include "denotation/patterns.h"
#include "testing/helpers.h"

namespace cedr {
namespace {

using denotation::StarEqual;
using testing::KV;
using testing::RunMultiPort;

Event E(EventId id, Time vs, int64_t key = 0) {
  return MakeEvent(id, vs, TimeAdd(vs, 1), KV(key, static_cast<int64_t>(id)));
}

std::vector<Message> Stream(const EventList& events) {
  std::vector<Message> out;
  for (const Event& e : events) out.push_back(InsertOf(e, e.vs));
  return out;
}

TEST(AtLeastOpTest, MatchesDenotation) {
  EventList a = {E(1, 1)};
  EventList b = {E(2, 3)};
  EventList c = {E(3, 5)};
  AtLeastOp op(2, 3, /*scope=*/10, nullptr, {}, nullptr,
               ConsistencySpec::Middle());
  auto result = RunMultiPort(&op, {Stream(a), Stream(b), Stream(c)});
  ASSERT_TRUE(result.status.ok());
  EXPECT_TRUE(
      StarEqual(result.Ideal(), denotation::AtLeast(2, {a, b, c}, 10)));
}

TEST(AtLeastOpTest, ScopeRespected) {
  EventList a = {E(1, 1)};
  EventList b = {E(2, 3)};
  EventList c = {E(3, 50)};
  AtLeastOp op(2, 3, 10, nullptr, {}, nullptr, ConsistencySpec::Middle());
  auto result = RunMultiPort(&op, {Stream(a), Stream(b), Stream(c)});
  EXPECT_TRUE(
      StarEqual(result.Ideal(), denotation::AtLeast(2, {a, b, c}, 10)));
  EXPECT_EQ(result.Ideal().size(), 1u);
}

TEST(AtLeastOpTest, OutOfOrderCompletion) {
  // The earlier event arrives second; the match must still fire once.
  AtLeastOp op(2, 2, 10, nullptr, {}, nullptr, ConsistencySpec::Middle());
  auto result = RunMultiPort(
      &op, {{InsertOf(E(1, 5), 10)}, {InsertOf(E(2, 7), 9)}});
  EXPECT_EQ(result.Ideal().size(), 1u);
}

TEST(AtLeastOpTest, ContributorRemovalRetracts) {
  Event a = E(1, 1);
  Event b = E(2, 3);
  AtLeastOp op(2, 2, 10, nullptr, {}, nullptr, ConsistencySpec::Middle());
  auto result = RunMultiPort(
      &op, {{InsertOf(a, 1), RetractOf(a, 1, 4)}, {InsertOf(b, 3)}});
  EXPECT_TRUE(result.Ideal().empty());
  EXPECT_EQ(result.retracts(), 1u);
}

TEST(AllOpTest, RequiresEveryInput) {
  EventList a = {E(1, 1)};
  EventList b = {E(2, 3)};
  EventList c = {E(3, 5)};
  AtLeastOp op(3, 3, 10, nullptr, {}, nullptr, ConsistencySpec::Middle());
  auto result = RunMultiPort(&op, {Stream(a), Stream(b), Stream(c)});
  EXPECT_TRUE(StarEqual(result.Ideal(), denotation::All({a, b, c}, 10)));
  EXPECT_EQ(result.Ideal().size(), 1u);
}

TEST(AllOpTest, MissingInputProducesNothing) {
  EventList a = {E(1, 1)};
  EventList b = {E(2, 3)};
  AtLeastOp op(3, 3, 10, nullptr, {}, nullptr, ConsistencySpec::Middle());
  auto result = RunMultiPort(&op, {Stream(a), Stream(b), {}});
  EXPECT_TRUE(result.Ideal().empty());
}

TEST(AnyOpTest, FiresPerEvent) {
  EventList a = {E(1, 1), E(2, 3)};
  EventList b = {E(3, 5)};
  AtLeastOp op(1, 2, /*scope=*/1, nullptr, {}, nullptr,
               ConsistencySpec::Middle());
  auto result = RunMultiPort(&op, {Stream(a), Stream(b)});
  EXPECT_EQ(result.Ideal().size(), 3u);
}

}  // namespace
}  // namespace cedr
