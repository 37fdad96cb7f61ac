// ATLEAST / ALL / ANY / ATMOST runtime detectors.
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

TEST(AtMostOpTest, MatchesDenotationInOrder) {
  EventList a = {E(1, 1), E(2, 2), E(3, 3)};
  AtMostOp op(1, 1, /*scope=*/2, nullptr, ConsistencySpec::Middle());
  auto result = RunMultiPort(&op, {Stream(a)});
  ASSERT_TRUE(result.status.ok());
  EXPECT_TRUE(StarEqual(result.Ideal(), denotation::AtMost(1, {a}, 2)));
}

TEST(AtMostOpTest, StragglerBumpsCountAndRetracts) {
  // Event at 5 emitted (count 1 <= 1); a straggler at 4 makes the
  // window (3, 5] hold two events: the emitted composite is retracted.
  Event on_time = E(1, 5);
  Event straggler = E(2, 4);
  AtMostOp op(1, 1, 2, nullptr, ConsistencySpec::Middle());
  auto result = RunMultiPort(
      &op, {{InsertOf(on_time, 5), InsertOf(straggler, 6)}});
  ASSERT_TRUE(result.status.ok());
  EXPECT_GE(result.retracts(), 1u);
  EXPECT_TRUE(StarEqual(result.Ideal(),
                        denotation::AtMost(1, {{straggler, on_time}}, 2)));
}

TEST(AtMostOpTest, RemovalResurrectsSuppressedOutput) {
  // Two events in one window suppress each other (n=1); removing one
  // resurrects the other.
  Event a = E(1, 4);
  Event b = E(2, 5);
  AtMostOp op(1, 1, 2, nullptr, ConsistencySpec::Middle());
  auto result = RunMultiPort(
      &op, {{InsertOf(a, 4), InsertOf(b, 5), RetractOf(a, 4, 6)}});
  ASSERT_TRUE(result.status.ok());
  EventList ideal = result.Ideal();
  ASSERT_EQ(ideal.size(), 1u);
  EXPECT_EQ(ideal[0].vs, 5);
  EXPECT_TRUE(StarEqual(ideal, denotation::AtMost(1, {{b}}, 2)));
}

TEST(AtMostOpTest, StrongBlocksUntilCertain) {
  // Under strong consistency the alignment buffer orders input, so no
  // retraction is ever emitted even with disorder.
  Event on_time = E(1, 5);
  Event straggler = E(2, 4);
  AtMostOp op(1, 1, 2, nullptr, ConsistencySpec::Strong());
  auto result = RunMultiPort(
      &op, {{InsertOf(on_time, 5), InsertOf(straggler, 6)}});
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.retracts(), 0u);
  EXPECT_TRUE(StarEqual(result.Ideal(),
                        denotation::AtMost(1, {{straggler, on_time}}, 2)));
}

}  // namespace
}  // namespace cedr
