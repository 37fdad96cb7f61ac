// The positive pattern detector (SEQUENCE, ALL, ATLEAST, ANY) vs the
// denotational semantics: ordered, disordered, retracted, and SC-mode
// behaviour.
#include "pattern/sequence.h"

#include <gtest/gtest.h>

#include "denotation/patterns.h"
#include "testing/helpers.h"
#include "workload/disorder.h"

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

TEST(SequenceOpTest, MatchesDenotationInOrder) {
  EventList a = {E(1, 1), E(2, 10)};
  EventList b = {E(3, 5), E(4, 20)};
  PatternOp op(2, /*ordered=*/true, 2, /*scope=*/6, nullptr, {}, nullptr,
                ConsistencySpec::Middle());
  auto result = RunMultiPort(&op, {Stream(a), Stream(b)});
  ASSERT_TRUE(result.status.ok());
  EXPECT_TRUE(StarEqual(result.Ideal(), denotation::Sequence({a, b}, 6)));
}

TEST(SequenceOpTest, OutOfOrderArrivalStillMatches) {
  // The first contributor arrives after the second (monotonic repair:
  // the match appears late, no retraction needed).
  Event first = E(1, 1);
  Event second = E(2, 3);
  PatternOp op(2, /*ordered=*/true, 2, 10, nullptr, {}, nullptr,
               ConsistencySpec::Middle());
  auto result = RunMultiPort(
      &op, {{InsertOf(first, 5)}, {InsertOf(second, 4)}});
  ASSERT_TRUE(result.status.ok());
  EventList ideal = result.Ideal();
  ASSERT_EQ(ideal.size(), 1u);
  EXPECT_EQ(ideal[0].vs, 3);
  EXPECT_EQ(result.retracts(), 0u);
}

TEST(SequenceOpTest, ContributorRemovalRetractsComposite) {
  Event a = E(1, 1);
  Event b = E(2, 3);
  PatternOp op(2, /*ordered=*/true, 2, 10, nullptr, {}, nullptr,
               ConsistencySpec::Middle());
  auto result = RunMultiPort(
      &op, {{InsertOf(a, 1), RetractOf(a, 1, 5)}, {InsertOf(b, 3)}});
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.sink->inserts(), 1u);   // optimistic match
  EXPECT_EQ(result.retracts(), 1u);        // repaired away
  EXPECT_TRUE(result.Ideal().empty());     // converged: no match
}

TEST(SequenceOpTest, PartialShrinkDoesNotRetract) {
  Event a = MakeEvent(1, 1, 100, KV(0, 1));
  Event b = E(2, 3);
  PatternOp op(2, /*ordered=*/true, 2, 10, nullptr, {}, nullptr,
               ConsistencySpec::Middle());
  auto result = RunMultiPort(
      &op, {{InsertOf(a, 1), RetractOf(a, 50, 5)}, {InsertOf(b, 3)}});
  EXPECT_EQ(result.retracts(), 0u);
  EXPECT_EQ(result.Ideal().size(), 1u);  // occurrence (Vs) unchanged
}

TEST(SequenceOpTest, PredicateFiltersAcrossContributors) {
  EventList a = {E(1, 1, 7), E(2, 2, 9)};
  EventList b = {E(3, 5, 7), E(4, 6, 9)};
  auto pred = [](const std::vector<const Event*>& tuple,
                 const std::vector<int>&) {
    if (tuple.size() < 2) return true;
    return tuple[0]->payload.at(0) == tuple[1]->payload.at(0);
  };
  PatternOp op(2, /*ordered=*/true, 2, 10, pred, {}, nullptr,
               ConsistencySpec::Middle());
  auto result = RunMultiPort(&op, {Stream(a), Stream(b)});
  EXPECT_EQ(result.Ideal().size(), 2u);  // key-equal pairs only
}

TEST(SequenceOpTest, ConsumptionPreventsReuse) {
  // Port 0 contributor consumed after first match: second B event finds
  // no A.
  EventList a = {E(1, 1)};
  EventList b = {E(2, 3), E(3, 5)};
  ScModes modes(2);
  modes[0].consumption = ConsumptionMode::kConsume;
  PatternOp op(2, /*ordered=*/true, 2, 10, nullptr, modes, nullptr,
               ConsistencySpec::Middle());
  auto result = RunMultiPort(&op, {Stream(a), Stream(b)});
  EXPECT_EQ(result.Ideal().size(), 1u);
}

TEST(SequenceOpTest, ReuseAllowsMultipleMatches) {
  EventList a = {E(1, 1)};
  EventList b = {E(2, 3), E(3, 5)};
  PatternOp op(2, /*ordered=*/true, 2, 10, nullptr, {}, nullptr,
               ConsistencySpec::Middle());
  auto result = RunMultiPort(&op, {Stream(a), Stream(b)});
  EXPECT_EQ(result.Ideal().size(), 2u);
}

TEST(SequenceOpTest, FirstSelectionPicksEarliest) {
  EventList a = {E(1, 1), E(2, 2)};
  EventList b = {E(3, 5)};
  ScModes modes(2);
  modes[0].selection = SelectionMode::kFirst;
  PatternOp op(2, /*ordered=*/true, 2, 10, nullptr, modes, nullptr,
               ConsistencySpec::Middle());
  auto result = RunMultiPort(&op, {Stream(a), Stream(b)});
  EventList ideal = result.Ideal();
  ASSERT_EQ(ideal.size(), 1u);
  EXPECT_EQ(ideal[0].cbt[0]->id, 1u);  // earliest A
}

TEST(SequenceOpTest, LastSelectionPicksLatest) {
  EventList a = {E(1, 1), E(2, 2)};
  EventList b = {E(3, 5)};
  ScModes modes(2);
  modes[0].selection = SelectionMode::kLast;
  PatternOp op(2, /*ordered=*/true, 2, 10, nullptr, modes, nullptr,
               ConsistencySpec::Middle());
  auto result = RunMultiPort(&op, {Stream(a), Stream(b)});
  EventList ideal = result.Ideal();
  ASSERT_EQ(ideal.size(), 1u);
  EXPECT_EQ(ideal[0].cbt[0]->id, 2u);  // latest A
}

TEST(AtLeastOpTest, MatchesDenotation) {
  EventList a = {E(1, 1)};
  EventList b = {E(2, 3)};
  EventList c = {E(3, 5)};
  PatternOp op(2, /*ordered=*/false, 3, /*scope=*/10, nullptr, {}, nullptr,
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
  PatternOp op(2, /*ordered=*/false, 3, 10, nullptr, {}, nullptr,
               ConsistencySpec::Middle());
  auto result = RunMultiPort(&op, {Stream(a), Stream(b), Stream(c)});
  EXPECT_TRUE(
      StarEqual(result.Ideal(), denotation::AtLeast(2, {a, b, c}, 10)));
  EXPECT_EQ(result.Ideal().size(), 1u);
}

TEST(AtLeastOpTest, OutOfOrderCompletion) {
  // The earlier event arrives second; the match must still fire once.
  PatternOp op(2, /*ordered=*/false, 2, 10, nullptr, {}, nullptr,
               ConsistencySpec::Middle());
  auto result = RunMultiPort(
      &op, {{InsertOf(E(1, 5), 10)}, {InsertOf(E(2, 7), 9)}});
  EXPECT_EQ(result.Ideal().size(), 1u);
}

TEST(AtLeastOpTest, ContributorRemovalRetracts) {
  Event a = E(1, 1);
  Event b = E(2, 3);
  PatternOp op(2, /*ordered=*/false, 2, 10, nullptr, {}, nullptr,
               ConsistencySpec::Middle());
  auto result = RunMultiPort(
      &op, {{InsertOf(a, 1), RetractOf(a, 1, 4)}, {InsertOf(b, 3)}});
  EXPECT_TRUE(result.Ideal().empty());
  EXPECT_EQ(result.retracts(), 1u);
}

TEST(AllOpTest, RequiresEveryInput) {
  EventList a = {E(1, 1)};
  EventList b = {E(2, 3)};
  EventList c = {E(3, 5)};
  PatternOp op(3, /*ordered=*/false, 3, 10, nullptr, {}, nullptr,
               ConsistencySpec::Middle());
  auto result = RunMultiPort(&op, {Stream(a), Stream(b), Stream(c)});
  EXPECT_TRUE(StarEqual(result.Ideal(), denotation::All({a, b, c}, 10)));
  EXPECT_EQ(result.Ideal().size(), 1u);
}

TEST(AllOpTest, MissingInputProducesNothing) {
  EventList a = {E(1, 1)};
  EventList b = {E(2, 3)};
  PatternOp op(3, /*ordered=*/false, 3, 10, nullptr, {}, nullptr,
               ConsistencySpec::Middle());
  auto result = RunMultiPort(&op, {Stream(a), Stream(b), {}});
  EXPECT_TRUE(result.Ideal().empty());
}

TEST(AnyOpTest, FiresPerEvent) {
  EventList a = {E(1, 1), E(2, 3)};
  EventList b = {E(3, 5)};
  PatternOp op(1, /*ordered=*/false, 2, /*scope=*/1, nullptr, {}, nullptr,
               ConsistencySpec::Middle());
  auto result = RunMultiPort(&op, {Stream(a), Stream(b)});
  EXPECT_EQ(result.Ideal().size(), 3u);
}

// Every positive construct over the same disordered streams: the
// converged output is the denotation's at strong and middle.
class SequenceDisorderTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SequenceDisorderTest, WellBehavedUnderDisorder) {
  Rng rng(GetParam());
  EventList a, b, c;
  for (int i = 0; i < 30; ++i) {
    a.push_back(E(static_cast<EventId>(i * 2 + 1), rng.NextInt(0, 100),
                  rng.NextInt(0, 2)));
    b.push_back(E(static_cast<EventId>(i * 2 + 2), rng.NextInt(0, 100),
                  rng.NextInt(0, 2)));
  }
  for (int i = 0; i < 30; ++i) {
    c.push_back(E(static_cast<EventId>(61 + i), rng.NextInt(0, 100)));
  }
  auto order = [](EventList* list) {
    std::sort(list->begin(), list->end(),
              [](const Event& x, const Event& y) { return x.vs < y.vs; });
  };
  order(&a);
  order(&b);
  order(&c);

  DisorderConfig config;
  config.disorder_fraction = 0.5;
  config.max_delay = 15;
  config.cti_period = 8;
  config.seed = GetParam() + 7;
  std::vector<Message> da = ApplyDisorder(Stream(a), config);
  config.seed = GetParam() + 8;
  std::vector<Message> db = ApplyDisorder(Stream(b), config);
  config.seed = GetParam() + 9;
  std::vector<Message> dc = ApplyDisorder(Stream(c), config);

  struct Construct {
    const char* name;
    size_t n;
    bool ordered;
    Duration scope;
    std::vector<std::vector<Message>> inputs;
    EventList expected;
  };
  const std::vector<Construct> constructs = {
      {"SEQUENCE", 2, true, 12, {da, db}, denotation::Sequence({a, b}, 12)},
      {"ALL", 2, false, 12, {da, db}, denotation::All({a, b}, 12)},
      {"ATLEAST(2 of 3)", 2, false, 12, {da, db, dc},
       denotation::AtLeast(2, {a, b, c}, 12)},
      {"ANY", 1, false, 1, {da, db}, denotation::Any({a, b})},
  };
  for (const Construct& construct : constructs) {
    for (ConsistencySpec spec :
         {ConsistencySpec::Strong(), ConsistencySpec::Middle()}) {
      PatternOp op(construct.n, construct.ordered,
                   static_cast<int>(construct.inputs.size()), construct.scope,
                   nullptr, {}, nullptr, spec);
      auto result = RunMultiPort(&op, construct.inputs);
      ASSERT_TRUE(result.status.ok());
      EXPECT_TRUE(StarEqual(result.Ideal(), construct.expected))
          << construct.name << " spec " << spec.ToString() << "\ngot:\n"
          << testing::Describe(result.Ideal()) << "want:\n"
          << testing::Describe(construct.expected);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SequenceDisorderTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace cedr
