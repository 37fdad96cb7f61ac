// Negation operators at different consistency levels: UNLESS, NOT,
// CANCEL-WHEN, including optimistic retraction and resurrection.
#include "pattern/negation.h"

#include <gtest/gtest.h>

#include "denotation/patterns.h"
#include "pattern/sequence.h"
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

TEST(UnlessOpTest, EmitsWhenNoBlocker) {
  EventList e1 = {E(1, 10)};
  NegationOp op(NegationWindow::Unless(/*scope=*/5), nullptr,
                ConsistencySpec::Middle());
  auto result = RunMultiPort(&op, {Stream(e1), {}});
  ASSERT_TRUE(result.status.ok());
  EventList ideal = result.Ideal();
  ASSERT_EQ(ideal.size(), 1u);
  EXPECT_EQ(ideal[0].valid(), (Interval{10, 15}));
  EXPECT_TRUE(StarEqual(ideal, denotation::Unless(e1, {}, 5)));
}

TEST(UnlessOpTest, InScopeBlockerSuppresses) {
  EventList e1 = {E(1, 10)};
  EventList e2 = {E(2, 12)};
  NegationOp op(NegationWindow::Unless(5), nullptr, ConsistencySpec::Middle());
  auto result = RunMultiPort(&op, {Stream(e1), Stream(e2)});
  EXPECT_TRUE(result.Ideal().empty());
}

TEST(UnlessOpTest, MiddleEmitsOptimisticallyThenRetracts) {
  // Middle (B=0): the UNLESS output appears immediately at the E1
  // arrival; the blocker arrives later (still within scope in app time)
  // and forces a retraction.
  Event e1 = E(1, 10);
  Event blocker = E(2, 12);
  NegationOp op(NegationWindow::Unless(5), nullptr, ConsistencySpec::Middle());
  auto result = RunMultiPort(
      &op, {{InsertOf(e1, 10)}, {InsertOf(blocker, 20)}});
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.sink->inserts(), 1u);   // optimistic
  EXPECT_EQ(result.retracts(), 1u);        // repaired
  EXPECT_TRUE(result.Ideal().empty());     // converged
}

TEST(UnlessOpTest, StrongNeverRetracts) {
  Event e1 = E(1, 10);
  Event blocker = E(2, 12);
  NegationOp op(NegationWindow::Unless(5), nullptr, ConsistencySpec::Strong());
  auto result = RunMultiPort(
      &op, {{InsertOf(e1, 10)}, {InsertOf(blocker, 20)}});
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.sink->inserts(), 0u);
  EXPECT_EQ(result.retracts(), 0u);
  EXPECT_TRUE(result.Ideal().empty());
}

TEST(UnlessOpTest, StrongEmitsOnceGuaranteed) {
  Event e1 = E(1, 10);
  NegationOp op(NegationWindow::Unless(5), nullptr, ConsistencySpec::Strong());
  auto result = RunMultiPort(&op, {{InsertOf(e1, 10)}, {}});
  ASSERT_TRUE(result.status.ok());
  ASSERT_EQ(result.Ideal().size(), 1u);
  EXPECT_EQ(result.retracts(), 0u);
}

TEST(UnlessOpTest, BlockerRemovalResurrectsOutput) {
  // The blocker suppresses the candidate, then is fully retracted: the
  // UNLESS output must (re)appear.
  Event e1 = E(1, 10);
  Event blocker = E(2, 12);
  NegationOp op(NegationWindow::Unless(5), nullptr, ConsistencySpec::Middle());
  auto result = RunMultiPort(
      &op, {{InsertOf(e1, 10)},
            {InsertOf(blocker, 11), RetractOf(blocker, 12, 20)}});
  ASSERT_TRUE(result.status.ok());
  EventList ideal = result.Ideal();
  ASSERT_EQ(ideal.size(), 1u);
  EXPECT_EQ(ideal[0].valid(), (Interval{10, 15}));
}

TEST(UnlessOpTest, PositiveRemovalCancelsCandidate) {
  Event e1 = E(1, 10);
  NegationOp op(NegationWindow::Unless(5), nullptr, ConsistencySpec::Middle());
  auto result = RunMultiPort(
      &op, {{InsertOf(e1, 10), RetractOf(e1, 10, 12)}, {}});
  EXPECT_TRUE(result.Ideal().empty());
}

TEST(UnlessOpTest, NegationPredicateInjection) {
  // Only same-key blockers suppress (the CIDR07 query's z predicate).
  Event e1 = E(1, 10, 7);
  Event other_key = E(2, 12, 9);
  Event same_key = E(3, 13, 7);
  auto neg = [](const std::vector<const Event*>& tuple, const Event& z) {
    return tuple[0]->payload.at(0) == z.payload.at(0);
  };
  {
    NegationOp op(NegationWindow::Unless(5), neg, ConsistencySpec::Middle());
    auto result = RunMultiPort(&op, {Stream({e1}), Stream({other_key})});
    EXPECT_EQ(result.Ideal().size(), 1u);
  }
  {
    NegationOp op(NegationWindow::Unless(5), neg, ConsistencySpec::Middle());
    auto result = RunMultiPort(&op, {Stream({e1}), Stream({same_key})});
    EXPECT_TRUE(result.Ideal().empty());
  }
}

TEST(UnlessOpTest, WeakLosesLateCorrection) {
  // Weak with no memory: the optimistic output is emitted, application
  // time moves on (freezing the candidate), and a straggler blocker -
  // one that even violates its provider guarantee - arrives too late:
  // the wrong output stands and the lost correction is counted.
  Event e1 = E(1, 10);
  Event later = E(9, 30);
  Event blocker = E(2, 12);
  std::vector<Message> positives = {InsertOf(e1, 10), InsertOf(later, 30)};
  std::vector<Message> negatives = {CtiOf(20, 31), InsertOf(blocker, 100)};

  NegationOp weak(NegationWindow::Unless(5), nullptr, ConsistencySpec::Weak(0));
  auto weak_result = RunMultiPort(&weak, {positives, negatives});
  ASSERT_TRUE(weak_result.status.ok());
  bool kept_e1_output = false;
  for (const Event& e : weak_result.Ideal()) {
    if (e.vs == 10) kept_e1_output = true;
  }
  EXPECT_TRUE(kept_e1_output);
  EXPECT_GT(weak.stats().lost_corrections, 0u);

  // Middle on the same input repairs: the e1 output is retracted.
  NegationOp middle(NegationWindow::Unless(5), nullptr,
                    ConsistencySpec::Middle());
  auto middle_result = RunMultiPort(&middle, {positives, negatives});
  ASSERT_TRUE(middle_result.status.ok());
  for (const Event& e : middle_result.Ideal()) {
    EXPECT_NE(e.vs, 10);
  }
}

TEST(NotSequenceOpTest, MatchesDenotation) {
  EventList a = {E(1, 1)};
  EventList b = {E(2, 10)};
  EventList seq = denotation::Sequence({a, b}, 20);
  EventList inside = {E(3, 5)};
  NegationOp op(NegationWindow::Not(/*lookback=*/20), nullptr,
                ConsistencySpec::Middle());
  auto result = RunMultiPort(&op, {Stream(seq), Stream(inside)});
  ASSERT_TRUE(result.status.ok());
  EXPECT_TRUE(StarEqual(result.Ideal(),
                        denotation::NotSequence(inside, seq)));
  EXPECT_TRUE(result.Ideal().empty());
}

TEST(NotSequenceOpTest, OutsideBlockerPasses) {
  EventList a = {E(1, 1)};
  EventList b = {E(2, 10)};
  EventList seq = denotation::Sequence({a, b}, 20);
  EventList outside = {E(3, 15)};
  NegationOp op(NegationWindow::Not(20), nullptr, ConsistencySpec::Middle());
  auto result = RunMultiPort(&op, {Stream(seq), Stream(outside)});
  EXPECT_EQ(result.Ideal().size(), 1u);
}

TEST(NotSequenceOpTest, LateBlockerRetractsOptimisticOutput) {
  EventList a = {E(1, 1)};
  EventList b = {E(2, 10)};
  EventList seq = denotation::Sequence({a, b}, 20);
  Event blocker = E(3, 5);
  NegationOp op(NegationWindow::Not(20), nullptr, ConsistencySpec::Middle());
  auto result =
      RunMultiPort(&op, {Stream(seq), {InsertOf(blocker, 50)}});
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.sink->inserts(), 1u);
  EXPECT_EQ(result.retracts(), 1u);
  EXPECT_TRUE(result.Ideal().empty());
}

TEST(CancelWhenOpTest, MatchesDenotation) {
  EventList seq = denotation::Sequence({{E(1, 1)}, {E(2, 10)}}, 20);
  EventList cancel = {E(3, 5)};
  NegationOp op(NegationWindow::CancelWhen(), nullptr,
                ConsistencySpec::Middle());
  auto result = RunMultiPort(&op, {Stream(seq), Stream(cancel)});
  ASSERT_TRUE(result.status.ok());
  EXPECT_TRUE(StarEqual(result.Ideal(),
                        denotation::CancelWhen(seq, cancel)));
  EXPECT_TRUE(result.Ideal().empty());
}

TEST(CancelWhenOpTest, OutsideDetectionWindowPasses) {
  EventList seq = denotation::Sequence({{E(1, 1)}, {E(2, 10)}}, 20);
  EventList before = {E(3, 1)};  // not strictly inside (rt, vs)
  NegationOp op(NegationWindow::CancelWhen(), nullptr,
                ConsistencySpec::Middle());
  auto result = RunMultiPort(&op, {Stream(seq), Stream(before)});
  EXPECT_EQ(result.Ideal().size(), 1u);
}

TEST(CancelWhenOpTest, StrongWaitsAndSuppressesCleanly) {
  EventList seq = denotation::Sequence({{E(1, 1)}, {E(2, 10)}}, 20);
  Event cancel = E(3, 5);
  NegationOp op(NegationWindow::CancelWhen(), nullptr,
                ConsistencySpec::Strong());
  // The canceling event arrives late in CEDR time.
  auto result = RunMultiPort(&op, {Stream(seq), {InsertOf(cancel, 40)}});
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.retracts(), 0u);
  EXPECT_TRUE(result.Ideal().empty());
}

class UnlessDisorderTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(UnlessDisorderTest, ConvergesAcrossLevels) {
  Rng rng(GetParam());
  EventList e1s, e2s;
  for (int i = 0; i < 40; ++i) {
    e1s.push_back(E(static_cast<EventId>(i + 1), rng.NextInt(0, 200),
                    rng.NextInt(0, 3)));
    if (rng.NextBool(0.5)) {
      e2s.push_back(E(static_cast<EventId>(i + 1000), rng.NextInt(0, 200),
                      rng.NextInt(0, 3)));
    }
  }
  auto order = [](EventList* list) {
    std::sort(list->begin(), list->end(),
              [](const Event& x, const Event& y) { return x.vs < y.vs; });
  };
  order(&e1s);
  order(&e2s);

  auto neg = [](const std::vector<const Event*>& tuple, const Event& z) {
    return tuple[0]->payload.at(0) == z.payload.at(0);
  };
  EventList expected = denotation::Unless(
      e1s, e2s, 10,
      [&](const std::vector<const Event*>& tuple, const Event& z) {
        return neg(tuple, z);
      });

  DisorderConfig config;
  config.disorder_fraction = 0.4;
  config.max_delay = 10;
  config.cti_period = 6;
  config.seed = GetParam() + 31;
  std::vector<Message> d1 = ApplyDisorder(Stream(e1s), config);
  config.seed = GetParam() + 32;
  std::vector<Message> d2 = ApplyDisorder(Stream(e2s), config);

  for (ConsistencySpec spec :
       {ConsistencySpec::Strong(), ConsistencySpec::Middle(),
        ConsistencySpec::Custom(4, kInfinity)}) {
    NegationOp op(NegationWindow::Unless(10), neg, spec);
    auto result = RunMultiPort(&op, {d1, d2});
    ASSERT_TRUE(result.status.ok());
    EXPECT_TRUE(StarEqual(result.Ideal(), expected))
        << "spec " << spec.ToString() << "\ngot:\n"
        << testing::Describe(result.Ideal()) << "want:\n"
        << testing::Describe(expected);
    if (spec.IsStrong()) {
      EXPECT_EQ(result.retracts(), 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UnlessDisorderTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace cedr
