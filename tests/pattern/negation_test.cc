// Negation operators at different consistency levels: UNLESS, NOT,
// CANCEL-WHEN and ATMOST, including optimistic retraction and
// resurrection.
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
  NegationOp op(NegationWindow::CancelWhen(/*lookback=*/20), nullptr,
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
  NegationOp op(NegationWindow::CancelWhen(/*lookback=*/20), nullptr,
                ConsistencySpec::Middle());
  auto result = RunMultiPort(&op, {Stream(seq), Stream(before)});
  EXPECT_EQ(result.Ideal().size(), 1u);
}

TEST(CancelWhenOpTest, StrongWaitsAndSuppressesCleanly) {
  EventList seq = denotation::Sequence({{E(1, 1)}, {E(2, 10)}}, 20);
  Event cancel = E(3, 5);
  NegationOp op(NegationWindow::CancelWhen(/*lookback=*/20), nullptr,
                ConsistencySpec::Strong());
  // The canceling event arrives late in CEDR time.
  auto result = RunMultiPort(&op, {Stream(seq), {InsertOf(cancel, 40)}});
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.retracts(), 0u);
  EXPECT_TRUE(result.Ideal().empty());
}

TEST(NegationOpTest, FullRetractionAtTheGuaranteeIsNotLost) {
  // The composite (x@7, y@22) has sync time 22, so it can still be fully
  // retracted while the guarantee is 22: its candidate must outlive that
  // guarantee to be cancelled.
  EventList seq = denotation::Sequence({{E(1, 7)}, {E(2, 22)}}, 20);
  ASSERT_EQ(seq.size(), 1u);
  for (NegationWindow window :
       {NegationWindow::Not(/*lookback=*/20),
        NegationWindow::CancelWhen(/*lookback=*/20)}) {
    SCOPED_TRACE(window.name());
    NegationOp op(window, nullptr, ConsistencySpec::Strong());
    auto result = RunMultiPort(
        &op,
        {{CtiOf(22, 20), InsertOf(seq[0], 22), RetractOf(seq[0], 22, 23)},
         {CtiOf(22, 19)}});
    ASSERT_TRUE(result.status.ok());
    EXPECT_TRUE(result.Ideal().empty());
    EXPECT_EQ(op.stats().lost_corrections, 0u);
  }
}

// ATMOST(n, ..., w) is a pooled NegationOp: every arrival blocks, and
// counts itself.
NegationOp MakeAtMost(size_t n, int num_inputs, Duration scope,
                      ConsistencySpec spec) {
  return NegationOp(NegationWindow::AtMost(n, scope), nullptr, spec,
                    num_inputs);
}

TEST(NegationOpTest, WeakForgetsACertainCandidateWhileTheHorizonHolds) {
  // Weak(5): the horizon is max(guarantee, watermark - 5). The CTI at 50
  // makes the candidate at 10 certain (its detection window is empty and
  // its output never ends, so the horizon cannot freeze it), while the
  // watermark at 100 holds the horizon at 95.
  NegationOp op(NegationWindow::CancelWhen(/*lookback=*/20), nullptr,
                ConsistencySpec::Weak(5));
  ASSERT_TRUE(op.Push(0, InsertOf(MakeEvent(1, 10, kInfinity, KV(0, 1)), 1))
                  .ok());
  ASSERT_TRUE(op.Push(1, InsertOf(E(2, 100), 2)).ok());
  ASSERT_TRUE(
      op.Push(0, InsertOf(MakeEvent(3, 100, kInfinity, KV(0, 3)), 3)).ok());
  EXPECT_EQ(op.StateSize(), 3u);  // two candidates, one blocker
  ASSERT_TRUE(op.Push(0, CtiOf(50, 4)).ok());
  ASSERT_TRUE(op.Push(1, CtiOf(50, 5)).ok());
  EXPECT_EQ(op.StateSize(), 2u);
}

TEST(NegationOpTest, ABlockerThatMovesTheWatermarkEmitsADueCandidate) {
  // B = 5: the CTI at 12 releases the candidate at 10, due at 15. The
  // blocker at 40 releases the one at 30, outside the candidate's window,
  // which moves the watermark to 30: that push emits the candidate.
  NegationOp op(NegationWindow::Unless(10), nullptr,
                ConsistencySpec::Custom(5, kInfinity));
  CollectingSink sink;
  op.ConnectTo(&sink, 0);
  ASSERT_TRUE(op.Push(0, InsertOf(E(1, 10), 1)).ok());
  ASSERT_TRUE(op.Push(0, CtiOf(12, 2)).ok());
  ASSERT_TRUE(op.Push(1, InsertOf(E(2, 30), 3)).ok());
  EXPECT_EQ(sink.inserts(), 0u);
  ASSERT_TRUE(op.Push(1, InsertOf(E(3, 40), 4)).ok());
  EXPECT_EQ(sink.inserts(), 1u);
}

TEST(AtMostOpTest, MatchesDenotationInOrder) {
  EventList a = {E(1, 1), E(2, 2), E(3, 3)};
  NegationOp op = MakeAtMost(1, 1, /*scope=*/2, ConsistencySpec::Middle());
  auto result = RunMultiPort(&op, {Stream(a)});
  ASSERT_TRUE(result.status.ok());
  EXPECT_TRUE(StarEqual(result.Ideal(), denotation::AtMost(1, {a}, 2)));
}

TEST(AtMostOpTest, StragglerBumpsCountAndRetracts) {
  // Event at 5 emitted (count 1 <= 1); a straggler at 4 makes the
  // window (3, 5] hold two events: the emitted composite is retracted.
  Event on_time = E(1, 5);
  Event straggler = E(2, 4);
  NegationOp op = MakeAtMost(1, 1, 2, ConsistencySpec::Middle());
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
  NegationOp op = MakeAtMost(1, 1, 2, ConsistencySpec::Middle());
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
  NegationOp op = MakeAtMost(1, 1, 2, ConsistencySpec::Strong());
  auto result = RunMultiPort(
      &op, {{InsertOf(on_time, 5), InsertOf(straggler, 6)}});
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.retracts(), 0u);
  EXPECT_TRUE(StarEqual(result.Ideal(),
                        denotation::AtMost(1, {{straggler, on_time}}, 2)));
}

TEST(AtMostOpTest, StrongHoldsEqualVsArrivalsUntilTheGuaranteePasses) {
  // After CTI 5, two events at Vs 5 arrive one at a time. The first
  // alone fits the pool (3, 5], but the second, still legal at
  // guarantee 5, crowds it: strong must not emit the first and then
  // retract it.
  Event e1 = E(1, 5);
  Event e2 = E(2, 5);
  NegationOp op = MakeAtMost(1, 1, 2, ConsistencySpec::Strong());
  auto result = RunMultiPort(
      &op, {{CtiOf(5, 1), InsertOf(e1, 2), InsertOf(e2, 3)}});
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.retracts(), 0u);
  EXPECT_TRUE(
      StarEqual(result.Ideal(), denotation::AtMost(1, {{e1, e2}}, 2)));
}

TEST(AtMostOpTest, PoolsPortsAndRetractsPooledEvents) {
  // Port 1's event crowds port 0's window (4, 6] and is crowded in its
  // own; its full retraction cancels its candidate and resurrects b.
  Event a = E(1, 4);
  Event crowd = E(2, 5);
  Event b = E(3, 6);
  NegationOp op(NegationWindow::AtMost(1, 2), nullptr,
                ConsistencySpec::Middle(), /*num_inputs=*/2);
  auto result = RunMultiPort(
      &op, {{InsertOf(a, 4), InsertOf(b, 6)},
            {InsertOf(crowd, 5), RetractOf(crowd, 5, 7)}});
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(op.stats().lost_corrections, 0u);
  EXPECT_TRUE(
      StarEqual(result.Ideal(), denotation::AtMost(1, {{a}, {b}}, 2)));
  EXPECT_EQ(result.Ideal().size(), 2u);
}

TEST(AtMostOpTest, EmptyLifetimeArrivalNeitherCountsNorEmits) {
  // The input's ideal drops an event with an empty lifetime and holds
  // only a, so the empty one must not crowd a's pool (3, 5] nor have an
  // output of its own.
  Event empty = MakeEvent(1, 4, 4, KV(0, 1));
  Event a = E(2, 5);
  NegationOp op = MakeAtMost(1, 1, 2, ConsistencySpec::Middle());
  auto result = RunMultiPort(&op, {{InsertOf(empty, 4), InsertOf(a, 5)}});
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.sink->inserts(), 1u);
  EXPECT_TRUE(
      StarEqual(result.Ideal(), denotation::AtMost(1, {{a}}, 2)));
  EXPECT_EQ(result.Ideal().size(), 1u);
}

TEST(AtMostOpTest, WeakDropsAnArrivalBehindTheFrontier) {
  // ATMOST(0, ...) never holds: each event counts itself. Weak with no
  // memory trims up to Vs 30, so the straggler at Vs 5 is dropped as a
  // lost correction; it must not become an output that counts nothing.
  Event e1 = E(1, 10);
  Event e2 = E(2, 30);
  Event straggler = E(3, 5);
  NegationOp op = MakeAtMost(0, 1, 10, ConsistencySpec::Weak(0));
  auto result = RunMultiPort(
      &op, {{InsertOf(e1, 10), InsertOf(e2, 30), InsertOf(straggler, 31)}});
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.sink->inserts(), 0u);
  EXPECT_TRUE(result.Ideal().empty());
  EXPECT_GT(op.stats().lost_corrections, 0u);
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
