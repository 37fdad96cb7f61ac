// Stress and edge coverage for the shared negation machinery: large
// candidate/blocker populations under disorder, resurrection chains,
// freezing, and index compaction.
#include <gtest/gtest.h>

#include <algorithm>

#include "denotation/patterns.h"
#include "pattern/negation.h"
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

TEST(NegationStressTest, ResurrectionChain) {
  // Blocker inserted, removed, reinserted (fresh id), removed again:
  // the candidate's output flips suppressed -> emitted -> retracted ->
  // emitted, converging to present.
  Event e1 = E(1, 10);
  Event b1 = E(2, 12);
  Event b2 = E(3, 13);
  NegationOp op(NegationWindow::Unless(5), nullptr, ConsistencySpec::Middle());
  auto result = RunMultiPort(
      &op, {{InsertOf(e1, 10)},
            {InsertOf(b1, 11), RetractOf(b1, 12, 20), InsertOf(b2, 21),
             RetractOf(b2, 13, 30)}});
  ASSERT_TRUE(result.status.ok());
  EventList ideal = result.Ideal();
  ASSERT_EQ(ideal.size(), 1u);
  EXPECT_EQ(ideal[0].valid(), (Interval{10, 15}));
  // At least one retraction happened along the way (the b2 insertion
  // killed a live output).
  EXPECT_GE(result.retracts(), 1u);
}

TEST(NegationStressTest, ManyCandidatesManyBlockersConverge) {
  Rng rng(99);
  EventList e1s, e2s;
  for (int i = 0; i < 200; ++i) {
    e1s.push_back(E(static_cast<EventId>(i + 1), rng.NextInt(0, 500),
                    rng.NextInt(0, 4)));
    if (i % 2 == 0) {
      e2s.push_back(E(static_cast<EventId>(i + 1000),
                      rng.NextInt(0, 500), rng.NextInt(0, 4)));
    }
  }
  auto by_vs = [](EventList* list) {
    std::sort(list->begin(), list->end(),
              [](const Event& a, const Event& b) { return a.vs < b.vs; });
  };
  by_vs(&e1s);
  by_vs(&e2s);
  auto neg = [](const std::vector<const Event*>& tuple, const Event& z) {
    return tuple[0]->payload.at(0) == z.payload.at(0);
  };
  EventList expected = denotation::Unless(e1s, e2s, 8, neg);

  auto stream = [](const EventList& events) {
    std::vector<Message> out;
    for (const Event& e : events) out.push_back(InsertOf(e, e.vs));
    return out;
  };
  DisorderConfig config;
  config.disorder_fraction = 0.6;
  config.max_delay = 20;
  config.cti_period = 7;
  config.seed = 5;
  std::vector<Message> d1 = ApplyDisorder(stream(e1s), config);
  config.seed = 6;
  std::vector<Message> d2 = ApplyDisorder(stream(e2s), config);

  NegationOp op(NegationWindow::Unless(8), neg, ConsistencySpec::Middle());
  auto result = RunMultiPort(&op, {d1, d2});
  ASSERT_TRUE(result.status.ok());
  EXPECT_TRUE(StarEqual(result.Ideal(), expected));
  // Index compaction keeps state bounded relative to the population.
  EXPECT_LE(op.stats().max_state_size, 600u);
}

TEST(NegationStressTest, FrozenPendingResolvesFromKnownBlockers) {
  // Weak consistency: a pending candidate whose window falls behind the
  // horizon is frozen - it must still consult the blockers it has seen.
  Event e1 = E(1, 10);
  Event blocker = E(2, 12);
  Event later = E(3, 200);  // advances the watermark far past the window
  NegationOp op(NegationWindow::Unless(5), nullptr, ConsistencySpec::Weak(3));
  auto result = RunMultiPort(
      &op, {{InsertOf(e1, 10), InsertOf(later, 200)},
            {InsertOf(blocker, 11)}});
  ASSERT_TRUE(result.status.ok());
  // e1's output is suppressed by the blocker even though the decision
  // happened at freeze time.
  for (const Event& e : result.Ideal()) {
    EXPECT_NE(e.vs, 10);
  }
}

TEST(NegationStressTest, CancelOfUnknownCandidateCountsLost) {
  NegationOp op(NegationWindow::Unless(5), nullptr, ConsistencySpec::Middle());
  CollectingSink sink;
  op.ConnectTo(&sink, 0);
  Event ghost = E(7, 10);
  // A full removal for a candidate that was never inserted.
  ASSERT_TRUE(op.Push(0, RetractOf(ghost, 10, 5)).ok());
  EXPECT_EQ(op.stats().lost_corrections, 1u);
}

TEST(NegationStressTest, NotSequenceLookbackKeepsDistantBlockers) {
  // A composite whose first contributor is far behind its Vs: blockers
  // in that span must still be consulted even after CTIs advanced.
  Event a = E(1, 5);
  Event b = E(2, 95);
  EventList seq = denotation::Sequence({{a}, {b}}, 100);
  ASSERT_EQ(seq.size(), 1u);
  Event blocker = E(3, 50);
  NegationOp op(NegationWindow::Not(/*lookback=*/100), nullptr,
                ConsistencySpec::Middle());
  auto result = RunMultiPort(
      &op,
      {{InsertOf(seq[0], 95)},
       {InsertOf(blocker, 50), CtiOf(90, 91)}});
  ASSERT_TRUE(result.status.ok());
  EXPECT_TRUE(result.Ideal().empty());  // blocked despite the CTI
}

}  // namespace
}  // namespace cedr
