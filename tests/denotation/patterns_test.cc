// Section 3.3.2 operator-table semantics: SEQUENCE, ATLEAST, ALL, ANY,
// ATMOST, UNLESS, NOT(SEQUENCE), CANCEL-WHEN, with predicate injection.
#include "denotation/patterns.h"

#include <gtest/gtest.h>

#include "testing/helpers.h"

namespace cedr {
namespace denotation {
namespace {

using testing::KV;

Event E(EventId id, Time vs, int64_t key = 0) {
  return MakeEvent(id, vs, TimeAdd(vs, 1), KV(key, static_cast<int64_t>(id)));
}

TEST(SequenceTest, BasicOrderAndScope) {
  EventList a = {E(1, 1), E(2, 10)};
  EventList b = {E(3, 5), E(4, 20)};
  EventList out = Sequence({a, b}, /*w=*/6);
  // Pairs with a.Vs < b.Vs and span <= 6: (1,5) span 4; (1,20) span 19
  // no; (10,20) span 10 no.
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].vs, 5);              // last contributor's Vs
  EXPECT_EQ(out[0].ve, 1 + 6);          // first.Vs + w
  ASSERT_EQ(out[0].cbt.size(), 2u);
  EXPECT_EQ(out[0].cbt[0]->id, 1u);
  EXPECT_EQ(out[0].cbt[1]->id, 3u);
}

TEST(SequenceTest, StrictlyIncreasingVsRequired) {
  EventList a = {E(1, 5)};
  EventList b = {E(2, 5)};
  EXPECT_TRUE(Sequence({a, b}, 10).empty());  // ties do not sequence
}

TEST(SequenceTest, ThreeWaySequence) {
  EventList a = {E(1, 1)};
  EventList b = {E(2, 2)};
  EventList c = {E(3, 3)};
  EventList out = Sequence({a, b, c}, 10);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].cbt.size(), 3u);
  EXPECT_EQ(out[0].rt, 1);  // min root time
}

TEST(SequenceTest, PayloadsConcatenated) {
  EventList out = Sequence({{E(1, 1, 7)}, {E(2, 2, 8)}}, 10);
  ASSERT_EQ(out.size(), 1u);
  ASSERT_EQ(out[0].payload.size(), 4u);
  EXPECT_EQ(out[0].payload.at(0), Value(7));
  EXPECT_EQ(out[0].payload.at(2), Value(8));
}

TEST(SequenceTest, PredicateInjection) {
  EventList a = {E(1, 1, 7), E(2, 2, 9)};
  EventList b = {E(3, 5, 7), E(4, 6, 9)};
  AttributeComparison eq;
  eq.left_contributor = 0;
  eq.left_attribute = "key";
  eq.right_contributor = 1;
  eq.right_attribute = "key";
  EventList out = Sequence({a, b}, 10, MakeTuplePredicate({eq}));
  // Only key-equal pairs: (1,3) and (2,4).
  ASSERT_EQ(out.size(), 2u);
}

TEST(AtLeastTest, ChoosesSubsetsFromDistinctInputs) {
  EventList a = {E(1, 1)};
  EventList b = {E(2, 3)};
  EventList c = {E(3, 5)};
  EventList out = AtLeast(2, {a, b, c}, /*w=*/10);
  // All 2-subsets with increasing Vs: (1,3), (1,5), (3,5).
  EXPECT_EQ(out.size(), 3u);
}

TEST(AtLeastTest, ScopeBoundsSpan) {
  EventList a = {E(1, 1)};
  EventList b = {E(2, 3)};
  EventList c = {E(3, 50)};
  EventList out = AtLeast(2, {a, b, c}, /*w=*/10);
  ASSERT_EQ(out.size(), 1u);  // only (1,3)
  EXPECT_EQ(out[0].vs, 3);    // ein.Vs (last)
  EXPECT_EQ(out[0].ve, 11);   // ei1.Vs + w
}

TEST(AtLeastTest, OneEventPerInput) {
  EventList a = {E(1, 1), E(2, 3)};  // both from the same input
  EXPECT_TRUE(AtLeast(2, {a}, 10).empty());
}

TEST(AllTest, RequiresEveryInput) {
  EventList a = {E(1, 1)};
  EventList b = {E(2, 3)};
  EventList c = {E(3, 5)};
  EventList out = All({a, b, c}, 10);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].cbt.size(), 3u);
  EXPECT_TRUE(All({a, b, {}}, 10).empty());
}

TEST(AnyTest, FiresPerEvent) {
  EventList a = {E(1, 1), E(2, 3)};
  EventList b = {E(3, 5)};
  EXPECT_EQ(Any({a, b}).size(), 3u);
}

TEST(AtMostTest, CountsWindowOccupancy) {
  // Events at 1, 2, 3 with w=2: window (t-2, t].
  EventList a = {E(1, 1), E(2, 2), E(3, 3)};
  EventList out = AtMost(1, {a}, 2);
  // At t=1: count {1} = 1 <= 1 ok. t=2: {1,2} = 2 > 1. t=3: {2,3} > 1.
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].vs, 1);
}

TEST(AtMostTest, PoolsAcrossInputs) {
  EventList a = {E(1, 1)};
  EventList b = {E(2, 2)};
  EventList out = AtMost(1, {a, b}, 5);
  ASSERT_EQ(out.size(), 1u);  // only the first fits
  EXPECT_EQ(out[0].vs, 1);
}

TEST(UnlessTest, NegationSuppressesInScope) {
  EventList e1 = {E(1, 10)};
  EventList blockers = {E(2, 12)};
  EXPECT_TRUE(Unless(e1, blockers, /*w=*/5).empty());
}

TEST(UnlessTest, OutOfScopeBlockerIgnored) {
  EventList e1 = {E(1, 10)};
  EventList late = {E(2, 15)};    // at vs + w: not strictly inside
  EventList early = {E(3, 10)};   // equal Vs: not strictly after
  EventList out = Unless(e1, late, 5);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].valid(), (Interval{10, 15}));  // [Vs, Vs + w)
  EXPECT_EQ(Unless(e1, early, 5).size(), 1u);
}

TEST(UnlessTest, KeepsTheCompositeLineage) {
  // An enclosing UNLESS' anchors on the n-th contributor of the UNLESS
  // output, so UNLESS passes its composite's lineage through, as UNLESS'
  // and the runtime operator do. A blocker 3 after x (but before the
  // composite) then blocks UNLESS'(UNLESS(...), 1, 5).
  EventList seq = Sequence({{E(1, 2)}, {E(2, 10)}}, 20);
  EventList out = Unless(seq, {}, 5);
  ASSERT_EQ(out.size(), 1u);
  ASSERT_EQ(out[0].cbt.size(), 2u);
  EXPECT_EQ(out[0].cbt[0]->id, 1u);
  EXPECT_EQ(out[0].cbt[1]->id, 2u);
  EXPECT_TRUE(UnlessPrime(out, {E(3, 5)}, 1, 5).empty());
}

TEST(UnlessTest, NegationPredicateInjection) {
  // Only blockers with the same key suppress (the paper's
  // x.Machine_Id = z.Machine_Id).
  EventList e1 = {E(1, 10, 7)};
  EventList blockers = {E(2, 12, 9)};  // different key
  AttributeComparison eq;
  eq.left_contributor = 0;
  eq.left_attribute = "key";
  eq.right_contributor = 1;  // the negated contributor's marker
  eq.right_attribute = "key";
  EventList out = Unless(e1, blockers, 5, MakeNegationPredicate({eq}, 1));
  EXPECT_EQ(out.size(), 1u);
  EventList same_key = {E(3, 12, 7)};
  EXPECT_TRUE(
      Unless(e1, same_key, 5, MakeNegationPredicate({eq}, 1)).empty());
}

TEST(NotSequenceTest, BlocksBetweenFirstAndLast) {
  EventList a = {E(1, 1)};
  EventList b = {E(2, 10)};
  EventList seq = Sequence({a, b}, 20);
  ASSERT_EQ(seq.size(), 1u);
  EventList inside = {E(3, 5)};
  EXPECT_TRUE(NotSequence(inside, seq).empty());
  EventList outside = {E(4, 15)};
  EXPECT_EQ(NotSequence(outside, seq).size(), 1u);
  EventList at_edges = {E(5, 1), E(6, 10)};  // strict bounds
  EXPECT_EQ(NotSequence(at_edges, seq).size(), 1u);
}

TEST(CancelWhenTest, CancelsDuringPartialDetection) {
  // Composite with root time 1 and Vs 10: an E2 strictly inside (1, 10)
  // cancels it.
  EventList seq = Sequence({{E(1, 1)}, {E(2, 10)}}, 20);
  ASSERT_EQ(seq.size(), 1u);
  EXPECT_EQ(seq[0].rt, 1);
  EventList cancel = {E(3, 5)};
  EXPECT_TRUE(CancelWhen(seq, cancel).empty());
  EventList before = {E(4, 1)};
  EXPECT_EQ(CancelWhen(seq, before).size(), 1u);
  EventList after = {E(5, 10)};
  EXPECT_EQ(CancelWhen(seq, after).size(), 1u);
}

TEST(ComposabilityTest, AllOfNotOfSequence) {
  // ALL(E1, NOT(E2, SEQUENCE(E3, E4, w')), w) - the paper's
  // composability example.
  EventList e1 = {E(1, 2)};
  EventList e3 = {E(3, 4)};
  EventList e4 = {E(4, 8)};
  EventList inner = Sequence({e3, e4}, /*w'=*/10);
  ASSERT_EQ(inner.size(), 1u);
  EventList no_e2 = NotSequence({}, inner);
  ASSERT_EQ(no_e2.size(), 1u);
  EventList out = All({e1, no_e2}, /*w=*/20);
  ASSERT_EQ(out.size(), 1u);
  // With an E2 between E3 and E4 the whole thing vanishes.
  EventList e2 = {E(2, 6)};
  EXPECT_TRUE(All({e1, NotSequence(e2, inner)}, 20).empty());
}

TEST(SequenceTest, OutputIdsDeterministic) {
  EventList out1 = Sequence({{E(1, 1)}, {E(2, 2)}}, 10);
  EventList out2 = Sequence({{E(1, 1)}, {E(2, 2)}}, 10);
  ASSERT_EQ(out1.size(), 1u);
  EXPECT_EQ(out1[0].id, out2[0].id);
}

}  // namespace
}  // namespace denotation
}  // namespace cedr
