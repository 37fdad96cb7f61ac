// The UNLESS' variant (Section 3.3.2): negation scope anchored at the
// n-th contributor of the positive composite.
#include <gtest/gtest.h>

#include "denotation/patterns.h"
#include "engine/query.h"
#include "pattern/negation.h"
#include "pattern/sequence.h"
#include "testing/helpers.h"
#include "workload/machines.h"

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

EventList Composites() {
  // Sequence (a@2, b@20) within scope 30.
  return denotation::Sequence({{E(1, 2)}, {E(2, 20)}}, 30);
}

TEST(UnlessPrimeDenotationTest, AnchorsAtChosenContributor) {
  // Three contributors a@2, b@8, c@20 so that anchor 2 is not the last
  // (anchoring at the last contributor degenerates like the primitive
  // case: the deferred start reaches the nominal end).
  EventList seq = denotation::Sequence({{E(1, 2)}, {E(2, 8)}, {E(3, 20)}},
                                       /*w=*/30);
  ASSERT_EQ(seq.size(), 1u);
  // Anchored at contributor 1 (a@2), w=10: blockers in (2, 12).
  EventList blocker_early = {E(4, 5)};
  EXPECT_TRUE(denotation::UnlessPrime(seq, blocker_early, 1, 10).empty());
  // Anchored at contributor 2 (b@8), w=10: window (8, 18); the early
  // blocker at 5 is outside it.
  EventList out = denotation::UnlessPrime(seq, blocker_early, 2, 10);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].valid(), (Interval{20, 30}));  // vs=max(20,18), ve=20+10
  EventList blocker_mid = {E(5, 12)};  // inside (8, 18)
  EXPECT_TRUE(denotation::UnlessPrime(seq, blocker_mid, 2, 10).empty());
}

TEST(UnlessPrimeDenotationTest, OutputStartDeferredToScopeEnd) {
  EventList seq = Composites();  // composite vs = 20
  // Anchor contributor 1 (vs 2), w = 10: scope ends at 12 < 20, so the
  // output keeps Vs 20. Anchor contributor 2 (vs 20), w = 10: scope
  // ends at 30 > 20, so Vs moves to 30 and Ve stays 20 + 10 = 30 ->
  // empty -> no output... with w = 15, Vs = 35 vs Ve = 35: also empty.
  EventList out1 = denotation::UnlessPrime(seq, {}, 1, 10);
  ASSERT_EQ(out1.size(), 1u);
  EXPECT_EQ(out1[0].valid(), (Interval{20, 30}));
  EXPECT_TRUE(denotation::UnlessPrime(seq, {}, 2, 10).empty());
}

TEST(UnlessPrimeDenotationTest, ShortLineageProducesNothing) {
  EventList primitives = {E(1, 5)};  // cbt empty: only n == 1 applies
  // For a primitive the anchor is the event itself, so the deferred
  // start (anchor + w) always reaches the nominal end (Vs + w): the
  // paper-literal rule degenerates to no output - UNLESS' is only
  // meaningful over composites (use plain UNLESS for primitives).
  EXPECT_TRUE(denotation::UnlessPrime(primitives, {}, 1, 3).empty());
  EXPECT_TRUE(denotation::UnlessPrime(primitives, {}, 2, 3).empty());
}

TEST(UnlessPrimeOpTest, MatchesDenotation) {
  EventList seq = Composites();
  EventList blockers = {E(3, 5), E(4, 25)};
  for (size_t n : {1u, 2u}) {
    NegationOp op(NegationWindow::UnlessPrime(n, 10, /*lookback=*/30), nullptr,
                  ConsistencySpec::Middle());
    auto result = RunMultiPort(&op, {Stream(seq), Stream(blockers)});
    ASSERT_TRUE(result.status.ok());
    EXPECT_TRUE(StarEqual(result.Ideal(),
                          denotation::UnlessPrime(seq, blockers, n, 10)))
        << "n=" << n;
  }
}

TEST(UnlessPrimeOpTest, OptimisticRepairOnLateBlocker) {
  EventList seq = Composites();
  Event blocker = E(3, 5);  // inside the n=1 window (2, 12)
  NegationOp op(NegationWindow::UnlessPrime(1, 10, /*lookback=*/30), nullptr,
                ConsistencySpec::Middle());
  auto result =
      RunMultiPort(&op, {Stream(seq), {InsertOf(blocker, 50)}});
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.sink->inserts(), 1u);
  EXPECT_EQ(result.retracts(), 1u);
  EXPECT_TRUE(result.Ideal().empty());
}

TEST(UnlessPrimeOpTest, StrongBlocksCleanly) {
  EventList seq = Composites();
  Event blocker = E(3, 5);
  NegationOp op(NegationWindow::UnlessPrime(1, 10, /*lookback=*/30), nullptr,
                ConsistencySpec::Strong());
  auto result =
      RunMultiPort(&op, {Stream(seq), {InsertOf(blocker, 50)}});
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.retracts(), 0u);
  EXPECT_TRUE(result.Ideal().empty());
}

TEST(UnlessPrimeOpTest, StrongKeepsBlockersForTheAnchorLookback) {
  // The anchor A@23 precedes the composite's Vs (B@40) by up to the
  // sequence scope 20. At strong the composite is only released once the
  // guarantee passed 38, so the blocker C@27 inside the window (23, 33)
  // must survive trimming at that guarantee.
  auto same_key = [](const std::vector<const Event*>& tuple, const Event& z) {
    return tuple[0]->payload.at(0) == z.payload.at(0);
  };
  EventList seq = denotation::Sequence({{E(1, 23, 3)}, {E(2, 40, 3)}}, 20);
  ASSERT_EQ(seq.size(), 1u);
  Event blocker = E(3, 27, 3);
  NegationOp op(NegationWindow::UnlessPrime(1, 10, /*lookback=*/20), same_key,
                ConsistencySpec::Strong());
  auto result = RunMultiPort(
      &op, {{CtiOf(38, 30), InsertOf(seq[0], 41)},
            {InsertOf(blocker, 27), CtiOf(38, 31)}});
  ASSERT_TRUE(result.status.ok());
  EXPECT_TRUE(StarEqual(result.Ideal(), denotation::UnlessPrime(
                                            seq, {blocker}, 1, 10, same_key)));
  EXPECT_TRUE(result.Ideal().empty());
  EXPECT_EQ(op.stats().lost_corrections, 0u);
}

TEST(UnlessPrimeOpTest, PositiveRetractionAfterTheWindowCloses) {
  // The window (7, 17) closes before the composite's Vs 22, but the
  // composite can still be fully retracted until the guarantee passes
  // 22: the candidate must outlive the guarantee 19 to be cancelled.
  EventList seq = denotation::Sequence({{E(1, 7)}, {E(2, 22)}}, 20);
  ASSERT_EQ(seq.size(), 1u);
  NegationOp op(NegationWindow::UnlessPrime(1, 10, /*lookback=*/20), nullptr,
                ConsistencySpec::Strong());
  auto result = RunMultiPort(
      &op, {{CtiOf(22, 20), InsertOf(seq[0], 22), RetractOf(seq[0], 22, 23)},
            {CtiOf(19, 19)}});
  ASSERT_TRUE(result.status.ok());
  EXPECT_TRUE(result.Ideal().empty());
  EXPECT_EQ(op.stats().lost_corrections, 0u);
}

TEST(UnlessPrimeLangTest, ParsesBindsAndRuns) {
  std::string text =
      "EVENT Q\n"
      "WHEN UNLESS(SEQUENCE(INSTALL AS x, SHUTDOWN AS y, 40),\n"
      "            RESTART AS z, 1, 10)\n"
      "WHERE {x.Machine_Id = y.Machine_Id} AND\n"
      "      {x.Machine_Id = z.Machine_Id}";
  auto query = CompiledQuery::Compile(text, workload::MachineCatalog(),
                                      ConsistencySpec::Middle())
                   .ValueOrDie();
  EXPECT_EQ(query->bound().root->count, 1);
  EXPECT_EQ(query->physical().output->name(), "unless_prime");

  Row payload(workload::MachineEventSchema(), {Value(1), Value("b")});
  // install@2, shutdown@20; restart@5 is inside the install-anchored
  // window (2, 12) and suppresses the alert even though it precedes the
  // shutdown - the behaviour UNLESS cannot express.
  query->Push("INSTALL", InsertOf(MakeEvent(1, 2, kInfinity, payload), 2))
      .ok();
  query->Push("RESTART", InsertOf(MakeEvent(3, 5, kInfinity, payload), 5))
      .ok();
  query->Push("SHUTDOWN", InsertOf(MakeEvent(2, 20, kInfinity, payload), 20))
      .ok();
  ASSERT_TRUE(query->Finish().ok());
  EXPECT_TRUE(query->sink().Ideal().empty());
}

TEST(UnlessPrimeLangTest, AnchorIndexValidated) {
  std::string text =
      "EVENT Q\n"
      "WHEN UNLESS(SEQUENCE(INSTALL, SHUTDOWN, 40), RESTART, 3, 10)";
  auto r = CompiledQuery::Compile(text, workload::MachineCatalog());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kBindError);
}

Catalog KvCatalog() {
  SchemaPtr kv = testing::KeyValueSchema();
  return {{"A", kv}, {"B", kv}, {"C", kv}, {"D", kv}, {"E", kv}};
}

TEST(UnlessPrimeLangTest, AnchorBoundIsTheArmsLineageLength) {
  // The inner UNLESS passes its SEQUENCE's two-entry lineage through.
  auto query =
      CompiledQuery::Compile(
          "EVENT Q WHEN UNLESS(UNLESS(SEQUENCE(A, B, 50), D, 5), C, 2, 10)",
          KvCatalog(), ConsistencySpec::Middle())
          .ValueOrDie();
  EXPECT_EQ(query->bound().root->count, 2);
  const Event a = E(1, 0);
  const Event b = E(2, 20);
  const Event c = E(3, 25);
  Time cs = 1;
  ASSERT_TRUE(query->Push("A", InsertOf(a, cs++)).ok());
  ASSERT_TRUE(query->Push("B", InsertOf(b, cs++)).ok());
  ASSERT_TRUE(query->Push("C", InsertOf(c, cs++)).ok());
  ASSERT_TRUE(query->Finish().ok());
  // Anchored on B, the last contributor, an output starts where it ends.
  EventList ideal = denotation::UnlessPrime(
      denotation::Unless(denotation::Sequence({{a}, {b}}, 50), {}, 5), {c},
      2, 10);
  EXPECT_TRUE(ideal.empty());
  EXPECT_TRUE(StarEqual(query->sink().Ideal(), ideal));

  // ATLEAST(1) outputs list one contributor: no second one to anchor on.
  auto r = CompiledQuery::Compile(
      "EVENT Q WHEN UNLESS(ATLEAST(1, A, B, 10), C, 2, 10)", KvCatalog());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kBindError);
}

TEST(UnlessPrimeLangTest, AnchorsOnTheSecondContributorOfANestedArm) {
  const std::string text =
      "EVENT Q WHEN UNLESS(UNLESS(SEQUENCE(A, B, E, 50), D, 5), C, 2, 10)";
  const Event a = E(1, 0);
  const Event b = E(2, 10);
  const Event e = E(3, 30);
  // C@5 lies in A's window (0, 10) only; C@15 in B's window (10, 20).
  for (const Event& c : {E(4, 5), E(4, 15)}) {
    auto query = CompiledQuery::Compile(text, KvCatalog(),
                                        ConsistencySpec::Middle())
                     .ValueOrDie();
    Time cs = 1;
    ASSERT_TRUE(query->Push("A", InsertOf(a, cs++)).ok());
    ASSERT_TRUE(query->Push("C", InsertOf(c, cs++)).ok());
    ASSERT_TRUE(query->Push("B", InsertOf(b, cs++)).ok());
    ASSERT_TRUE(query->Push("E", InsertOf(e, cs++)).ok());
    ASSERT_TRUE(query->Finish().ok());
    EventList ideal = denotation::UnlessPrime(
        denotation::Unless(denotation::Sequence({{a}, {b}, {e}}, 50), {}, 5),
        {c}, 2, 10);
    EXPECT_TRUE(StarEqual(query->sink().Ideal(), ideal));
    EXPECT_EQ(query->sink().Ideal().size(), c.vs < b.vs ? 1u : 0u)
        << "C@" << c.vs;
  }
}

TEST(UnlessPrimeLangTest, NestedNegationsReissueDistinctIdentities) {
  // C@5 blocks the outer UNLESS' and is removed, so the outer re-emits;
  // C@22 blocks the inner UNLESS and is removed, so the inner re-emits
  // the composite. Both re-emit the composite once: the outer's output
  // must not take the identity its own re-emission already retracted.
  auto query =
      CompiledQuery::Compile(
          "EVENT Q WHEN UNLESS(UNLESS(SEQUENCE(A AS x, B AS y, 25), C AS z, "
          "5), C AS w, 1, 10) WHERE {x.key = w.key}",
          KvCatalog(), ConsistencySpec::Middle())
          .ValueOrDie();
  const Event a = E(1, 0, /*key=*/1);
  const Event b = E(2, 20);
  const Event c1 = E(3, 5, /*key=*/1);
  const Event c2 = E(4, 22);
  Time cs = 1;
  ASSERT_TRUE(query->Push("A", InsertOf(a, cs++)).ok());
  ASSERT_TRUE(query->Push("B", InsertOf(b, cs++)).ok());
  for (const Event& c : {c1, c2}) {
    ASSERT_TRUE(query->Push("C", InsertOf(c, cs++)).ok());
    ASSERT_TRUE(query->Push("C", RetractOf(c, c.vs, cs++)).ok());
  }
  ASSERT_TRUE(query->Finish().ok());
  EventList ideal = denotation::UnlessPrime(
      denotation::Unless(denotation::Sequence({{a}, {b}}, 25), {}, 5), {}, 1,
      10);
  ASSERT_EQ(ideal.size(), 1u);
  EXPECT_TRUE(StarEqual(query->sink().Ideal(), ideal))
      << denotation::ToTableString(query->sink().Ideal());
}

TEST(UnlessPrimeLangTest, PlainUnlessStillParses) {
  std::string text =
      "EVENT Q WHEN UNLESS(SEQUENCE(INSTALL, SHUTDOWN, 40), RESTART, 10)";
  auto query = CompiledQuery::Compile(text, workload::MachineCatalog())
                   .ValueOrDie();
  EXPECT_EQ(query->bound().root->count, 0);
  EXPECT_EQ(query->physical().output->name(), "unless");
}

}  // namespace
}  // namespace cedr
