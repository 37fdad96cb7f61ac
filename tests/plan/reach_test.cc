// plan::Reach is the one source of negation lookbacks: how far behind a
// positive event's Vs its window can start, and so how long a negation
// keeps its blockers.
#include <gtest/gtest.h>

#include "denotation/ideal.h"
#include "denotation/patterns.h"
#include "engine/query.h"
#include "engine/source.h"
#include "lang/parser.h"
#include "testing/helpers.h"
#include "workload/disorder.h"
#include "workload/machines.h"

namespace cedr {
namespace {

Catalog AbcdCatalog() {
  SchemaPtr kv = testing::KeyValueSchema();
  return {{"A", kv}, {"B", kv}, {"C", kv}, {"D", kv}};
}

plan::BoundQuery BoundOf(const std::string& when) {
  ast::Query query = ParseQuery("EVENT Q WHEN " + when).ValueOrDie();
  return Bind(query, AbcdCatalog()).ValueOrDie();
}

Duration ReachOf(const std::string& when) {
  return plan::Reach(*BoundOf(when).root);
}

size_t LengthOf(const std::string& when) {
  return plan::LineageLength(*BoundOf(when).root);
}

bool PositionalOf(const std::string& when) {
  return plan::Positional(*BoundOf(when).root);
}

TEST(ReachTest, FollowsThePositiveArm) {
  EXPECT_EQ(ReachOf("SEQUENCE(A, B, 10)"), 10);
  EXPECT_EQ(ReachOf("ALL(A, B, 10)"), 10);
  EXPECT_EQ(ReachOf("ANY(A, B)"), 1);
  EXPECT_EQ(ReachOf("ATLEAST(2, A, B, C, 10)"), 10);
  EXPECT_EQ(ReachOf("SEQUENCE(SEQUENCE(A, B, 10), C, 20)"), 30);
  EXPECT_EQ(ReachOf("SEQUENCE(A, ALL(B, C, 5), 20)"), 25);
  EXPECT_EQ(ReachOf("ATMOST(1, A, B, 10)"), 0);
  EXPECT_EQ(ReachOf("UNLESS(SEQUENCE(A, B, 50), D, 5)"), 50);
  EXPECT_EQ(ReachOf("UNLESS(SEQUENCE(A, B, 50), D, 1, 5)"), 55);
  EXPECT_EQ(ReachOf("UNLESS(ATMOST(1, A, B, 10), D, 1, 5)"), 5);
  EXPECT_EQ(ReachOf("NOT(D, SEQUENCE(A, B, 10))"), 10);
  EXPECT_EQ(ReachOf("CANCEL-WHEN(SEQUENCE(A, B, 10), D)"), 10);
}

TEST(ShapeTest, LineageLengthCountsEachOutputsContributors) {
  EXPECT_EQ(LengthOf("SEQUENCE(A, B, C, 10)"), 3u);
  EXPECT_EQ(LengthOf("ALL(A, B, 10)"), 2u);
  EXPECT_EQ(LengthOf("ATLEAST(2, A, B, C, 10)"), 2u);
  EXPECT_EQ(LengthOf("ATLEAST(1, A, B, 10)"), 1u);
  EXPECT_EQ(LengthOf("ANY(A, B)"), 1u);
  EXPECT_EQ(LengthOf("ATMOST(1, A, B, 10)"), 1u);
  EXPECT_EQ(LengthOf("SEQUENCE(SEQUENCE(A, B, 10), C, 20)"), 2u);
  EXPECT_EQ(LengthOf("UNLESS(SEQUENCE(A, B, 50), D, 5)"), 2u);
  EXPECT_EQ(LengthOf("UNLESS(UNLESS(SEQUENCE(A, B, 50), D, 5), C, 2, 10)"),
            2u);
  EXPECT_EQ(LengthOf("UNLESS(ATLEAST(1, A, B, 10), C, 1, 10)"), 1u);
  EXPECT_EQ(LengthOf("NOT(D, SEQUENCE(A, B, C, 10))"), 3u);
  EXPECT_EQ(LengthOf("CANCEL-WHEN(ALL(A, B, 10), D)"), 2u);
}

TEST(ShapeTest, PositionalWhereEveryMatchBindsEveryLeaf) {
  EXPECT_TRUE(PositionalOf("SEQUENCE(A, B, 10)"));
  EXPECT_TRUE(PositionalOf("ALL(A, SEQUENCE(B, C, 5), 10)"));
  EXPECT_TRUE(PositionalOf("ATLEAST(2, A, B, 10)"));
  EXPECT_TRUE(PositionalOf("ANY(A)"));
  EXPECT_TRUE(PositionalOf("ATMOST(1, A, 10)"));
  EXPECT_TRUE(PositionalOf("UNLESS(ALL(A, B, 10), D, 2, 5)"));
  EXPECT_TRUE(PositionalOf("CANCEL-WHEN(SEQUENCE(A, B, 10), D)"));
  EXPECT_FALSE(PositionalOf("ANY(A, B)"));
  EXPECT_FALSE(PositionalOf("ATLEAST(1, A, B, 10)"));
  EXPECT_FALSE(PositionalOf("ATLEAST(2, A, B, C, 10)"));
  EXPECT_FALSE(PositionalOf("ATMOST(1, A, B, 10)"));
  EXPECT_FALSE(PositionalOf("SEQUENCE(ANY(A, B), C, 10)"));
  EXPECT_FALSE(PositionalOf("ATLEAST(2, ANY(A, B), C, 10)"));
  EXPECT_FALSE(PositionalOf("NOT(D, SEQUENCE(ATLEAST(1, A, B, 5), C, 10))"));
}

TEST(ReachTest, NestedUnlessPrimeKeepsBlockersForTheWholeArm) {
  // The outer UNLESS' anchors on x, which lies up to the SEQUENCE's 50
  // behind the inner UNLESS's output, not its own scope of 5: C@5 must
  // outlive a guarantee of 30 to block the composite (x@0, y@45).
  const std::string text =
      "EVENT Q WHEN UNLESS(UNLESS(SEQUENCE(A AS x, B AS y, 50), D AS d, 5), "
      "C AS z, 1, 10)";
  auto query = CompiledQuery::Compile(text, AbcdCatalog(),
                                      ConsistencySpec::Middle())
                   .ValueOrDie();
  const Event a = MakeEvent(1, 0, 1, testing::KV(0, 1));
  const Event c = MakeEvent(2, 5, 6, testing::KV(0, 2));
  const Event b = MakeEvent(3, 45, 46, testing::KV(0, 3));
  Time cs = 1;
  ASSERT_TRUE(query->Push("A", InsertOf(a, cs++)).ok());
  ASSERT_TRUE(query->Push("C", InsertOf(c, cs++)).ok());
  for (const char* type : {"A", "B", "C", "D"}) {
    ASSERT_TRUE(query->Push(type, CtiOf(30, cs++)).ok());
  }
  ASSERT_TRUE(query->Push("B", InsertOf(b, cs++)).ok());
  ASSERT_TRUE(query->Finish().ok());

  EventList ideal = denotation::UnlessPrime(
      denotation::Unless(denotation::Sequence({{a}, {b}}, 50), {}, 5), {c},
      1, 10);
  EXPECT_TRUE(ideal.empty());
  EXPECT_TRUE(denotation::StarEqual(query->sink().Ideal(), ideal))
      << denotation::ToTableString(query->sink().Ideal());
}

TEST(ReachTest, CancelWhenStateLevelsOff) {
  // CANCEL-WHEN keeps a blocker for its arm's scope, not forever: state
  // and plan snapshots stop growing with the stream.
  workload::MachineConfig config;
  config.num_machines = 12;
  config.num_sessions = 1600;
  config.max_session_length = 60;
  config.restart_scope = 12;
  config.session_interval = 4;
  config.seed = 1;
  workload::MachineStreams streams = workload::GenerateMachineEvents(config);
  DisorderConfig disorder;
  disorder.disorder_fraction = 0.25;
  disorder.max_delay = 12;
  disorder.cti_period = 20;
  disorder.seed = 20;
  std::vector<TypedMessage> merged = MergeByArrival(
      {{"INSTALL", ApplyDisorder(streams.installs, disorder)},
       {"SHUTDOWN", ApplyDisorder(streams.shutdowns, disorder)},
       {"RESTART", ApplyDisorder(streams.restarts, disorder)}});

  auto query =
      CompiledQuery::Compile(
          "EVENT Q WHEN CANCEL-WHEN(SEQUENCE(INSTALL AS x, SHUTDOWN AS y, "
          "60), RESTART AS z) WHERE {x.Machine_Id = y.Machine_Id}",
          workload::MachineCatalog(), ConsistencySpec::Strong())
          .ValueOrDie();
  struct Sample {
    size_t state = 0;
    size_t snapshot = 0;
  };
  auto sample = [&] {
    io::BinaryWriter w;
    EXPECT_TRUE(query->SnapshotPlan(&w).ok());
    return Sample{query->Stats().cur_state_size, w.bytes().size()};
  };
  const size_t quarter = merged.size() / 4;
  Sample early;
  for (size_t i = 0; i < merged.size(); ++i) {
    if (i == quarter) early = sample();
    if (i == 3 * quarter) {
      Sample late = sample();
      EXPECT_LE(late.state, early.state * 5 / 4)
          << early.state << " -> " << late.state;
      EXPECT_LE(late.snapshot, early.snapshot * 5 / 4)
          << early.snapshot << " -> " << late.snapshot;
    }
    ASSERT_TRUE(query->Push(merged[i].first, merged[i].second).ok());
  }
  ASSERT_TRUE(query->Finish().ok());
}

}  // namespace
}  // namespace cedr
