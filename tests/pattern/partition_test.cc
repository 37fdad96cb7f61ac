// Correlation-key partitioning and shared contributors in the positive
// pattern operators. Each output count is the one a single unpartitioned
// store gives: partitioning may only skip candidates the predicate would
// reject.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "engine/query.h"
#include "engine/source.h"
#include "pattern/sequence.h"
#include "testing/fault.h"
#include "workload/disorder.h"
#include "workload/machines.h"

namespace cedr {
namespace {

SchemaPtr IdSchema(ValueType type) { return Schema::Make({{"id", type}}); }

Catalog IdCatalog(ValueType b_type = ValueType::kInt64) {
  return {{"A", IdSchema(ValueType::kInt64)},
          {"B", IdSchema(b_type)},
          {"C", IdSchema(ValueType::kInt64)}};
}

Row Id(Value id, ValueType type = ValueType::kInt64) {
  return Row(IdSchema(type), {std::move(id)});
}

std::unique_ptr<CompiledQuery> Compile(const std::string& when,
                                       const Catalog& catalog = IdCatalog()) {
  return CompiledQuery::Compile("EVENT Q WHEN " + when, catalog,
                                ConsistencySpec::Middle())
      .ValueOrDie();
}

const PatternOp* FindPatternOp(const CompiledQuery& query) {
  for (const auto& op : query.physical().operators) {
    if (auto* pattern = dynamic_cast<const PatternOp*>(op.get())) {
      return pattern;
    }
  }
  return nullptr;
}

void Insert(CompiledQuery* query, const std::string& type, EventId id,
            Time vs, Row payload) {
  ASSERT_TRUE(
      query->Push(type, InsertOf(MakeEvent(id, vs, vs + 20, payload), vs))
          .ok());
}

TEST(PartitionTest, AtLeastWithAnUnlinkedPairIsNotPartitioned) {
  // {x, z} is never compared directly, so a pair of those two matches
  // whatever their ids: partitioning on the transitive class would drop
  // (A1, C2).
  auto query = Compile(
      "ATLEAST(2, A AS x, B AS y, C AS z, 10) "
      "WHERE {x.id = y.id} AND {y.id = z.id}");
  EXPECT_FALSE(FindPatternOp(*query)->partitioned());
  Insert(query.get(), "A", 1, 1, Id(1));
  Insert(query.get(), "A", 2, 2, Id(2));
  Insert(query.get(), "C", 3, 3, Id(2));
  Insert(query.get(), "B", 4, 5, Id(2));
  ASSERT_TRUE(query->Finish().ok());
  EXPECT_EQ(query->sink().Ideal().size(), 4u);
}

TEST(PartitionTest, AtLeastWithEveryPairLinkedIsPartitioned) {
  auto query = Compile(
      "ATLEAST(2, A AS x, B AS y, C AS z, 10) "
      "WHERE {x.id = y.id} AND {y.id = z.id} AND {x.id = z.id}");
  EXPECT_TRUE(FindPatternOp(*query)->partitioned());
  Insert(query.get(), "A", 1, 1, Id(1));
  Insert(query.get(), "A", 2, 2, Id(2));
  Insert(query.get(), "C", 3, 3, Id(2));
  Insert(query.get(), "B", 4, 5, Id(2));
  ASSERT_TRUE(query->Finish().ok());
  EXPECT_EQ(query->sink().Ideal().size(), 3u);  // (A2,C), (A2,B), (C,B)
}

TEST(PartitionTest, AllAndSequenceChainsArePartitioned) {
  // A match of every child checks every comparison, so a chain suffices.
  for (const char* when :
       {"ALL(A AS x, B AS y, C AS z, 10) WHERE {x.id = y.id} AND "
        "{y.id = z.id}",
        "SEQUENCE(A AS x, B AS y, C AS z, 10) WHERE {x.id = y.id} AND "
        "{y.id = z.id}"}) {
    auto query = Compile(when);
    EXPECT_TRUE(FindPatternOp(*query)->partitioned()) << when;
    Insert(query.get(), "A", 1, 1, Id(1));
    Insert(query.get(), "A", 2, 2, Id(2));
    Insert(query.get(), "B", 3, 3, Id(2));
    Insert(query.get(), "C", 4, 5, Id(2));
    Insert(query.get(), "C", 5, 6, Id(1));
    ASSERT_TRUE(query->Finish().ok());
    EventList out = query->sink().Ideal();
    ASSERT_EQ(out.size(), 1u) << when;
    EXPECT_EQ(out[0].cbt[0]->id, 2u);
  }
}

TEST(PartitionTest, IntKeyMatchesEqualDoubleKey) {
  auto query = Compile("SEQUENCE(A AS x, B AS y, 10) WHERE {x.id = y.id}",
                       IdCatalog(ValueType::kDouble));
  EXPECT_TRUE(FindPatternOp(*query)->partitioned());
  Insert(query.get(), "A", 1, 1, Id(1));
  Insert(query.get(), "B", 2, 3, Id(1.0, ValueType::kDouble));
  Insert(query.get(), "B", 3, 4, Id(1.5, ValueType::kDouble));
  ASSERT_TRUE(query->Finish().ok());
  EventList out = query->sink().Ideal();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].cbt[1]->id, 2u);
}

TEST(PartitionTest, NaNKeyMatchesEveryNumber) {
  // Value::Compare finds NaN equal to every number, so a NaN key cannot
  // live in a partition of its own: the operator stops partitioning.
  auto query = Compile("SEQUENCE(A AS x, B AS y, 10) WHERE {x.id = y.id}",
                       IdCatalog(ValueType::kDouble));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Insert(query.get(), "A", 1, 1, Id(1));
  Insert(query.get(), "A", 2, 2, Id(2));
  Insert(query.get(), "B", 3, 3, Id(nan, ValueType::kDouble));
  EXPECT_FALSE(FindPatternOp(*query)->partitioned());
  Insert(query.get(), "B", 4, 4, Id(2.0, ValueType::kDouble));
  ASSERT_TRUE(query->Finish().ok());
  EXPECT_EQ(query->sink().Ideal().size(), 3u);  // NaN with both, 2 with 2
}

TEST(PartitionTest, NullKeyIsStoredAndRetractedWithoutLoss) {
  auto query = Compile("SEQUENCE(A AS x, B AS y, 10) WHERE {x.id = y.id}");
  Event a = MakeEvent(1, 1, 21, Id(Value::Null()));
  ASSERT_TRUE(query->Push("A", InsertOf(a, 1)).ok());
  EXPECT_EQ(FindPatternOp(*query)->StateSize(), 1u);
  ASSERT_TRUE(query->Push("A", RetractOf(a, a.vs, 2)).ok());
  EXPECT_EQ(FindPatternOp(*query)->StateSize(), 0u);
  Insert(query.get(), "B", 2, 3, Id(Value::Null()));
  ASSERT_TRUE(query->Finish().ok());
  EXPECT_TRUE(query->sink().Ideal().empty());
  EXPECT_EQ(query->Stats().lost_corrections, 0u);
}

TEST(PartitionTest, RetractionWithoutPayloadFindsItsCandidate) {
  // A provider's retraction names the event by id; its payload need not
  // repeat the insert's, so it cannot be trusted for the key.
  auto query = Compile("SEQUENCE(A AS x, B AS y, 10) WHERE {x.id = y.id}");
  Insert(query.get(), "A", 1, 1, Id(7));
  Insert(query.get(), "B", 2, 3, Id(7));
  ASSERT_TRUE(query->Push("A", RetractOf(MakeEvent(1, 1, 21), 1, 4)).ok());
  EXPECT_EQ(FindPatternOp(*query)->StateSize(), 1u);  // B alone
  ASSERT_TRUE(query->Finish().ok());
  EXPECT_TRUE(query->sink().Ideal().empty());
  EXPECT_EQ(query->Stats().lost_corrections, 0u);
}

TEST(SharedContributorTest, PartialShrinkLeavesEmittedCompositeIntact) {
  auto query = Compile("SEQUENCE(A AS x, B AS y, 10) WHERE {x.id = y.id}");
  Event a = MakeEvent(1, 1, 21, Id(1));
  ASSERT_TRUE(query->Push("A", InsertOf(a, 1)).ok());
  Insert(query.get(), "B", 2, 3, Id(1));
  ASSERT_TRUE(query->Push("A", RetractOf(a, 5, 4)).ok());
  Insert(query.get(), "B", 3, 6, Id(1));
  ASSERT_TRUE(query->Finish().ok());

  std::vector<const Event*> composites;
  for (const Message& m : query->sink().messages()) {
    if (m.kind == MessageKind::kInsert) composites.push_back(&m.event);
  }
  ASSERT_EQ(composites.size(), 2u);
  EXPECT_EQ(composites[0]->cbt[0]->ve, 21);  // as it was when emitted
  EXPECT_EQ(composites[1]->cbt[0]->ve, 5);   // the shrunk contributor
}

// A disordered machine feed through a correlated query, snapshotted at
// a mid-stream sync point and resumed in a fresh query.
void CheckSnapshotResume(const std::string& when) {
  workload::MachineConfig config;
  config.num_machines = 6;
  config.num_sessions = 120;
  config.max_session_length = 40;
  config.session_interval = 6;
  config.seed = 11;
  workload::MachineStreams streams = workload::GenerateMachineEvents(config);
  DisorderConfig dconfig;
  dconfig.disorder_fraction = 0.4;
  dconfig.max_delay = 10;
  dconfig.cti_period = 12;
  std::vector<LabeledStream> labeled = {
      {"INSTALL", ApplyDisorder(streams.installs, dconfig)},
      {"SHUTDOWN", ApplyDisorder(streams.shutdowns, dconfig)}};
  auto feed = MergeByArrival(labeled);

  const std::string text = "EVENT Q WHEN " + when;
  const Catalog catalog = workload::MachineCatalog();
  auto compile = [&] {
    return CompiledQuery::Compile(text, catalog, ConsistencySpec::Middle())
        .ValueOrDie();
  };
  auto reference = compile();
  ASSERT_TRUE(FindPatternOp(*reference)->partitioned());
  size_t cut = feed.size() / 2;
  while (cut < feed.size() && feed[cut - 1].second.kind != MessageKind::kCti) {
    ++cut;
  }
  ASSERT_LT(cut, feed.size());
  for (size_t i = 0; i < cut; ++i) {
    ASSERT_TRUE(reference->Push(feed[i].first, feed[i].second).ok());
  }
  io::BinaryWriter w;
  ASSERT_TRUE(reference->SnapshotPlan(&w).ok());
  std::string bytes = w.Take();
  const size_t emitted = reference->sink().messages().size();

  auto resumed = compile();
  io::BinaryReader r(bytes);
  ASSERT_TRUE(resumed->RestorePlan(&r).ok());
  io::BinaryWriter again;
  ASSERT_TRUE(resumed->SnapshotPlan(&again).ok());
  EXPECT_EQ(again.Take(), bytes);
  resumed->SeedOutput(
      std::span<const Message>(reference->sink().messages()).first(emitted));

  for (size_t i = cut; i < feed.size(); ++i) {
    ASSERT_TRUE(reference->Push(feed[i].first, feed[i].second).ok());
    ASSERT_TRUE(resumed->Push(feed[i].first, feed[i].second).ok());
  }
  ASSERT_TRUE(reference->Finish().ok());
  ASSERT_TRUE(resumed->Finish().ok());
  EXPECT_FALSE(reference->sink().Ideal().empty());
  EXPECT_TRUE(testing::PhysicallyIdentical(resumed->sink().messages(),
                                           reference->sink().messages()));
}

TEST(SharedContributorTest, PartitionedSequenceResumesFromSnapshot) {
  CheckSnapshotResume(
      "SEQUENCE(INSTALL AS x, SHUTDOWN AS y, 60) "
      "WHERE {x.Machine_Id = y.Machine_Id}");
}

TEST(SharedContributorTest, PartitionedAllResumesFromSnapshot) {
  CheckSnapshotResume(
      "ALL(INSTALL AS x, SHUTDOWN AS y, 30) "
      "WHERE {x.Machine_Id = y.Machine_Id}");
}

}  // namespace
}  // namespace cedr
