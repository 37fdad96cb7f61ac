// Runtime relational operators vs their denotational specification on
// ordered input, plus retraction repair behaviour.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "denotation/relational.h"
#include "ops/alter_lifetime.h"
#include "ops/difference.h"
#include "ops/groupby.h"
#include "ops/join.h"
#include "ops/project.h"
#include "ops/select.h"
#include "ops/union_op.h"
#include "testing/helpers.h"

namespace cedr {
namespace {

using denotation::StarEqual;
using testing::KV;
using testing::RunBinary;
using testing::RunUnary;

std::vector<Message> OrderedInserts(const EventList& events) {
  std::vector<Message> out;
  Time cs = 1;
  for (const Event& e : events) out.push_back(InsertOf(e, cs++));
  return out;
}

TEST(SelectOpTest, MatchesDenotation) {
  EventList input = {MakeEvent(1, 1, 5, KV(1, 10)),
                     MakeEvent(2, 2, 7, KV(2, 20))};
  auto pred = [](const Row& r) { return r.at(0) == Value(1); };
  SelectOp op(pred, ConsistencySpec::Middle());
  auto result = RunUnary(&op, OrderedInserts(input));
  ASSERT_TRUE(result.status.ok());
  EXPECT_TRUE(StarEqual(result.Ideal(), denotation::Select(input, pred)));
}

TEST(SelectOpTest, RetractionPassesWhenPredicatePasses) {
  Event e = MakeEvent(1, 1, 100, KV(1, 10));
  SelectOp op([](const Row&) { return true; }, ConsistencySpec::Middle());
  auto result = RunUnary(&op, {InsertOf(e, 1), RetractOf(e, 50, 2)});
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.retracts(), 1u);
  ASSERT_EQ(result.Ideal().size(), 1u);
  EXPECT_EQ(result.Ideal()[0].ve, 50);
}

TEST(SelectOpTest, RetractionDroppedWhenPredicateFails) {
  Event e = MakeEvent(1, 1, 100, KV(1, 10));
  SelectOp op([](const Row&) { return false; }, ConsistencySpec::Middle());
  auto result = RunUnary(&op, {InsertOf(e, 1), RetractOf(e, 50, 2)});
  EXPECT_EQ(result.sink->inserts(), 0u);
  EXPECT_EQ(result.retracts(), 0u);
}

TEST(ProjectOpTest, MatchesDenotation) {
  EventList input = {MakeEvent(1, 1, 5, KV(1, 10))};
  auto f = [](const Row& r) { return Row(nullptr, {r.at(1)}); };
  ProjectOp op(f, ConsistencySpec::Middle());
  auto result = RunUnary(&op, OrderedInserts(input));
  EXPECT_TRUE(StarEqual(result.Ideal(), denotation::Project(input, f)));
}

TEST(ProjectOpTest, RetractionReprojects) {
  Event e = MakeEvent(1, 1, 100, KV(1, 10));
  ProjectOp op([](const Row& r) { return Row(nullptr, {r.at(0)}); },
               ConsistencySpec::Middle());
  auto result = RunUnary(&op, {InsertOf(e, 1), RetractOf(e, 40, 2)});
  ASSERT_EQ(result.Ideal().size(), 1u);
  EXPECT_EQ(result.Ideal()[0].ve, 40);
  EXPECT_EQ(result.Ideal()[0].payload.at(0), Value(1));
}

TEST(JoinOpTest, MatchesDenotation) {
  EventList left = {MakeEvent(1, 1, 5, KV(1, 10)),
                    MakeEvent(2, 3, 9, KV(2, 20))};
  EventList right = {MakeEvent(11, 2, 7, KV(1, 30)),
                     MakeEvent(12, 4, 6, KV(2, 40))};
  auto theta = [](const Row& l, const Row& r) { return l.at(0) == r.at(0); };
  JoinOp op(theta, nullptr, ConsistencySpec::Middle());
  auto result =
      RunBinary(&op, OrderedInserts(left), OrderedInserts(right));
  ASSERT_TRUE(result.status.ok());
  EXPECT_TRUE(StarEqual(result.Ideal(),
                        denotation::Join(left, right, theta, nullptr)));
}

TEST(JoinOpTest, EquiKeyAccelerationSameResult) {
  EventList left, right;
  for (int i = 0; i < 20; ++i) {
    left.push_back(MakeEvent(i + 1, i, i + 10, KV(i % 3, i)));
    right.push_back(MakeEvent(i + 100, i + 1, i + 8, KV(i % 3, i)));
  }
  auto theta = [](const Row& l, const Row& r) { return l.at(0) == r.at(0); };
  JoinOp plain(theta, nullptr, ConsistencySpec::Middle());
  auto r1 = RunBinary(&plain, OrderedInserts(left), OrderedInserts(right));
  JoinOp equi(theta, nullptr, ConsistencySpec::Middle());
  equi.SetEquiKeys([](const Row& r) { return r.at(0); },
                   [](const Row& r) { return r.at(0); });
  auto r2 = RunBinary(&equi, OrderedInserts(left), OrderedInserts(right));
  EXPECT_TRUE(StarEqual(r1.Ideal(), r2.Ideal()));
}

std::string SnapshotOf(const Operator& op) {
  io::BinaryWriter w;
  op.Snapshot(&w);
  return w.Take();
}

// An equi-join whose SnapshotState a test can read.
class ProbedJoin : public JoinOp {
 public:
  using JoinOp::JoinOp;
  using JoinOp::SnapshotState;

  std::string StateBytes() const {
    io::BinaryWriter w;
    SnapshotState(&w);
    return w.Take();
  }
};

TEST(JoinOpTest, EquiSnapshotBytesDoNotDependOnInsertionOrder) {
  // Twenty keys, each with its own left event, stored in two orders: the
  // state snapshots agree, and a fresh operator restored from a snapshot
  // writes it again byte for byte.
  auto make = [] {
    auto op = std::make_unique<ProbedJoin>(
        [](const Row& l, const Row& r) { return l.at(0) == r.at(0); },
        nullptr, ConsistencySpec::Middle());
    op->SetEquiKeys([](const Row& r) { return r.at(0); },
                    [](const Row& r) { return r.at(0); });
    return op;
  };
  auto fill = [](JoinOp* op, const std::vector<int>& keys) {
    for (int key : keys) {
      Event e = MakeEvent(key + 1, 0, 100, KV(key, key));
      ASSERT_TRUE(op->Push(0, InsertOf(e, key + 1)).ok());
    }
  };
  std::vector<int> keys;
  for (int key = 0; key < 20; ++key) keys.push_back(key);
  auto forward = make(), backward = make();
  fill(forward.get(), keys);
  fill(backward.get(), std::vector<int>(keys.rbegin(), keys.rend()));
  EXPECT_EQ(backward->StateBytes(), forward->StateBytes());

  for (const ProbedJoin* op : {forward.get(), backward.get()}) {
    const std::string bytes = SnapshotOf(*op);
    auto restored = make();
    io::BinaryReader r(bytes);
    ASSERT_TRUE(restored->Restore(&r).ok());
    EXPECT_EQ(SnapshotOf(*restored), bytes);
  }
}

TEST(JoinOpTest, InputRetractionShrinksOutputs) {
  Event l = MakeEvent(1, 1, 100, KV(1, 10));
  Event r = MakeEvent(2, 1, 100, KV(1, 30));
  JoinOp op([](const Row&, const Row&) { return true; }, nullptr,
            ConsistencySpec::Middle());
  auto result = RunBinary(&op, {InsertOf(l, 1), RetractOf(l, 50, 3)},
                          {InsertOf(r, 2)});
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.retracts(), 1u);
  ASSERT_EQ(result.Ideal().size(), 1u);
  EXPECT_EQ(result.Ideal()[0].valid(), (Interval{1, 50}));
}

TEST(JoinOpTest, FullRemovalRemovesOutputs) {
  Event l = MakeEvent(1, 1, 100, KV(1, 10));
  Event r = MakeEvent(2, 1, 100, KV(1, 30));
  JoinOp op([](const Row&, const Row&) { return true; }, nullptr,
            ConsistencySpec::Middle());
  auto result = RunBinary(&op, {InsertOf(l, 1), RetractOf(l, 1, 3)},
                          {InsertOf(r, 2)});
  EXPECT_TRUE(result.Ideal().empty());
}

TEST(UnionOpTest, MatchesDenotation) {
  EventList left = {MakeEvent(1, 1, 6, KV(1, 10))};
  EventList right = {MakeEvent(2, 4, 9, KV(1, 10))};
  UnionOp op(ConsistencySpec::Middle());
  auto result = RunBinary(&op, OrderedInserts(left), OrderedInserts(right));
  EXPECT_TRUE(StarEqual(result.Ideal(), denotation::Union(left, right)));
}

TEST(DifferenceOpTest, MatchesDenotation) {
  EventList left = {MakeEvent(1, 1, 10, KV(1, 10))};
  EventList right = {MakeEvent(2, 4, 6, KV(1, 10))};
  DifferenceOp op(ConsistencySpec::Middle());
  auto result = RunBinary(&op, OrderedInserts(left), OrderedInserts(right));
  ASSERT_TRUE(result.status.ok());
  EXPECT_TRUE(StarEqual(result.Ideal(),
                        denotation::Difference(left, right)));
}

TEST(DifferenceOpTest, LateRightSideRepairsViaRetraction) {
  // Left [1,10) emitted optimistically; right [4,6) arrives later and
  // punches a hole: the emitted event is retracted to 4 and a [6,10)
  // fragment is inserted (remove-and-reinsert would lose [1,4)).
  Event l = MakeEvent(1, 1, 10, KV(1, 10));
  Event r = MakeEvent(2, 4, 6, KV(1, 10));
  DifferenceOp op(ConsistencySpec::Middle());
  auto result = RunBinary(&op, {InsertOf(l, 1)}, {InsertOf(r, 2)});
  ASSERT_TRUE(result.status.ok());
  EXPECT_GE(result.retracts(), 1u);
  EXPECT_TRUE(StarEqual(result.Ideal(), denotation::Difference({l}, {r})));
}

SchemaPtr CountSchema() {
  return Schema::Make({{"key", ValueType::kInt64},
                       {"count", ValueType::kInt64}});
}

TEST(GroupByOpTest, MatchesDenotation) {
  EventList input = {MakeEvent(1, 1, 10, KV(1, 5)),
                     MakeEvent(2, 4, 6, KV(1, 7)),
                     MakeEvent(3, 2, 8, KV(2, 9))};
  std::vector<AggregateSpec> aggs = {
      AggregateSpec{AggregateKind::kCount, "", "count"}};
  GroupByAggregateOp op({"key"}, aggs, CountSchema(),
                        ConsistencySpec::Middle());
  auto result = RunUnary(&op, OrderedInserts(input));
  ASSERT_TRUE(result.status.ok());
  EXPECT_TRUE(StarEqual(
      result.Ideal(),
      denotation::GroupByAggregate(input, {"key"}, aggs, CountSchema())));
}

TEST(GroupByOpTest, RetractionLowersCount) {
  Event a = MakeEvent(1, 1, 10, KV(1, 5));
  Event b = MakeEvent(2, 1, 10, KV(1, 7));
  std::vector<AggregateSpec> aggs = {
      AggregateSpec{AggregateKind::kCount, "", "count"}};
  GroupByAggregateOp op({"key"}, aggs, CountSchema(),
                        ConsistencySpec::Middle());
  auto result = RunUnary(&op, {InsertOf(a, 1), InsertOf(b, 2),
                               RetractOf(b, 1, 3)});
  ASSERT_TRUE(result.status.ok());
  EventList expect = denotation::GroupByAggregate(
      {a}, {"key"}, aggs, CountSchema());
  EXPECT_TRUE(StarEqual(result.Ideal(), expect));
}

TEST(AlterLifetimeOpTest, WindowMatchesDenotation) {
  EventList input = {MakeEvent(1, 0, 100, KV(1, 1)),
                     MakeEvent(2, 10, 12, KV(1, 2))};
  auto op = MakeSlidingWindowOp(5, ConsistencySpec::Middle());
  auto result = RunUnary(op.get(), OrderedInserts(input));
  EXPECT_TRUE(
      StarEqual(result.Ideal(), denotation::SlidingWindow(input, 5)));
}

TEST(AlterLifetimeOpTest, HoppingWindowMatchesDenotation) {
  EventList input = {MakeEvent(1, 7, 8, KV(1, 1)),
                     MakeEvent(2, 13, 14, KV(1, 2))};
  auto op = MakeHoppingWindowOp(10, 5, ConsistencySpec::Middle());
  auto result = RunUnary(op.get(), OrderedInserts(input));
  EXPECT_TRUE(
      StarEqual(result.Ideal(), denotation::HoppingWindow(input, 10, 5)));
}

TEST(AlterLifetimeOpTest, HoppingWindowKeepsNoOutputBehindTheHorizon) {
  // wl < period moves Vs back: an input above the repair horizon can map
  // to an output that ended behind it, which nothing can repair.
  auto op = MakeHoppingWindowOp(/*wl=*/5, /*period=*/20,
                                ConsistencySpec::Middle());
  ASSERT_TRUE(op->Push(0, CtiOf(30, 1)).ok());
  ASSERT_TRUE(op->Push(0, InsertOf(MakeEvent(1, 35, 36, KV(1, 1)), 2)).ok());
  EXPECT_EQ(op->StateSize(), 0u);  // output [20, 25)
  ASSERT_TRUE(op->Push(0, InsertOf(MakeEvent(2, 45, 46, KV(1, 2)), 3)).ok());
  EXPECT_EQ(op->StateSize(), 1u);  // output [40, 45)
  EXPECT_EQ(op->stats().max_state_size, 1u);
}

TEST(AlterLifetimeOpTest, WindowRetractionOnlyWhenClippedEndShrinks) {
  Event e = MakeEvent(1, 0, 100, KV(1, 1));
  auto op = MakeSlidingWindowOp(5, ConsistencySpec::Middle());
  // Shrinking 100 -> 50 leaves the clipped output [0,5) unchanged.
  auto result = RunUnary(op.get(), {InsertOf(e, 1), RetractOf(e, 50, 2)});
  EXPECT_EQ(result.retracts(), 0u);
  ASSERT_EQ(result.Ideal().size(), 1u);
  EXPECT_EQ(result.Ideal()[0].valid(), (Interval{0, 5}));
}

TEST(AlterLifetimeOpTest, WindowRetractionPropagatesWhenInsideWindow) {
  Event e = MakeEvent(1, 0, 100, KV(1, 1));
  auto op = MakeSlidingWindowOp(5, ConsistencySpec::Middle());
  auto result = RunUnary(op.get(), {InsertOf(e, 1), RetractOf(e, 3, 2)});
  EXPECT_EQ(result.retracts(), 1u);
  ASSERT_EQ(result.Ideal().size(), 1u);
  EXPECT_EQ(result.Ideal()[0].valid(), (Interval{0, 3}));
}

TEST(InsertsDeletesOpTest, DeletesAppearOnceEndKnown) {
  Event e = MakeEvent(1, 2, kInfinity, KV(1, 1));
  auto op = MakeDeletesOp(ConsistencySpec::Middle());
  auto result = RunUnary(op.get(), {InsertOf(e, 1), RetractOf(e, 9, 2)});
  ASSERT_EQ(result.Ideal().size(), 1u);
  EXPECT_EQ(result.Ideal()[0].valid(), (Interval{9, kInfinity}));
}

TEST(InsertsDeletesOpTest, InsertsMatchDenotation) {
  EventList input = {MakeEvent(1, 2, 9, KV(1, 1))};
  auto op = MakeInsertsOp(ConsistencySpec::Middle());
  auto result = RunUnary(op.get(), OrderedInserts(input));
  EXPECT_TRUE(StarEqual(result.Ideal(), denotation::Inserts(input)));
}

TEST(InsertsDeletesOpTest, FullRemovalRemovesInsertEvent) {
  Event e = MakeEvent(1, 2, 9, KV(1, 1));
  auto op = MakeInsertsOp(ConsistencySpec::Middle());
  auto result = RunUnary(op.get(), {InsertOf(e, 1), RetractOf(e, 2, 2)});
  EXPECT_TRUE(result.Ideal().empty());
}

}  // namespace
}  // namespace cedr
