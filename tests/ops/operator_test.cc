// Operator base-class mechanics: emission invariants, CTI monotonicity,
// error propagation, statistics.
#include "ops/operator.h"

#include <gtest/gtest.h>

#include "engine/sink.h"
#include "ops/select.h"
#include "testing/helpers.h"

namespace cedr {
namespace {

using testing::KV;

/// A passthrough operator exposing the protected emission helpers.
class ProbeOp : public Operator {
 public:
  explicit ProbeOp(ConsistencySpec spec = ConsistencySpec::Middle())
      : Operator("probe", spec, 1) {}

  using Operator::EmitCti;
  using Operator::EmitInsert;
  using Operator::EmitRetract;

 protected:
  Status ProcessInsert(const Event& e, int) override {
    EmitInsert(e);
    return Status::OK();
  }
  Status ProcessRetract(const Event& e, Time new_ve, int) override {
    EmitRetract(e, new_ve);
    return Status::OK();
  }
};

/// An operator that fails on demand (failure injection).
class FailingOp : public Operator {
 public:
  FailingOp() : Operator("failing", ConsistencySpec::Middle(), 1) {}

 protected:
  Status ProcessInsert(const Event&, int) override {
    return Status::ExecutionError("injected failure");
  }
  Status ProcessRetract(const Event&, Time, int) override {
    return Status::OK();
  }
};

TEST(OperatorTest, EmitInsertDropsEmptyLifetimes) {
  ProbeOp op;
  CollectingSink sink;
  op.ConnectTo(&sink, 0);
  op.EmitInsert(MakeEvent(1, 5, 5));
  EXPECT_EQ(sink.inserts(), 0u);
  op.EmitInsert(MakeEvent(2, 5, 6));
  EXPECT_EQ(sink.inserts(), 1u);
}

TEST(OperatorTest, EmitRetractClampsAndSkipsNoOps) {
  ProbeOp op;
  CollectingSink sink;
  op.ConnectTo(&sink, 0);
  Event e = MakeEvent(1, 5, 10);
  op.EmitRetract(e, 12);  // not a reduction: no-op
  op.EmitRetract(e, 10);  // equal: no-op
  EXPECT_EQ(sink.retracts(), 0u);
  op.EmitRetract(e, 2);  // clamped to vs (full removal)
  ASSERT_EQ(sink.retracts(), 1u);
  EXPECT_EQ(sink.messages().back().new_ve, 5);
}

TEST(OperatorTest, EmitCtiIsMonotoneAndDeduplicated) {
  ProbeOp op;
  CollectingSink sink;
  op.ConnectTo(&sink, 0);
  op.EmitCti(10);
  op.EmitCti(10);  // duplicate
  op.EmitCti(7);   // regression
  op.EmitCti(12);
  EXPECT_EQ(sink.ctis(), 2u);
  EXPECT_EQ(sink.messages()[0].time, 10);
  EXPECT_EQ(sink.messages()[1].time, 12);
}

TEST(OperatorTest, DownstreamFailureSurfacesOnNextPush) {
  ProbeOp op;
  FailingOp failing;
  op.ConnectTo(&failing, 0);
  Message m = InsertOf(MakeEvent(1, 5, 10, KV(0, 1)), 1);
  // The failure happens while emitting downstream; the status surfaces
  // from this or the next call.
  Status first = op.Push(0, m);
  Status second = op.Push(0, m);
  EXPECT_TRUE(!first.ok() || !second.ok());
  EXPECT_EQ(second.code(), StatusCode::kExecutionError);
}

TEST(OperatorTest, StatsCountMessageKinds) {
  ProbeOp op;
  CollectingSink sink;
  op.ConnectTo(&sink, 0);
  Event e = MakeEvent(1, 5, 10, KV(0, 1));
  ASSERT_TRUE(op.Push(0, InsertOf(e, 1)).ok());
  ASSERT_TRUE(op.Push(0, RetractOf(e, 7, 2)).ok());
  ASSERT_TRUE(op.Push(0, CtiOf(9, 3)).ok());
  OperatorStats stats = op.stats();
  EXPECT_EQ(stats.in_inserts, 1u);
  EXPECT_EQ(stats.in_retracts, 1u);
  EXPECT_EQ(stats.in_ctis, 1u);
  EXPECT_EQ(stats.out_inserts, 1u);
  EXPECT_EQ(stats.out_retracts, 1u);
  EXPECT_EQ(stats.out_ctis, 1u);
  EXPECT_EQ(stats.OutputSize(), 2u);
  EXPECT_NE(stats.ToString().find("probe"), std::string::npos);
}

TEST(OperatorTest, DefaultCtiForwardsGuarantee) {
  // A unary operator forwards the (combined) input guarantee.
  ProbeOp op;
  CollectingSink sink;
  op.ConnectTo(&sink, 0);
  ASSERT_TRUE(op.Push(0, CtiOf(10, 1)).ok());
  ASSERT_EQ(sink.ctis(), 1u);
  EXPECT_EQ(sink.messages()[0].time, 10);
}

TEST(OperatorTest, BinaryCtiWaitsForBothPorts) {
  SelectOp left([](const Row&) { return true; }, ConsistencySpec::Middle());
  // Use a join-like 2-port operator through the monitor directly: a
  // 2-input probe.
  class TwoPort : public Operator {
   public:
    TwoPort() : Operator("two", ConsistencySpec::Middle(), 2) {}

   protected:
    Status ProcessInsert(const Event&, int) override { return Status::OK(); }
    Status ProcessRetract(const Event&, Time, int) override {
      return Status::OK();
    }
  };
  TwoPort op;
  CollectingSink sink;
  op.ConnectTo(&sink, 0);
  ASSERT_TRUE(op.Push(0, CtiOf(10, 1)).ok());
  EXPECT_EQ(sink.ctis(), 0u);  // port 1 still at -inf
  ASSERT_TRUE(op.Push(1, CtiOf(6, 2)).ok());
  ASSERT_EQ(sink.ctis(), 1u);
  EXPECT_EQ(sink.messages()[0].time, 6);  // min over ports
  (void)left;
}

TEST(OperatorTest, DrainReleasesStrongBuffers) {
  SelectOp op([](const Row&) { return true; }, ConsistencySpec::Strong());
  CollectingSink sink;
  op.ConnectTo(&sink, 0);
  ASSERT_TRUE(op.Push(0, InsertOf(MakeEvent(1, 5, 10, KV(0, 1)), 1)).ok());
  EXPECT_EQ(sink.inserts(), 0u);  // blocked: no guarantee yet
  ASSERT_TRUE(op.Drain().ok());
  EXPECT_EQ(sink.inserts(), 1u);
}

TEST(OperatorTest, TrimsOnlyWhenTheRepairHorizonAdvances) {
  // Counts TrimState calls and records the horizons they see.
  class TrimCountingOp : public Operator {
   public:
    TrimCountingOp() : Operator("trims", ConsistencySpec::Middle(), 1) {}
    std::vector<Time> trims;

   protected:
    Status ProcessInsert(const Event&, int) override { return Status::OK(); }
    Status ProcessRetract(const Event&, Time, int) override {
      return Status::OK();
    }
    void TrimState(Time horizon) override { trims.push_back(horizon); }
  };
  TrimCountingOp op;
  ASSERT_TRUE(op.Push(0, CtiOf(10, 1)).ok());
  EXPECT_EQ(op.trims, (std::vector<Time>{10}));
  // Above the horizon, which holds: no trim.
  ASSERT_TRUE(op.Push(0, InsertOf(MakeEvent(1, 15, 30, KV(0, 1)), 2)).ok());
  ASSERT_TRUE(op.Push(0, RetractOf(MakeEvent(1, 15, 30, KV(0, 1)), 25, 3))
                  .ok());
  EXPECT_EQ(op.trims, (std::vector<Time>{10}));
  // The horizon advances: one trim.
  ASSERT_TRUE(op.Push(0, CtiOf(20, 4)).ok());
  EXPECT_EQ(op.trims, (std::vector<Time>{10, 20}));
  // A message at the trimmed horizon: one more trim, then none again.
  ASSERT_TRUE(op.Push(0, InsertOf(MakeEvent(2, 20, 40, KV(0, 2)), 5)).ok());
  EXPECT_EQ(op.trims, (std::vector<Time>{10, 20, 20}));
  ASSERT_TRUE(op.Push(0, InsertOf(MakeEvent(3, 21, 40, KV(0, 3)), 6)).ok());
  EXPECT_EQ(op.trims, (std::vector<Time>{10, 20, 20}));
}

TEST(OperatorTest, MaxWatermarkTracksFastestPort) {
  class TwoPort : public Operator {
   public:
    TwoPort() : Operator("two", ConsistencySpec::Middle(), 2) {}
    using Operator::max_watermark;
    using Operator::watermark;

   protected:
    Status ProcessInsert(const Event&, int) override { return Status::OK(); }
    Status ProcessRetract(const Event&, Time, int) override {
      return Status::OK();
    }
  };
  TwoPort op;
  ASSERT_TRUE(op.Push(0, InsertOf(MakeEvent(1, 50, 60, KV(0, 1)), 1)).ok());
  EXPECT_EQ(op.max_watermark(), 50);
  EXPECT_EQ(op.watermark(), kMinTime);  // min over ports
}

}  // namespace
}  // namespace cedr
