// Checkpoint/restore at every layer: a mid-stream operator snapshot
// restored into a fresh instance must continue exactly like the
// uninterrupted run (physically identical output, not merely logically
// equivalent), and the same must hold for a whole CedrService.
#include <gtest/gtest.h>

#include <functional>

#include "denotation/patterns.h"
#include "engine/service.h"
#include "ops/alter_lifetime.h"
#include "ops/difference.h"
#include "ops/groupby.h"
#include "ops/join.h"
#include "ops/select.h"
#include "ops/union_op.h"
#include "pattern/negation.h"
#include "testing/fault.h"
#include "testing/helpers.h"
#include "workload/disorder.h"
#include "workload/machines.h"

namespace cedr {
namespace {

using testing::KV;
using testing::PhysicallyIdentical;

// One (port, message) feed step.
using Feed = std::vector<std::pair<int, Message>>;

struct Wired {
  std::unique_ptr<Operator> op;
  std::unique_ptr<CollectingSink> sink;
};

using OpFactory = std::function<std::unique_ptr<Operator>()>;

Wired Wire(const OpFactory& factory) {
  Wired w;
  w.op = factory();
  w.sink = std::make_unique<CollectingSink>("sink");
  w.op->ConnectTo(w.sink.get(), 0);
  return w;
}

Status FinishOp(Wired* w, Time end_cs) {
  Message end = CtiOf(kInfinity, end_cs);
  for (int p = 0; p < w->op->num_inputs(); ++p) {
    CEDR_RETURN_NOT_OK(w->op->Push(p, end));
  }
  CEDR_RETURN_NOT_OK(w->op->Drain());
  return w->sink->Drain();
}

// Runs `feed` uninterrupted, then again with a snapshot/restore at
// every split point, asserting physically identical sink output.
void ExpectRoundtripAtEverySplit(const OpFactory& factory,
                                 const Feed& feed) {
  Time end_cs = 1;
  for (const auto& [port, msg] : feed) end_cs = std::max(end_cs, msg.cs + 1);

  Wired baseline = Wire(factory);
  for (const auto& [port, msg] : feed) {
    ASSERT_TRUE(baseline.op->Push(port, msg).ok());
  }
  ASSERT_TRUE(FinishOp(&baseline, end_cs).ok());

  for (size_t split = 0; split <= feed.size(); ++split) {
    Wired a = Wire(factory);
    for (size_t i = 0; i < split; ++i) {
      ASSERT_TRUE(a.op->Push(feed[i].first, feed[i].second).ok());
    }
    io::BinaryWriter op_bytes;
    io::BinaryWriter sink_bytes;
    a.op->Snapshot(&op_bytes);
    a.sink->Snapshot(&sink_bytes);

    Wired b = Wire(factory);
    io::BinaryReader op_reader(op_bytes.bytes());
    ASSERT_TRUE(b.op->Restore(&op_reader).ok()) << "split " << split;
    ASSERT_TRUE(op_reader.ExpectEnd().ok()) << "split " << split;
    io::BinaryReader sink_reader(sink_bytes.bytes());
    ASSERT_TRUE(b.sink->Restore(&sink_reader).ok());
    ASSERT_TRUE(sink_reader.ExpectEnd().ok());

    for (size_t i = split; i < feed.size(); ++i) {
      ASSERT_TRUE(b.op->Push(feed[i].first, feed[i].second).ok());
    }
    ASSERT_TRUE(FinishOp(&b, end_cs).ok());
    EXPECT_TRUE(PhysicallyIdentical(baseline.sink->messages(),
                                    b.sink->messages()))
        << "recovered run diverged when split at " << split;
  }
}

Feed UnaryFeed() {
  Feed feed;
  Time cs = 1;
  for (int i = 0; i < 8; ++i) {
    feed.push_back({0, InsertOf(MakeEvent(i + 1, i + 1, i + 20,
                                          KV(i % 3, i * 10)),
                                cs++)});
  }
  feed.push_back({0, RetractOf(MakeEvent(3, 3, 22, KV(2, 20)), 10, cs++)});
  feed.push_back({0, CtiOf(5, cs++)});
  feed.push_back({0, InsertOf(MakeEvent(20, 8, 30, KV(1, 70)), cs++)});
  return feed;
}

Feed BinaryFeed() {
  Feed feed;
  Time cs = 1;
  for (int i = 0; i < 6; ++i) {
    feed.push_back({0, InsertOf(MakeEvent(i + 1, i + 1, i + 15,
                                          KV(i % 2, i)),
                                cs++)});
    feed.push_back({1, InsertOf(MakeEvent(i + 100, i + 2, i + 12,
                                          KV(i % 2, i + 50)),
                                cs++)});
  }
  feed.push_back({0, RetractOf(MakeEvent(2, 2, 16, KV(1, 1)), 8, cs++)});
  feed.push_back({0, CtiOf(4, cs++)});
  feed.push_back({1, CtiOf(4, cs++)});
  return feed;
}

TEST(OperatorCheckpointTest, SelectRoundtrip) {
  ExpectRoundtripAtEverySplit(
      [] {
        return std::make_unique<SelectOp>(
            [](const Row& r) { return r.at(1) == Value(0) ? false : true; },
            ConsistencySpec::Middle());
      },
      UnaryFeed());
}

TEST(OperatorCheckpointTest, JoinRoundtrip) {
  ExpectRoundtripAtEverySplit(
      [] {
        return std::make_unique<JoinOp>(
            [](const Row& l, const Row& r) { return l.at(0) == r.at(0); },
            nullptr, ConsistencySpec::Middle());
      },
      BinaryFeed());
}

TEST(OperatorCheckpointTest, EquiJoinRoundtrip) {
  ExpectRoundtripAtEverySplit(
      [] {
        auto op = std::make_unique<JoinOp>(
            [](const Row& l, const Row& r) { return l.at(0) == r.at(0); },
            nullptr, ConsistencySpec::Middle());
        op->SetEquiKeys([](const Row& r) { return r.at(0); },
                        [](const Row& r) { return r.at(0); });
        return op;
      },
      BinaryFeed());
}

TEST(OperatorCheckpointTest, UnionRoundtrip) {
  ExpectRoundtripAtEverySplit(
      [] { return std::make_unique<UnionOp>(ConsistencySpec::Middle()); },
      BinaryFeed());
}

TEST(OperatorCheckpointTest, DifferenceRoundtripStrong) {
  ExpectRoundtripAtEverySplit(
      [] {
        return std::make_unique<DifferenceOp>(ConsistencySpec::Strong());
      },
      BinaryFeed());
}

TEST(OperatorCheckpointTest, GroupByRoundtrip) {
  ExpectRoundtripAtEverySplit(
      [] {
        SchemaPtr out = Schema::Make({{"key", ValueType::kInt64},
                                      {"sum", ValueType::kInt64}});
        return std::make_unique<GroupByAggregateOp>(
            std::vector<std::string>{"key"},
            std::vector<AggregateSpec>{
                {AggregateKind::kSum, "value", "sum"}},
            out, ConsistencySpec::Middle());
      },
      UnaryFeed());
}

TEST(OperatorCheckpointTest, AlterLifetimeRoundtrip) {
  ExpectRoundtripAtEverySplit(
      [] {
        return std::make_unique<AlterLifetimeOp>(
            [](const Event& e) { return e.vs; },
            [](const Event&) { return Duration{10}; },
            ConsistencySpec::Middle());
      },
      UnaryFeed());
}

TEST(OperatorCheckpointTest, StrongAlignmentBufferRoundtrip) {
  // Strong consistency keeps messages blocked in the alignment buffer;
  // the snapshot must carry them.
  ExpectRoundtripAtEverySplit(
      [] {
        return std::make_unique<SelectOp>([](const Row&) { return true; },
                                          ConsistencySpec::Strong());
      },
      UnaryFeed());
}

// Negation feed: SEQUENCE(A, B, 10) composites (with lineage) and one
// primitive on port 0, keyed blockers on port 1, with a blocker removal,
// a positive full retraction, late blockers and CTIs on both ports.
Feed NegationFeed() {
  auto ev = [](EventId id, Time vs, int64_t key) {
    return MakeEvent(id, vs, TimeAdd(vs, 1), KV(key, static_cast<int64_t>(id)));
  };
  EventList composites = denotation::Sequence(
      {{ev(1, 2, 0), ev(2, 11, 1)}, {ev(3, 9, 0), ev(4, 14, 1), ev(5, 19, 0)}},
      10);
  EXPECT_EQ(composites.size(), 3u);  // vs 9, 14 and 19
  std::sort(composites.begin(), composites.end(),
            [](const Event& x, const Event& y) { return x.vs < y.vs; });
  Event removed_blocker = ev(102, 13, 1);
  Feed feed;
  Time cs = 1;
  feed.push_back({1, InsertOf(ev(101, 5, 0), cs++)});
  feed.push_back({0, InsertOf(composites[0], cs++)});
  feed.push_back({1, InsertOf(removed_blocker, cs++)});
  feed.push_back({0, CtiOf(10, cs++)});
  feed.push_back({1, CtiOf(10, cs++)});
  feed.push_back({0, InsertOf(composites[1], cs++)});
  feed.push_back({1, RetractOf(removed_blocker, removed_blocker.vs, cs++)});
  feed.push_back({0, InsertOf(composites[2], cs++)});
  feed.push_back({1, InsertOf(ev(103, 16, 1), cs++)});
  feed.push_back({0, RetractOf(composites[1], composites[1].vs, cs++)});
  feed.push_back({0, InsertOf(ev(6, 25, 0), cs++)});
  feed.push_back({1, InsertOf(ev(104, 27, 0), cs++)});
  feed.push_back({0, CtiOf(20, cs++)});
  feed.push_back({1, CtiOf(20, cs++)});
  feed.push_back({1, InsertOf(ev(105, 23, 1), cs++)});
  feed.push_back({0, CtiOf(30, cs++)});
  feed.push_back({1, CtiOf(30, cs++)});
  return feed;
}

bool SameKey(const std::vector<const Event*>& tuple, const Event& z) {
  return tuple[0]->payload.at(0) == z.payload.at(0);
}

// Runs the negation feed through `make(spec)` at strong and middle.
void ExpectNegationRoundtrip(
    const std::function<std::unique_ptr<Operator>(ConsistencySpec)>& make) {
  for (ConsistencySpec spec :
       {ConsistencySpec::Strong(), ConsistencySpec::Middle()}) {
    SCOPED_TRACE(spec.ToString());
    ExpectRoundtripAtEverySplit([&] { return make(spec); }, NegationFeed());
  }
}

TEST(OperatorCheckpointTest, UnlessRoundtrip) {
  ExpectNegationRoundtrip([](ConsistencySpec spec) {
    return std::make_unique<NegationOp>(NegationWindow::Unless(10), SameKey,
                                        spec);
  });
}

TEST(OperatorCheckpointTest, UnlessPrimeRoundtrip) {
  ExpectNegationRoundtrip([](ConsistencySpec spec) {
    return std::make_unique<NegationOp>(
        NegationWindow::UnlessPrime(1, 10, /*lookback=*/10), SameKey, spec);
  });
}

TEST(OperatorCheckpointTest, NotRoundtrip) {
  ExpectNegationRoundtrip([](ConsistencySpec spec) {
    return std::make_unique<NegationOp>(NegationWindow::Not(10), SameKey,
                                        spec);
  });
}

TEST(OperatorCheckpointTest, CancelWhenRoundtrip) {
  ExpectNegationRoundtrip([](ConsistencySpec spec) {
    return std::make_unique<NegationOp>(
        NegationWindow::CancelWhen(/*lookback=*/10), SameKey, spec);
  });
}

// ATMOST(1, A, B, 3) feed over two pooled ports: a crowded window, a
// removal that resurrects, a late arrival that retracts and whose
// removal re-issues the output's id, and CTIs on both ports.
Feed AtMostFeed() {
  auto ev = [](EventId id, Time vs) {
    return MakeEvent(id, vs, TimeAdd(vs, 1), KV(0, static_cast<int64_t>(id)));
  };
  Event removed = ev(101, 5);
  Event late = ev(103, 11);
  Feed feed;
  Time cs = 1;
  feed.push_back({0, InsertOf(ev(1, 2), cs++)});
  feed.push_back({1, InsertOf(removed, cs++)});
  feed.push_back({0, InsertOf(ev(2, 6), cs++)});
  feed.push_back({0, InsertOf(ev(3, 8), cs++)});
  feed.push_back({0, CtiOf(5, cs++)});
  feed.push_back({1, CtiOf(5, cs++)});
  feed.push_back({1, RetractOf(removed, removed.vs, cs++)});
  feed.push_back({1, InsertOf(ev(102, 7), cs++)});
  feed.push_back({0, InsertOf(ev(4, 12), cs++)});
  feed.push_back({1, InsertOf(late, cs++)});
  feed.push_back({0, CtiOf(10, cs++)});
  feed.push_back({1, CtiOf(10, cs++)});
  feed.push_back({1, RetractOf(late, late.vs, cs++)});
  feed.push_back({0, CtiOf(20, cs++)});
  feed.push_back({1, CtiOf(20, cs++)});
  return feed;
}

TEST(OperatorCheckpointTest, AtMostRoundtrip) {
  for (ConsistencySpec spec :
       {ConsistencySpec::Strong(), ConsistencySpec::Middle()}) {
    SCOPED_TRACE(spec.ToString());
    ExpectRoundtripAtEverySplit(
        [&] {
          return std::make_unique<NegationOp>(NegationWindow::AtMost(1, 3),
                                              nullptr, spec,
                                              /*num_inputs=*/2);
        },
        AtMostFeed());
  }
}

TEST(OperatorCheckpointTest, RestoreIntoWrongOperatorIsCorruption) {
  SelectOp a([](const Row&) { return true; }, ConsistencySpec::Middle(),
             "select_a");
  SelectOp b([](const Row&) { return true; }, ConsistencySpec::Middle(),
             "select_b");
  io::BinaryWriter w;
  a.Snapshot(&w);
  io::BinaryReader r(w.bytes());
  Status st = b.Restore(&r);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kCorruption);
}

// --- Service-level checkpoint ---

struct ServiceFeed {
  std::vector<io::JournalRecord> calls;
};

ServiceFeed MachineFeed(uint64_t seed, double disorder) {
  workload::MachineConfig config;
  config.num_machines = 5;
  config.num_sessions = 60;
  config.max_session_length = 30;
  config.restart_scope = 8;
  config.session_interval = 5;
  config.seed = seed;
  workload::MachineStreams streams =
      workload::GenerateMachineEvents(config);
  DisorderConfig dconfig;
  dconfig.disorder_fraction = disorder;
  dconfig.max_delay = disorder > 0 ? 8 : 0;
  dconfig.cti_period = 15;
  dconfig.seed = seed * 11;
  ServiceFeed feed;
  feed.calls = testing::MergeFeeds({
      testing::FeedOf("INSTALL", ApplyDisorder(streams.installs, dconfig)),
      testing::FeedOf("SHUTDOWN",
                      ApplyDisorder(streams.shutdowns, dconfig)),
      testing::FeedOf("RESTART", ApplyDisorder(streams.restarts, dconfig)),
  });
  return feed;
}

Status ApplyCall(CedrService* service, const io::JournalRecord& call) {
  switch (call.op) {
    case io::JournalOp::kPublish:
      return service->Publish(call.name, call.event);
    case io::JournalOp::kRetract:
      return service->PublishRetraction(call.name, call.event, call.new_ve);
    case io::JournalOp::kSyncPoint:
      return service->PublishSyncPoint(call.name, call.time);
    default:
      return Status::InvalidArgument("unexpected call in feed");
  }
}

std::vector<Message> SinkOf(const CedrService& service,
                            const std::string& name) {
  return service.GetQuery(name).ValueOrDie()->sink().messages();
}

TEST(ServiceCheckpointTest, MidStreamRoundtripIsPhysicallyIdentical) {
  ServiceFeed feed = MachineFeed(21, /*disorder=*/0.3);
  std::string query = workload::Cidr07ExampleQuery(/*hours=*/30,
                                                   /*minutes=*/8);

  auto prepare = [&](CedrService* service) {
    for (const auto& [name, schema] : workload::MachineCatalog()) {
      ASSERT_TRUE(service->RegisterEventType(name, schema).ok());
    }
    ASSERT_TRUE(service
                    ->RegisterQuery(query, ConsistencySpec::Strong())
                    .ok());
  };

  CedrService baseline;
  prepare(&baseline);
  for (const auto& call : feed.calls) {
    ASSERT_TRUE(ApplyCall(&baseline, call).ok());
  }
  ASSERT_TRUE(baseline.Finish().ok());

  CedrService first_half;
  prepare(&first_half);
  size_t split = feed.calls.size() / 2;
  for (size_t i = 0; i < split; ++i) {
    ASSERT_TRUE(ApplyCall(&first_half, feed.calls[i]).ok());
  }
  io::BinaryWriter w;
  ASSERT_TRUE(first_half.Checkpoint(&w).ok());

  io::BinaryReader r(w.bytes());
  std::unique_ptr<CedrService> restored =
      CedrService::Restore(&r).ValueOrDie();
  ASSERT_TRUE(r.ExpectEnd().ok());
  for (size_t i = split; i < feed.calls.size(); ++i) {
    ASSERT_TRUE(ApplyCall(restored.get(), feed.calls[i]).ok());
  }
  ASSERT_TRUE(restored->Finish().ok());

  // The restored query resumes its log where the checkpoint left it; the
  // output before that was delivered by the first half.
  testing::RunOutputs joined =
      testing::JoinOutputs(testing::OutputsOf(first_half), *restored)
          .ValueOrDie();
  EXPECT_TRUE(PhysicallyIdentical(SinkOf(baseline, "CIDR07_Example"),
                                  joined.at("CIDR07_Example")));
}

TEST(ServiceCheckpointTest, RestorePreservesCatalogAndHardening) {
  CedrService service;
  ASSERT_TRUE(service
                  .RegisterEventType("INSTALL",
                                    workload::MachineEventSchema())
                  .ok());
  Event e = MakeEvent(1, 1, 10);
  ASSERT_TRUE(service.Publish("INSTALL", e).ok());
  ASSERT_TRUE(service.PublishSyncPoint("INSTALL", 5).ok());

  io::BinaryWriter w;
  ASSERT_TRUE(service.Checkpoint(&w).ok());
  io::BinaryReader r(w.bytes());
  std::unique_ptr<CedrService> restored =
      CedrService::Restore(&r).ValueOrDie();

  // Catalog survives.
  EXPECT_EQ(restored->catalog().count("INSTALL"), 1u);
  // The cs clock continues, not restarts.
  EXPECT_EQ(restored->now(), service.now());
  // Hardening state survives: regressive sync and unknown retractions
  // are still rejected after restore.
  EXPECT_EQ(restored->PublishSyncPoint("INSTALL", 5).code(),
            StatusCode::kInvalidArgument);
  Event never = MakeEvent(99, 1, 10);
  EXPECT_EQ(restored->PublishRetraction("INSTALL", never, 5).code(),
            StatusCode::kNotFound);
  EXPECT_TRUE(restored->PublishRetraction("INSTALL", e, 5).ok());
}

TEST(ServiceCheckpointTest, FinishedFlagRoundtrips) {
  CedrService service;
  ASSERT_TRUE(service
                  .RegisterEventType("INSTALL",
                                    workload::MachineEventSchema())
                  .ok());
  ASSERT_TRUE(service.Finish().ok());
  io::BinaryWriter w;
  ASSERT_TRUE(service.Checkpoint(&w).ok());
  io::BinaryReader r(w.bytes());
  std::unique_ptr<CedrService> restored =
      CedrService::Restore(&r).ValueOrDie();
  EXPECT_EQ(restored->Publish("INSTALL", MakeEvent(1, 1, 2)).code(),
            StatusCode::kExecutionError);
}

TEST(ServiceCheckpointTest, TruncatedCheckpointIsDataLoss) {
  CedrService service;
  ASSERT_TRUE(service
                  .RegisterEventType("INSTALL",
                                    workload::MachineEventSchema())
                  .ok());
  io::BinaryWriter w;
  ASSERT_TRUE(service.Checkpoint(&w).ok());
  std::string bytes = w.Take();
  bytes.resize(bytes.size() / 2);
  io::BinaryReader r(bytes);
  Result<std::unique_ptr<CedrService>> got = CedrService::Restore(&r);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kDataLoss);
}

}  // namespace
}  // namespace cedr
