// Backpressure and delivery-contract surfaces of the supervisor:
// retry-after hints (growth under overload, decay after it clears),
// zombie-client epoch fencing, the GapPolicy admission modes, and the
// operational stats snapshot.
#include <gtest/gtest.h>

#include "engine/supervisor.h"
#include "workload/machines.h"

namespace cedr {
namespace {

SchemaPtr MachineSchema() { return workload::MachineEventSchema(); }

Row Payload(int64_t machine) {
  return Row(MachineSchema(), {Value(machine), Value("b")});
}

SupervisedService MakeService(SupervisorConfig config = {}) {
  SupervisedService svc(config);
  EXPECT_TRUE(svc.RegisterEventType("INSTALL", MachineSchema()).ok());
  EXPECT_TRUE(svc.RegisterEventType("SHUTDOWN", MachineSchema()).ok());
  EXPECT_TRUE(svc.RegisterEventType("RESTART", MachineSchema()).ok());
  return svc;
}

using Ingress = SupervisedService::Ingress;

// ---------------------------------------------------------------------
// SuggestedRetryAfterTicks

TEST(RetryAfterTest, BaselineIsOneTick) {
  SupervisedService svc = MakeService();
  EXPECT_EQ(svc.SuggestedRetryAfterTicks(), 1);
}

TEST(RetryAfterTest, GrowsWithQueueDepthAndRejectionBacklog) {
  SupervisorConfig config;
  config.ingress.queue_capacity = 8;
  config.ingress.drain_per_tick = 2;
  config.session.heartbeat_timeout = 0;
  SupervisedService svc = MakeService(config);
  ASSERT_TRUE(svc.AttachSource("src", {"INSTALL"}).ok());

  // Sync points are never shed, so a queue full of them cannot make
  // room: every further call is a genuine rejection.
  uint64_t seq = 0;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        svc.PublishSyncPoint(Ingress{"src", 0, seq++}, "INSTALL", 10 + i)
            .ok());
  }
  const int64_t full_hint = svc.SuggestedRetryAfterTicks();
  EXPECT_GE(full_hint, 8 / config.ingress.drain_per_tick);

  // Each rejection grows the backlog, and the hint with it.
  int64_t prev = full_hint;
  for (int i = 0; i < 4; ++i) {
    Status st =
        svc.PublishSyncPoint(Ingress{"src", 0, seq}, "INSTALL", 100 + i);
    ASSERT_EQ(st.code(), StatusCode::kResourceExhausted);
    EXPECT_NE(st.message().find("retry after "), std::string::npos);
  }
  EXPECT_GT(svc.SuggestedRetryAfterTicks(), prev);
}

TEST(RetryAfterTest, DecaysBackToBaselineAfterOverloadClears) {
  SupervisorConfig config;
  config.ingress.queue_capacity = 8;
  config.ingress.drain_per_tick = 2;
  config.session.heartbeat_timeout = 0;
  SupervisedService svc = MakeService(config);
  ASSERT_TRUE(svc.AttachSource("src", {"INSTALL"}).ok());

  uint64_t seq = 0;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        svc.PublishSyncPoint(Ingress{"src", 0, seq++}, "INSTALL", 10 + i)
            .ok());
  }
  for (int i = 0; i < 6; ++i) {
    ASSERT_EQ(
        svc.PublishSyncPoint(Ingress{"src", 0, seq}, "INSTALL", 100 + i)
            .code(),
        StatusCode::kResourceExhausted);
  }
  const int64_t overloaded = svc.SuggestedRetryAfterTicks();
  ASSERT_GT(overloaded, 1);

  // Drain ticks work off both the queue and the rejection backlog; the
  // hint must fall monotonically back to the 1-tick baseline.
  int64_t prev = overloaded;
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(svc.Tick().ok());
    int64_t hint = svc.SuggestedRetryAfterTicks();
    EXPECT_LE(hint, prev);
    prev = hint;
  }
  EXPECT_EQ(prev, 1);
  EXPECT_EQ(svc.queue_depth(), 0u);
}

// ---------------------------------------------------------------------
// Zombie fencing

TEST(ZombieFencingTest, StaleEpochRetriesAreRejectedWithoutStateMutation) {
  SupervisorConfig config;
  config.session.heartbeat_timeout = 0;
  SupervisedService svc = MakeService(config);
  ASSERT_TRUE(svc.AttachSource("src", {"INSTALL"}).ok());
  ASSERT_TRUE(svc.Publish(Ingress{"src", 0, 0}, "INSTALL",
                          MakeEvent(1, 1, 5, Payload(1)))
                  .ok());
  ASSERT_TRUE(svc.Tick().ok());

  // The provider is replaced: epoch bumps to 1.
  SourceSession::ResumePoint resume = svc.Reconnect("src").ValueOrDie();
  EXPECT_EQ(resume.epoch, 1u);
  EXPECT_EQ(resume.next_seq, 1u);

  // The zombie keeps hammering with its dead epoch: every call - fresh
  // seqs, replayed seqs, sync points - is rejected, and nothing queues.
  const SourceSession* session = svc.Session("src").ValueOrDie();
  const uint64_t accepted_before = session->stats().accepted;
  const uint64_t next_seq_before = session->next_seq();
  for (uint64_t i = 0; i < 5; ++i) {
    Status st = svc.Publish(Ingress{"src", 0, i}, "INSTALL",
                            MakeEvent(100 + i, 1, 5, Payload(2)));
    EXPECT_EQ(st.code(), StatusCode::kExecutionError);
    EXPECT_NE(st.message().find("stale epoch"), std::string::npos);
  }
  Status sync = svc.PublishSyncPoint(Ingress{"src", 0, 9}, "INSTALL", 50);
  EXPECT_EQ(sync.code(), StatusCode::kExecutionError);

  EXPECT_EQ(svc.queue_depth(), 0u);
  EXPECT_EQ(session->stats().accepted, accepted_before);
  EXPECT_EQ(session->next_seq(), next_seq_before);
  // Every rejected call is accounted.
  EXPECT_EQ(session->stats().stale_epoch_rejects, 6u);

  // The replacement provider on the new epoch is unaffected.
  EXPECT_TRUE(svc.Publish(Ingress{"src", 1, 1}, "INSTALL",
                          MakeEvent(2, 6, 9, Payload(1)))
                  .ok());
}

// ---------------------------------------------------------------------
// GapPolicy

TEST(GapPolicyTest, ToString) {
  EXPECT_STREQ(GapPolicyToString(GapPolicy::kResync), "resync");
  EXPECT_STREQ(GapPolicyToString(GapPolicy::kReject), "reject");
}

TEST(GapPolicyTest, RejectRefusesSeqAheadUntilTheHoleFills) {
  SessionConfig config;
  config.heartbeat_timeout = 0;
  config.gap_policy = GapPolicy::kReject;
  SourceSession session("src", config, {"INSTALL"});

  ASSERT_TRUE(session.Admit(0, 0, 0).ValueOrDie());
  // seq 2 with seq 1 missing: the hole must be retransmitted first.
  Result<bool> ahead = session.Admit(0, 2, 0);
  ASSERT_FALSE(ahead.ok());
  EXPECT_EQ(ahead.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(session.stats().out_of_order_rejects, 1u);
  EXPECT_EQ(session.stats().gaps, 0u);
  EXPECT_EQ(session.next_seq(), 1u);

  // The retransmitted hole lands, then the once-ahead frame.
  ASSERT_TRUE(session.Admit(0, 1, 1).ValueOrDie());
  ASSERT_TRUE(session.Admit(0, 2, 1).ValueOrDie());
  EXPECT_EQ(session.stats().accepted, 3u);
  // A replay below the cursor is still an idempotent duplicate drop.
  EXPECT_FALSE(session.Admit(0, 0, 2).ValueOrDie());
  EXPECT_EQ(session.stats().duplicates, 1u);
}

TEST(GapPolicyTest, ResyncStillToleratesGaps) {
  SessionConfig config;
  config.heartbeat_timeout = 0;
  config.gap_policy = GapPolicy::kResync;
  SourceSession session("src", config, {"INSTALL"});

  ASSERT_TRUE(session.Admit(0, 0, 0).ValueOrDie());
  ASSERT_TRUE(session.Admit(0, 5, 0).ValueOrDie());
  EXPECT_EQ(session.stats().gaps, 1u);
  EXPECT_EQ(session.stats().out_of_order_rejects, 0u);
  EXPECT_EQ(session.next_seq(), 6u);
}

// ---------------------------------------------------------------------
// Stats snapshot

TEST(SupervisorSnapshotTest, ExposesSessionsTenantsAndQueue) {
  SupervisorConfig config;
  config.session.heartbeat_timeout = 0;
  SupervisedService svc = MakeService(config);
  ASSERT_TRUE(svc.AttachSource("alpha", {"INSTALL"}, "tenant-a").ok());
  ASSERT_TRUE(svc.AttachSource("beta", {"SHUTDOWN"}, "tenant-b").ok());

  ASSERT_TRUE(svc.Publish(Ingress{"alpha", 0, 0}, "INSTALL",
                          MakeEvent(1, 1, 5, Payload(1)))
                  .ok());
  // A duplicate and a stale-epoch reject, so the counters are nonzero.
  ASSERT_TRUE(svc.Tick().ok());
  ASSERT_TRUE(svc.Publish(Ingress{"alpha", 0, 0}, "INSTALL",
                          MakeEvent(1, 1, 5, Payload(1)))
                  .ok());
  ASSERT_TRUE(svc.Reconnect("beta").ok());
  EXPECT_FALSE(svc.PublishSyncPoint(Ingress{"beta", 0, 0}, "SHUTDOWN", 9)
                   .ok());

  SupervisorSnapshot snap = svc.StatsSnapshot();
  EXPECT_EQ(snap.now_ticks, 1);
  EXPECT_EQ(snap.queue_depth, 0u);
  EXPECT_GE(snap.retry_after_hint, 1);
  ASSERT_EQ(snap.sessions.size(), 2u);
  EXPECT_EQ(snap.sessions[0].source, "alpha");
  EXPECT_EQ(snap.sessions[0].stats.accepted, 1u);
  EXPECT_EQ(snap.sessions[0].stats.duplicates, 1u);
  EXPECT_EQ(snap.sessions[1].source, "beta");
  EXPECT_EQ(snap.sessions[1].epoch, 1u);
  EXPECT_EQ(snap.sessions[1].stats.stale_epoch_rejects, 1u);
  ASSERT_EQ(snap.tenants.size(), 2u);
  EXPECT_EQ(snap.tenants[0].tenant, "tenant-a");
  EXPECT_EQ(snap.tenants[0].sources, 1u);

  std::string dump = FormatSupervisorStats(snap);
  EXPECT_NE(dump.find("source 'alpha'"), std::string::npos);
  EXPECT_NE(dump.find("1 duplicates"), std::string::npos);
  EXPECT_NE(dump.find("source 'beta'"), std::string::npos);
  EXPECT_NE(dump.find("1 stale-epoch rejects"), std::string::npos);
  EXPECT_NE(dump.find("tenant 'tenant-a'"), std::string::npos);
  EXPECT_NE(dump.find("retry-after hint"), std::string::npos);
}

TEST(SupervisorSnapshotTest, ReportsSwitchingCostPerQuery) {
  SupervisorConfig config;
  config.session.heartbeat_timeout = 0;
  SupervisedService svc = MakeService(config);
  auto name = svc.RegisterQuery(
      "EVENT Pairs WHEN SEQUENCE(INSTALL, SHUTDOWN, 60)");
  ASSERT_TRUE(name.ok());
  ASSERT_TRUE(svc.AttachSource("alpha", {"INSTALL", "SHUTDOWN"}).ok());
  ASSERT_TRUE(svc.Publish(Ingress{"alpha", 0, 0}, "INSTALL",
                          MakeEvent(1, 1, 5, Payload(1)))
                  .ok());
  // A common sync point over both input types takes the first barrier
  // and folds the retained input into it.
  ASSERT_TRUE(svc.PublishSyncPoint(Ingress{"alpha", 0, 1}, "INSTALL", 9)
                  .ok());
  ASSERT_TRUE(svc.PublishSyncPoint(Ingress{"alpha", 0, 2}, "SHUTDOWN", 9)
                  .ok());
  ASSERT_TRUE(svc.Tick().ok());

  SupervisorSnapshot snap = svc.StatsSnapshot();
  ASSERT_EQ(snap.queries.size(), 1u);
  const QuerySwitchingSnapshot& q = snap.queries[0];
  EXPECT_EQ(q.query, name.ValueOrDie());
  EXPECT_EQ(q.switches, 0);
  EXPECT_EQ(q.barriers, 1u);
  EXPECT_GT(q.barrier_bytes, 0u);
  EXPECT_EQ(q.retained_input, 0u);

  std::string dump = FormatSupervisorStats(snap);
  EXPECT_NE(dump.find("query '" + q.query + "': 0 switches, 1 barriers"),
            std::string::npos);
}

}  // namespace
}  // namespace cedr
