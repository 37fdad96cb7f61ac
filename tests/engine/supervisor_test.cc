// The runtime supervisor: sessions, bounded ingress, liveness policies,
// and the closed-loop consistency governor.
#include "engine/supervisor.h"

#include <gtest/gtest.h>

#include "testing/fault.h"
#include "workload/machines.h"

namespace cedr {
namespace {

SchemaPtr MachineSchema() { return workload::MachineEventSchema(); }

Row Payload(int64_t machine) {
  return Row(MachineSchema(), {Value(machine), Value("b")});
}

std::string PairQuery() {
  return "EVENT Pair WHEN SEQUENCE(INSTALL AS x, SHUTDOWN AS y, 40) "
         "WHERE {x.Machine_Id = y.Machine_Id}";
}

std::string AlertQuery() {
  return "EVENT Alert WHEN UNLESS(SEQUENCE(INSTALL AS x, SHUTDOWN AS y, "
         "40), RESTART AS z, 10) WHERE CorrelationKey(Machine_Id, EQUAL)";
}

SupervisedService MakeService(SupervisorConfig config = {}) {
  SupervisedService svc(config);
  EXPECT_TRUE(svc.RegisterEventType("INSTALL", MachineSchema()).ok());
  EXPECT_TRUE(svc.RegisterEventType("SHUTDOWN", MachineSchema()).ok());
  EXPECT_TRUE(svc.RegisterEventType("RESTART", MachineSchema()).ok());
  return svc;
}

using Ingress = SupervisedService::Ingress;

TEST(SupervisorTest, SourceAttachmentAndOwnership) {
  SupervisedService svc = MakeService();
  EXPECT_EQ(svc.AttachSource("a", {"NOPE"}).code(), StatusCode::kNotFound);
  EXPECT_FALSE(svc.AttachSource("a", {}).ok());
  EXPECT_FALSE(svc.AttachSource("@supervisor", {"INSTALL"}).ok());
  ASSERT_TRUE(svc.AttachSource("a", {"INSTALL", "SHUTDOWN"}).ok());
  EXPECT_EQ(svc.AttachSource("a", {"RESTART"}).code(),
            StatusCode::kAlreadyExists);
  // Each type has exactly one publishing source.
  EXPECT_EQ(svc.AttachSource("b", {"SHUTDOWN"}).code(),
            StatusCode::kAlreadyExists);
  ASSERT_TRUE(svc.AttachSource("b", {"RESTART"}).ok());
  // Publishing a type the source does not own is rejected.
  EXPECT_FALSE(
      svc.Publish(Ingress{"b", 0, 0}, "INSTALL", MakeEvent(1, 1, 5, Payload(1)))
          .ok());
}

TEST(SupervisorTest, EndToEndSequencedIngress) {
  SupervisedService svc = MakeService();
  ASSERT_TRUE(svc.RegisterQuery(PairQuery()).ok());
  ASSERT_TRUE(svc.AttachSource("src", {"INSTALL", "SHUTDOWN"}).ok());

  ASSERT_TRUE(svc.Publish(Ingress{"src", 0, 0}, "INSTALL",
                          MakeEvent(1, 2, kInfinity, Payload(7)))
                  .ok());
  ASSERT_TRUE(svc.Publish(Ingress{"src", 0, 1}, "SHUTDOWN",
                          MakeEvent(2, 20, kInfinity, Payload(7)))
                  .ok());
  ASSERT_TRUE(svc.PublishSyncPoint(Ingress{"src", 0, 2}, "INSTALL", 50).ok());
  ASSERT_TRUE(svc.PublishSyncPoint(Ingress{"src", 0, 3}, "SHUTDOWN", 50).ok());
  EXPECT_EQ(svc.queue_depth(), 4u);
  ASSERT_TRUE(svc.Tick().ok());
  EXPECT_EQ(svc.queue_depth(), 0u);

  // A replayed duplicate is absorbed, not applied twice.
  ASSERT_TRUE(svc.Publish(Ingress{"src", 0, 1}, "SHUTDOWN",
                          MakeEvent(2, 20, kInfinity, Payload(7)))
                  .ok());
  EXPECT_EQ(svc.queue_depth(), 0u);
  EXPECT_EQ(svc.Session("src").ValueOrDie()->stats().duplicates, 1u);

  ASSERT_TRUE(svc.Finish().ok());
  const SwitchableQuery* pair = svc.GetQuery("Pair").ValueOrDie();
  EXPECT_EQ(pair->Ideal().size(), 1u);
}

TEST(SupervisorTest, EpochFencingThroughTheService) {
  SupervisedService svc = MakeService();
  ASSERT_TRUE(svc.AttachSource("src", {"INSTALL"}).ok());
  ASSERT_TRUE(svc.Publish(Ingress{"src", 0, 0}, "INSTALL",
                          MakeEvent(1, 1, 5, Payload(1)))
                  .ok());
  SourceSession::ResumePoint resume = svc.Reconnect("src").ValueOrDie();
  EXPECT_EQ(resume.epoch, 1u);
  EXPECT_EQ(resume.next_seq, 1u);
  // The zombie's stale-epoch call is fenced off.
  EXPECT_EQ(svc.Publish(Ingress{"src", 0, 1}, "INSTALL",
                        MakeEvent(2, 2, 6, Payload(1)))
                .code(),
            StatusCode::kExecutionError);
  EXPECT_TRUE(svc.Publish(Ingress{"src", 1, 1}, "INSTALL",
                          MakeEvent(2, 2, 6, Payload(1)))
                  .ok());
}

TEST(SupervisorTest, BackpressureRejectsWithoutBurningSequence) {
  SupervisorConfig config;
  config.ingress.queue_capacity = 2;
  config.ingress.drain_per_tick = 8;
  SupervisedService svc = MakeService(config);
  ASSERT_TRUE(svc.AttachSource("src", {"INSTALL"}).ok());

  // Sync points are never shed, so a queue of them cannot make room.
  ASSERT_TRUE(svc.PublishSyncPoint(Ingress{"src", 0, 0}, "INSTALL", 10).ok());
  ASSERT_TRUE(svc.PublishSyncPoint(Ingress{"src", 0, 1}, "INSTALL", 20).ok());
  Status full = svc.PublishSyncPoint(Ingress{"src", 0, 2}, "INSTALL", 30);
  EXPECT_EQ(full.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(full.message().find("retry after"), std::string::npos)
      << full.message();
  EXPECT_EQ(svc.shed().backpressure_rejections, 1u);
  EXPECT_EQ(svc.queue_depth(), 2u) << "the queue budget is never exceeded";

  // The rejected call burned no sequence number: after a drain the
  // provider retries it verbatim and it is accepted, in order.
  ASSERT_TRUE(svc.Tick().ok());
  EXPECT_TRUE(
      svc.PublishSyncPoint(Ingress{"src", 0, 2}, "INSTALL", 30).ok());
  EXPECT_EQ(svc.Session("src").ValueOrDie()->stats().gaps, 0u);
}

TEST(SupervisorTest, RetractionValidation) {
  SupervisedService svc = MakeService();
  ASSERT_TRUE(svc.AttachSource("src", {"INSTALL"}).ok());
  Event e = MakeEvent(1, 10, 50, Payload(7));
  ASSERT_TRUE(svc.Publish(Ingress{"src", 0, 0}, "INSTALL", e).ok());

  // Retractions only shrink lifetimes, and never below the start.
  EXPECT_EQ(
      svc.PublishRetraction(Ingress{"src", 0, 1}, "INSTALL", e, 60).code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(
      svc.PublishRetraction(Ingress{"src", 0, 1}, "INSTALL", e, 5).code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(svc.queue_depth(), 1u);

  // The rejected calls burned no sequence number: a valid retraction
  // reuses it, and shrinking to the start is legal.
  ASSERT_TRUE(
      svc.PublishRetraction(Ingress{"src", 0, 1}, "INSTALL", e, 10).ok());
  ASSERT_TRUE(svc.Tick().ok());
  EXPECT_EQ(svc.Session("src").ValueOrDie()->stats().gaps, 0u);
  EXPECT_EQ(svc.shed().dropped_invalid, 0u);
  ASSERT_TRUE(svc.Finish().ok());
}

TEST(SupervisorTest, TypeNamesMustRoundTripTheJournal) {
  // Attach records journal owned types space-joined, so a name that is
  // empty or holds a space could not be split back apart on Recover.
  SupervisedService svc = MakeService();
  EXPECT_EQ(svc.RegisterEventType("", MachineSchema()).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(svc.RegisterEventType("MY TYPE", MachineSchema()).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(svc.AttachSource("src", {"MY TYPE"}).code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(svc.RegisterEventType("MY_TYPE", MachineSchema()).ok());
  ASSERT_TRUE(svc.AttachSource("src", {"MY_TYPE", "INSTALL"}).ok());
  ASSERT_TRUE(svc.Publish(Ingress{"src", 0, 0}, "MY_TYPE",
                          MakeEvent(1, 1, 5, Payload(1)))
                  .ok());
  ASSERT_TRUE(svc.Tick().ok());
  Result<std::unique_ptr<SupervisedService>> recovered =
      SupervisedService::Recover(svc.journal().bytes());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered.ValueOrDie()->Session("src").ValueOrDie()->types(),
            svc.Session("src").ValueOrDie()->types());
}

TEST(SupervisorTest, SheddingPrefersRetractionsAndSparesSyncPoints) {
  SupervisorConfig config;
  config.ingress.queue_capacity = 3;
  config.ingress.drain_per_tick = 8;
  SupervisedService svc = MakeService(config);
  ASSERT_TRUE(svc.AttachSource("src", {"INSTALL"}).ok());

  Event e = MakeEvent(1, 1, 100, Payload(1));
  ASSERT_TRUE(svc.Publish(Ingress{"src", 0, 0}, "INSTALL", e).ok());
  ASSERT_TRUE(svc.Tick().ok());  // e is routed; its retraction is valid

  ASSERT_TRUE(svc.PublishSyncPoint(Ingress{"src", 0, 1}, "INSTALL", 1).ok());
  ASSERT_TRUE(
      svc.PublishRetraction(Ingress{"src", 0, 2}, "INSTALL", e, 50).ok());
  ASSERT_TRUE(svc.Publish(Ingress{"src", 0, 3}, "INSTALL",
                          MakeEvent(2, 60, 90, Payload(2)))
                  .ok());
  ASSERT_EQ(svc.queue_depth(), 3u);

  // Overflow: the retraction (weak-repairable) is shed, not the insert
  // and never the sync point.
  ASSERT_TRUE(svc.Publish(Ingress{"src", 0, 4}, "INSTALL",
                          MakeEvent(3, 70, 95, Payload(3)))
                  .ok());
  EXPECT_EQ(svc.queue_depth(), 3u);
  EXPECT_EQ(svc.shed().shed_retractions, 1u);
  EXPECT_EQ(svc.shed().shed_inserts, 0u);

  // A second overflow with no retraction left sheds an insert.
  ASSERT_TRUE(svc.Publish(Ingress{"src", 0, 5}, "INSTALL",
                          MakeEvent(4, 80, 99, Payload(4)))
                  .ok());
  EXPECT_EQ(svc.shed().shed_inserts, 1u);

  ASSERT_TRUE(svc.Finish().ok());
  // Every shed is visible in the supervisor-merged stats.
  EXPECT_EQ(svc.shed().TotalShed(), 2u);
}

TEST(SupervisorTest, SilentSourceGetsSynthesizedSyncPoints) {
  SupervisorConfig config;
  config.session.heartbeat_timeout = 3;
  config.session.on_silence = LivenessPolicy::kSynthesize;
  SupervisedService svc = MakeService(config);
  ASSERT_TRUE(
      svc.RegisterQuery(AlertQuery(), ConsistencySpec::Strong()).ok());
  ASSERT_TRUE(svc.AttachSource("machines", {"INSTALL", "SHUTDOWN"}).ok());
  ASSERT_TRUE(svc.AttachSource("restarts", {"RESTART"}).ok());

  ASSERT_TRUE(svc.Publish(Ingress{"machines", 0, 0}, "INSTALL",
                          MakeEvent(1, 2, kInfinity, Payload(7)))
                  .ok());
  ASSERT_TRUE(svc.Publish(Ingress{"machines", 0, 1}, "SHUTDOWN",
                          MakeEvent(2, 20, kInfinity, Payload(7)))
                  .ok());
  ASSERT_TRUE(
      svc.PublishSyncPoint(Ingress{"machines", 0, 2}, "INSTALL", 60).ok());
  ASSERT_TRUE(
      svc.PublishSyncPoint(Ingress{"machines", 0, 3}, "SHUTDOWN", 60).ok());

  // "restarts" never publishes; within heartbeat_timeout + 1 ticks it is
  // declared silent and a sync point at the live frontier is synthesized
  // for RESTART, unblocking the strong query.
  uint64_t keepalive = 4;
  for (int t = 0; t < config.session.heartbeat_timeout + 2; ++t) {
    ASSERT_TRUE(svc.Tick().ok());
    // Keep the live source alive so only "restarts" misses its deadline.
    ASSERT_TRUE(svc.PublishSyncPoint(Ingress{"machines", 0, keepalive++},
                                     "INSTALL", 61 + t)
                    .ok());
  }
  const SourceSession* silent = svc.Session("restarts").ValueOrDie();
  EXPECT_EQ(silent->state(), SourceState::kSilent);
  EXPECT_GE(silent->stats().synthesized_syncs, 1u);
  EXPECT_GE(svc.shed().synthesized_syncs, 1u);

  // A late message below the synthesized frontier is shed and counted.
  ASSERT_TRUE(svc.Publish(Ingress{"restarts", 0, 0}, "RESTART",
                          MakeEvent(9, 10, 30, Payload(7)))
                  .ok());
  EXPECT_GE(svc.Session("restarts").ValueOrDie()->stats().late_after_synthesis,
            1u);
  EXPECT_GE(svc.shed().shed_late, 1u);

  ASSERT_TRUE(svc.Finish().ok());
  QueryStats stats = svc.StatsFor("Alert").ValueOrDie();
  EXPECT_GE(stats.synthesized_ctis, 1u);
  // The strong query converged despite the dead provider: no restart
  // arrived, so the alert fires.
  EXPECT_EQ(svc.GetQuery("Alert").ValueOrDie()->Ideal().size(), 1u);
}

TEST(SupervisorTest, HoldPolicyNeverSynthesizes) {
  SupervisorConfig config;
  config.session.heartbeat_timeout = 2;
  config.session.on_silence = LivenessPolicy::kHold;
  SupervisedService svc = MakeService(config);
  ASSERT_TRUE(svc.AttachSource("restarts", {"RESTART"}).ok());
  for (int t = 0; t < 8; ++t) ASSERT_TRUE(svc.Tick().ok());
  EXPECT_EQ(svc.Session("restarts").ValueOrDie()->state(),
            SourceState::kSilent);
  EXPECT_EQ(svc.shed().synthesized_syncs, 0u);
}

TEST(SupervisorTest, QuarantineSealsUntilReconnect) {
  SupervisorConfig config;
  config.session.heartbeat_timeout = 2;
  config.session.on_silence = LivenessPolicy::kQuarantine;
  SupervisedService svc = MakeService(config);
  ASSERT_TRUE(svc.AttachSource("src", {"INSTALL"}).ok());
  for (int t = 0; t < 5; ++t) ASSERT_TRUE(svc.Tick().ok());
  ASSERT_EQ(svc.Session("src").ValueOrDie()->state(),
            SourceState::kQuarantined);
  EXPECT_EQ(svc.Publish(Ingress{"src", 0, 0}, "INSTALL",
                        MakeEvent(1, 1, 5, Payload(1)))
                .code(),
            StatusCode::kExecutionError);
  SourceSession::ResumePoint resume = svc.Reconnect("src").ValueOrDie();
  EXPECT_TRUE(svc.Publish(Ingress{"src", resume.epoch, resume.next_seq},
                          "INSTALL", MakeEvent(1, 1, 5, Payload(1)))
                  .ok());
}

TEST(SupervisorTest, GovernorDegradesUnderPressureAndRestores) {
  SupervisorConfig config;
  config.ingress.queue_capacity = 4096;
  config.ingress.drain_per_tick = 64;
  config.governor.degrade_after = 2;
  // High restore hysteresis: the degraded phase must be observable
  // mid-run (the switch itself relieves the pressure, so a hair-trigger
  // restore would oscillate).
  config.governor.restore_after = 8;
  config.session.heartbeat_timeout = 0;  // isolate the governor
  SupervisedService svc = MakeService(config);

  QueryBudget budget;
  budget.max_buffer = 8;  // strong blocks -> alignment buffer grows
  ASSERT_TRUE(
      svc.RegisterQuery(PairQuery(), ConsistencySpec::Strong(), budget).ok());
  ASSERT_TRUE(svc.AttachSource("src", {"INSTALL", "SHUTDOWN"}).ok());

  // Pressure: a pile of inserts with no sync point. Under strong
  // consistency they all sit in the alignment buffers.
  uint64_t seq = 0;
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(svc.Publish(Ingress{"src", 0, seq++}, "INSTALL",
                            MakeEvent(EventId(1 + 2 * i), 1 + i, kInfinity,
                                      Payload(i % 5)))
                    .ok());
    ASSERT_TRUE(svc.Publish(Ingress{"src", 0, seq++}, "SHUTDOWN",
                            MakeEvent(EventId(2 + 2 * i), 50 + i, kInfinity,
                                      Payload(i % 5)))
                    .ok());
  }
  for (int t = 0; t < 6; ++t) ASSERT_TRUE(svc.Tick().ok());

  GovernorStatus mid = svc.GovernorOf("Pair").ValueOrDie();
  EXPECT_GE(mid.degrades, 1u) << "sustained violation must degrade";
  EXPECT_GT(mid.rung, 0u);
  EXPECT_EQ(mid.phase, GovernorPhase::kDegraded);
  EXPECT_FALSE(mid.current == mid.requested);

  // Calm: sync points release the buffers, and after restore_after calm
  // checks the governor walks back up to the requested level.
  ASSERT_TRUE(svc.PublishSyncPoint(Ingress{"src", 0, seq++}, "INSTALL",
                                   1000)
                  .ok());
  ASSERT_TRUE(svc.PublishSyncPoint(Ingress{"src", 0, seq++}, "SHUTDOWN",
                                   1000)
                  .ok());
  for (int t = 0; t < 16; ++t) ASSERT_TRUE(svc.Tick().ok());

  GovernorStatus after = svc.GovernorOf("Pair").ValueOrDie();
  EXPECT_GE(after.restores, 1u) << "calm must restore";
  EXPECT_EQ(after.rung, 0u);
  EXPECT_TRUE(after.current == after.requested);
  EXPECT_EQ(after.phase, GovernorPhase::kSteady);

  ASSERT_TRUE(svc.Finish().ok());
}

TEST(SupervisorTest, WeakRequestIsNeverDegraded) {
  SupervisorConfig config;
  config.governor.degrade_after = 1;
  SupervisedService svc = MakeService(config);
  QueryBudget impossible;
  impossible.max_buffer = 0;
  impossible.max_state_footprint = 0;
  ASSERT_TRUE(svc.RegisterQuery(PairQuery(), ConsistencySpec::Weak(0),
                                impossible)
                  .ok());
  ASSERT_TRUE(svc.AttachSource("src", {"INSTALL", "SHUTDOWN"}).ok());
  ASSERT_TRUE(svc.Publish(Ingress{"src", 0, 0}, "INSTALL",
                          MakeEvent(1, 1, kInfinity, Payload(1)))
                  .ok());
  for (int t = 0; t < 4; ++t) ASSERT_TRUE(svc.Tick().ok());
  GovernorStatus status = svc.GovernorOf("Pair").ValueOrDie();
  EXPECT_EQ(status.degrades, 0u) << "a one-rung ladder has nowhere to go";
  EXPECT_TRUE(status.current == status.requested);
}

TEST(SupervisorTest, RecoverRebuildsSessionsAndHistory) {
  std::string journal_bytes;
  {
    SupervisedService svc = MakeService();
    ASSERT_TRUE(svc.RegisterQuery(PairQuery()).ok());
    ASSERT_TRUE(svc.AttachSource("src", {"INSTALL", "SHUTDOWN"}).ok());
    ASSERT_TRUE(svc.Publish(Ingress{"src", 0, 0}, "INSTALL",
                            MakeEvent(1, 2, kInfinity, Payload(7)))
                    .ok());
    ASSERT_TRUE(svc.Publish(Ingress{"src", 0, 1}, "SHUTDOWN",
                            MakeEvent(2, 20, kInfinity, Payload(7)))
                    .ok());
    ASSERT_TRUE(svc.Tick().ok());
    ASSERT_TRUE(svc.Reconnect("src").ok());
    // Crash: only the journal survives. The queued-but-undrained call
    // below is lost and must come back via provider replay.
    ASSERT_TRUE(svc.Publish(Ingress{"src", 1, 2}, "INSTALL",
                            MakeEvent(3, 30, kInfinity, Payload(8)))
                    .ok());
    journal_bytes = svc.journal().bytes();
  }
  std::unique_ptr<SupervisedService> recovered =
      SupervisedService::Recover(journal_bytes).ValueOrDie();
  const SourceSession* session =
      recovered->Session("src").ValueOrDie();
  EXPECT_EQ(session->epoch(), 1u);
  EXPECT_EQ(session->next_seq(), 2u) << "the undrained call was lost";

  // The provider replays from the resume point under its epoch; the
  // stream continues seamlessly.
  ASSERT_TRUE(recovered->Publish(Ingress{"src", 1, 2}, "INSTALL",
                                 MakeEvent(3, 30, kInfinity, Payload(8)))
                  .ok());
  ASSERT_TRUE(recovered
                  ->PublishSyncPoint(Ingress{"src", 1, 3}, "INSTALL", 100)
                  .ok());
  ASSERT_TRUE(recovered
                  ->PublishSyncPoint(Ingress{"src", 1, 4}, "SHUTDOWN", 100)
                  .ok());
  ASSERT_TRUE(recovered->Finish().ok());
  EXPECT_EQ(recovered->GetQuery("Pair").ValueOrDie()->Ideal().size(), 1u);
}

TEST(SupervisorTest, RegistrationHonorsTheQuerysConsistencyClause) {
  // Registered without an override, the query runs at its own
  // CONSISTENCY clause: strong holds the detection back until a sync
  // point, live and in a Recover of the journal (which has no spec).
  SupervisedService svc = MakeService();
  ASSERT_TRUE(svc.RegisterQuery(PairQuery() + " CONSISTENCY STRONG").ok());
  ASSERT_TRUE(svc.AttachSource("src", {"INSTALL", "SHUTDOWN"}).ok());
  ASSERT_TRUE(svc.Publish(Ingress{"src", 0, 0}, "INSTALL",
                          MakeEvent(1, 2, kInfinity, Payload(7)))
                  .ok());
  ASSERT_TRUE(svc.Publish(Ingress{"src", 0, 1}, "SHUTDOWN",
                          MakeEvent(2, 20, kInfinity, Payload(7)))
                  .ok());
  ASSERT_TRUE(svc.Tick().ok());
  std::unique_ptr<SupervisedService> recovered =
      SupervisedService::Recover(svc.journal().bytes()).ValueOrDie();
  for (const SupervisedService* s : {&svc, recovered.get()}) {
    EXPECT_TRUE(s->GovernorOf("Pair").ValueOrDie().requested ==
                ConsistencySpec::Strong());
    EXPECT_TRUE(s->GetQuery("Pair").ValueOrDie()->OutputMessages().empty());
  }
}

TEST(SupervisorTest, RecoveringARecoveredSupervisorKeepsReconnectEpochs) {
  SupervisedService svc = MakeService();
  ASSERT_TRUE(svc.RegisterQuery(PairQuery()).ok());
  ASSERT_TRUE(svc.AttachSource("src", {"INSTALL", "SHUTDOWN"}).ok());
  ASSERT_TRUE(svc.Publish(Ingress{"src", 0, 0}, "INSTALL",
                          MakeEvent(1, 2, kInfinity, Payload(7)))
                  .ok());
  ASSERT_TRUE(svc.Tick().ok());
  ASSERT_TRUE(svc.Reconnect("src").ok());
  const std::string& journal_bytes = svc.journal().bytes();

  std::unique_ptr<SupervisedService> once =
      SupervisedService::Recover(journal_bytes).ValueOrDie();
  EXPECT_TRUE(once->journal().bytes() == journal_bytes)
      << "the recovered journal differs from the one it was rebuilt from";
  std::unique_ptr<SupervisedService> twice =
      SupervisedService::Recover(once->journal().bytes()).ValueOrDie();
  EXPECT_EQ(svc.Session("src").ValueOrDie()->epoch(), 1u);
  EXPECT_EQ(once->Session("src").ValueOrDie()->epoch(), 1u);
  EXPECT_EQ(twice->Session("src").ValueOrDie()->epoch(), 1u);
}

TEST(SupervisorTest, RecoverReplaysSynthesizedSyncPoints) {
  SupervisorConfig config;
  config.session.heartbeat_timeout = 2;
  std::string journal_bytes;
  {
    SupervisedService svc = MakeService(config);
    ASSERT_TRUE(svc.AttachSource("a", {"INSTALL"}).ok());
    ASSERT_TRUE(svc.AttachSource("b", {"SHUTDOWN"}).ok());
    uint64_t seq = 0;
    for (int t = 0; t < 6; ++t) {
      ASSERT_TRUE(
          svc.PublishSyncPoint(Ingress{"a", 0, seq++}, "INSTALL", 10 + t)
              .ok());
      ASSERT_TRUE(svc.Tick().ok());
    }
    ASSERT_GE(svc.shed().synthesized_syncs, 1u)
        << "source b should have been silenced and synthesized for";
    journal_bytes = svc.journal().bytes();
  }
  std::unique_ptr<SupervisedService> recovered =
      SupervisedService::Recover(journal_bytes, config).ValueOrDie();
  // The synthesized guarantee is durable: it replays from the journal
  // without re-running liveness.
  ASSERT_TRUE(recovered->Finish().ok());
}

TEST(SupervisorTest, RecoverHonorsALateRegistration) {
  // A query registered after traffic never sees the calls routed before
  // it, so replaying the journal must not hand them to it either.
  std::string journal_bytes;
  std::vector<Message> live;
  {
    SupervisedService svc = MakeService();
    ASSERT_TRUE(svc.AttachSource("src", {"INSTALL", "SHUTDOWN"}).ok());
    ASSERT_TRUE(svc.Publish(Ingress{"src", 0, 0}, "INSTALL",
                            MakeEvent(1, 2, kInfinity, Payload(7)))
                    .ok());
    ASSERT_TRUE(svc.Publish(Ingress{"src", 0, 1}, "SHUTDOWN",
                            MakeEvent(2, 20, kInfinity, Payload(7)))
                    .ok());
    ASSERT_TRUE(svc.Tick().ok());
    ASSERT_TRUE(svc.RegisterQuery(PairQuery()).ok());
    ASSERT_TRUE(svc.Publish(Ingress{"src", 0, 2}, "INSTALL",
                            MakeEvent(3, 30, kInfinity, Payload(8)))
                    .ok());
    ASSERT_TRUE(svc.Publish(Ingress{"src", 0, 3}, "SHUTDOWN",
                            MakeEvent(4, 40, kInfinity, Payload(8)))
                    .ok());
    ASSERT_TRUE(svc.PublishSyncPoint(Ingress{"src", 0, 4}, "INSTALL", 100)
                    .ok());
    ASSERT_TRUE(svc.PublishSyncPoint(Ingress{"src", 0, 5}, "SHUTDOWN", 100)
                    .ok());
    ASSERT_TRUE(svc.Tick().ok());
    ASSERT_TRUE(svc.Finish().ok());
    const SwitchableQuery* pair = svc.GetQuery("Pair").ValueOrDie();
    ASSERT_EQ(pair->Ideal().size(), 1u);
    live = pair->OutputMessages();
    journal_bytes = svc.journal().bytes();
  }
  std::unique_ptr<SupervisedService> recovered =
      SupervisedService::Recover(journal_bytes).ValueOrDie();
  const SwitchableQuery* pair = recovered->GetQuery("Pair").ValueOrDie();
  EXPECT_EQ(pair->Ideal().size(), 1u);
  EXPECT_TRUE(testing::PhysicallyIdentical(live, pair->OutputMessages()));
}

}  // namespace
}  // namespace cedr
