// Query fault domains: the error barrier, quarantine, the watchdog, and
// journal-replay revival. A faulting query dies alone - with a terminal
// status on its sink - and comes back bit-identical.
#include <gtest/gtest.h>

#include <stdexcept>

#include "engine/executor.h"
#include "engine/supervisor.h"
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

TEST(QuarantineTest, SinkFirstCloseWinsAndRejectsAfterClose) {
  std::unique_ptr<CompiledQuery> q =
      CompiledQuery::Compile(PairQuery(), workload::MachineCatalog())
          .ValueOrDie();
  EXPECT_TRUE(q->sink().terminal().ok());
  EXPECT_FALSE(q->sink().closed());

  q->CloseWithError(Status::OK());  // closing with OK is a no-op
  EXPECT_FALSE(q->sink().closed());

  q->CloseWithError(Status::ExecutionError("first"));
  q->CloseWithError(Status::Corruption("second"));
  EXPECT_TRUE(q->sink().closed());
  EXPECT_EQ(q->sink().terminal().code(), StatusCode::kExecutionError);
  EXPECT_NE(q->sink().terminal().message().find("first"),
            std::string::npos);

  // A dead stream accepts nothing further - eventually. Only output
  // that reaches the sink is rejected, and the rejection latches in the
  // emitting operator (surfacing on its next push or drain), so feed a
  // full matching pair and finish: the drain must surface the terminal.
  ASSERT_TRUE(
      q->Push("INSTALL", InsertOf(MakeEvent(1, 1, kInfinity, Payload(1)), 1))
          .ok());
  (void)q->Push("SHUTDOWN",
                InsertOf(MakeEvent(2, 2, kInfinity, Payload(1)), 2));
  Status fin = q->Finish();
  ASSERT_FALSE(fin.ok());
  EXPECT_EQ(fin.code(), StatusCode::kExecutionError);
  EXPECT_NE(fin.message().find("first"), std::string::npos);
}

TEST(QuarantineTest, FaultHookFailsThePush) {
  std::unique_ptr<CompiledQuery> q =
      CompiledQuery::Compile(PairQuery(), workload::MachineCatalog())
          .ValueOrDie();
  int hook_calls = 0;
  q->set_fault_hook([&](const std::string& type, const Message&) {
    ++hook_calls;
    return type == "INSTALL" ? Status::ExecutionError("poisoned")
                             : Status::OK();
  });
  EXPECT_FALSE(q->Push("INSTALL", InsertOf(MakeEvent(1, 1, kInfinity,
                                                     Payload(1)),
                                           1))
                   .ok());
  EXPECT_TRUE(q->Push("SHUTDOWN", InsertOf(MakeEvent(2, 2, kInfinity,
                                                     Payload(1)),
                                           2))
                  .ok());
  EXPECT_EQ(hook_calls, 2);
  q->set_fault_hook(nullptr);  // clearing re-opens the path
  EXPECT_TRUE(q->Push("INSTALL", InsertOf(MakeEvent(3, 3, kInfinity,
                                                    Payload(2)),
                                          3))
                  .ok());
}

TEST(QuarantineTest, ParallelForGuardedCapturesThrowsPerIndex) {
  WorkerPool pool(4);
  std::vector<Status> statuses =
      pool.ParallelForGuarded(16, [](size_t i) -> Status {
        if (i % 3 == 0) throw std::runtime_error("boom");
        if (i % 3 == 1) return Status::InvalidArgument("bad");
        return Status::OK();
      });
  ASSERT_EQ(statuses.size(), 16u);
  for (size_t i = 0; i < statuses.size(); ++i) {
    if (i % 3 == 0) {
      EXPECT_EQ(statuses[i].code(), StatusCode::kExecutionError) << i;
      EXPECT_NE(statuses[i].message().find("boom"), std::string::npos);
    } else if (i % 3 == 1) {
      EXPECT_EQ(statuses[i].code(), StatusCode::kInvalidArgument) << i;
    } else {
      EXPECT_TRUE(statuses[i].ok()) << i;
    }
  }
  // The pool survives a fully-throwing job and stays reusable.
  statuses = pool.ParallelForGuarded(
      8, [](size_t) -> Status { throw 42; });  // non-std exception
  for (const Status& s : statuses) {
    EXPECT_EQ(s.code(), StatusCode::kExecutionError);
  }
  std::atomic<int> done{0};
  pool.ParallelFor(8, [&](size_t) { ++done; });
  EXPECT_EQ(done.load(), 8);
}

TEST(QuarantineTest, ExecutorIsolatesAThrowingQuery) {
  const std::string text = workload::Cidr07ExampleQuery();
  auto make = [&] {
    return CompiledQuery::Compile(text, workload::MachineCatalog())
        .ValueOrDie();
  };
  std::unique_ptr<CompiledQuery> solo = make();
  std::unique_ptr<CompiledQuery> victim = make();
  std::unique_ptr<CompiledQuery> sibling = make();
  victim->set_fault_hook(
      [](const std::string&, const Message&) -> Status {
        throw std::runtime_error("chaos");
      });

  Executor exec(ExecutorConfig{4, 16});
  exec.Register(victim.get());
  exec.Register(sibling.get());

  workload::MachineConfig config;
  config.num_machines = 4;
  config.num_sessions = 30;
  config.seed = 7;
  workload::MachineStreams streams =
      workload::GenerateMachineEvents(config);
  std::vector<TypedMessage> merged = MergeByArrival(
      {{"INSTALL", streams.installs},
       {"SHUTDOWN", streams.shutdowns},
       {"RESTART", streams.restarts}});
  ASSERT_FALSE(merged.empty());

  // The first batch kills the victim; the executor reports the fault
  // once, then keeps serving the survivor.
  const size_t half = merged.size() / 2;
  Status first =
      exec.PushBatch(std::span<const TypedMessage>(merged.data(), half));
  EXPECT_EQ(first.code(), StatusCode::kExecutionError);
  ASSERT_EQ(exec.Quarantined(), std::vector<size_t>{0});
  EXPECT_TRUE(victim->sink().closed());
  EXPECT_EQ(victim->sink().terminal().code(), StatusCode::kExecutionError);

  EXPECT_TRUE(exec.PushBatch(std::span<const TypedMessage>(
                                 merged.data() + half, merged.size() - half))
                  .ok())
      << "later batches serve the survivors";
  EXPECT_TRUE(exec.Finish().ok());

  // The survivor saw every message, exactly as a solo run would.
  for (const TypedMessage& tm : merged) {
    ASSERT_TRUE(solo->Push(tm.first, tm.second).ok());
  }
  ASSERT_TRUE(solo->Finish().ok());
  EXPECT_TRUE(testing::PhysicallyIdentical(solo->sink().messages(),
                                           sibling->sink().messages()));
}

TEST(QuarantineTest, PoisonedQueryIsQuarantinedAndSiblingsUnaffected) {
  SupervisedService svc = MakeService();
  ASSERT_TRUE(svc.RegisterQuery(PairQuery()).ok());
  ASSERT_TRUE(svc.RegisterQuery(AlertQuery()).ok());
  ASSERT_TRUE(
      svc.AttachSource("src", {"INSTALL", "SHUTDOWN", "RESTART"}).ok());
  ASSERT_TRUE(svc.SetQueryFaultHook(
                     "Pair",
                     [](const std::string&, const Message&) {
                       return Status::ExecutionError("poison pill");
                     })
                  .ok());
  EXPECT_EQ(svc.SetQueryFaultHook("nope", nullptr).code(),
            StatusCode::kNotFound);

  uint64_t seq = 0;
  ASSERT_TRUE(svc.Publish(Ingress{"src", 0, seq++}, "INSTALL",
                          MakeEvent(1, 2, kInfinity, Payload(7)))
                  .ok());
  ASSERT_TRUE(svc.Publish(Ingress{"src", 0, seq++}, "SHUTDOWN",
                          MakeEvent(2, 20, kInfinity, Payload(7)))
                  .ok());
  ASSERT_TRUE(svc.Tick().ok());

  // The poisoned query is sealed with a post-mortem...
  ASSERT_EQ(svc.QuarantinedQueries(), std::vector<std::string>{"Pair"});
  QuarantineReport report = svc.QuarantineOf("Pair").ValueOrDie();
  EXPECT_EQ(report.query, "Pair");
  EXPECT_EQ(report.origin, "push");
  EXPECT_EQ(report.fault.code(), StatusCode::kExecutionError);
  EXPECT_EQ(svc.GovernorOf("Pair").ValueOrDie().phase,
            GovernorPhase::kQuarantined);
  EXPECT_TRUE(svc.GetQuery("Pair").ValueOrDie()->active().sink().closed());
  EXPECT_EQ(svc.QuarantineOf("Alert").status().code(),
            StatusCode::kNotFound);

  // ...while the sibling and the process sail on.
  ASSERT_TRUE(svc.PublishSyncPoint(Ingress{"src", 0, seq++}, "INSTALL",
                                   100)
                  .ok());
  ASSERT_TRUE(svc.PublishSyncPoint(Ingress{"src", 0, seq++}, "SHUTDOWN",
                                   100)
                  .ok());
  ASSERT_TRUE(svc.PublishSyncPoint(Ingress{"src", 0, seq++}, "RESTART",
                                   100)
                  .ok());
  ASSERT_TRUE(svc.Finish().ok());
  EXPECT_EQ(svc.GetQuery("Alert").ValueOrDie()->Ideal().size(), 1u);
  EXPECT_FALSE(
      svc.GetQuery("Alert").ValueOrDie()->active().sink().closed());
}

TEST(QuarantineTest, ThrowingQueryIsQuarantinedNotFatal) {
  SupervisedService svc = MakeService();
  ASSERT_TRUE(svc.RegisterQuery(PairQuery()).ok());
  ASSERT_TRUE(svc.AttachSource("src", {"INSTALL", "SHUTDOWN"}).ok());
  ASSERT_TRUE(svc.SetQueryFaultHook(
                     "Pair",
                     [](const std::string&, const Message&) -> Status {
                       throw std::runtime_error("escaped");
                     })
                  .ok());
  ASSERT_TRUE(svc.Publish(Ingress{"src", 0, 0}, "INSTALL",
                          MakeEvent(1, 2, kInfinity, Payload(1)))
                  .ok());
  ASSERT_TRUE(svc.Tick().ok()) << "the barrier absorbs the throw";
  QuarantineReport report = svc.QuarantineOf("Pair").ValueOrDie();
  EXPECT_EQ(report.fault.code(), StatusCode::kExecutionError);
  EXPECT_NE(report.fault.message().find("escaped"), std::string::npos);
}

TEST(QuarantineTest, PostMortemHoldsPlanStateWithoutTheOutputLog) {
  // The post-mortem does not grow with the output: it is the plan state
  // at the fault, which restores into a freshly compiled query whose
  // sink counters account for every message the faulted query emitted.
  SupervisedService svc = MakeService();
  ASSERT_TRUE(svc.RegisterQuery(PairQuery()).ok());
  ASSERT_TRUE(svc.AttachSource("src", {"INSTALL", "SHUTDOWN"}).ok());
  uint64_t seq = 0;
  for (int64_t m = 1; m <= 3; ++m) {
    ASSERT_TRUE(svc.Publish(Ingress{"src", 0, seq++}, "INSTALL",
                            MakeEvent(2 * m, 10 * m, kInfinity, Payload(m)))
                    .ok());
    ASSERT_TRUE(
        svc.Publish(Ingress{"src", 0, seq++}, "SHUTDOWN",
                    MakeEvent(2 * m + 1, 10 * m + 5, kInfinity, Payload(m)))
            .ok());
  }
  for (const char* type : {"INSTALL", "SHUTDOWN"}) {
    ASSERT_TRUE(
        svc.PublishSyncPoint(Ingress{"src", 0, seq++}, type, 50).ok());
  }
  ASSERT_TRUE(svc.Tick().ok());
  ASSERT_TRUE(svc.SetQueryFaultHook(
                     "Pair",
                     [](const std::string&, const Message&) {
                       return Status::ExecutionError("poison pill");
                     })
                  .ok());
  ASSERT_TRUE(svc.Publish(Ingress{"src", 0, seq++}, "INSTALL",
                          MakeEvent(100, 60, kInfinity, Payload(9)))
                  .ok());
  ASSERT_TRUE(svc.Tick().ok());

  QuarantineReport report = svc.QuarantineOf("Pair").ValueOrDie();
  ASSERT_FALSE(report.post_mortem.empty());
  const size_t output =
      svc.GetQuery("Pair").ValueOrDie()->active().sink().messages().size();
  ASSERT_GT(output, 0u);
  std::unique_ptr<CompiledQuery> fresh =
      CompiledQuery::Compile(PairQuery(), workload::MachineCatalog())
          .ValueOrDie();
  io::BinaryReader r(report.post_mortem);
  ASSERT_TRUE(fresh->RestorePlan(&r).ok());
  EXPECT_TRUE(r.ExpectEnd().ok());
  EXPECT_EQ(fresh->sink().emitted(), output);
}

TEST(QuarantineTest, ReviveRebuildsBitIdenticalState) {
  // Reference: the same feed with no fault at all.
  SupervisedService clean = MakeService();
  SupervisedService faulty = MakeService();
  for (SupervisedService* svc : {&clean, &faulty}) {
    ASSERT_TRUE(svc->RegisterQuery(PairQuery()).ok());
    ASSERT_TRUE(
        svc->AttachSource("src", {"INSTALL", "SHUTDOWN", "RESTART"}).ok());
  }

  // Every call below goes to both services with the same sequence
  // number, so their journals stay identical.
  uint64_t seq = 0;
  auto offer = [&](auto&& call) {
    for (SupervisedService* svc : {&clean, &faulty}) {
      ASSERT_TRUE(call(svc, Ingress{"src", 0, seq}).ok());
    }
    ++seq;
  };
  auto publish = [&](const char* type, Event e) {
    offer([&](SupervisedService* svc, const Ingress& in) {
      return svc->Publish(in, type, e);
    });
  };
  auto publish_pair = [&](int64_t machine, EventId a, EventId b, Time t) {
    publish("INSTALL", MakeEvent(a, t, kInfinity, Payload(machine)));
    publish("SHUTDOWN", MakeEvent(b, t + 5, kInfinity, Payload(machine)));
  };
  auto sync = [&](const char* type, Time t) {
    offer([&](SupervisedService* svc, const Ingress& in) {
      return svc->PublishSyncPoint(in, type, t);
    });
  };

  // Before the fault the journal holds more than Pair's inputs: a
  // provider retraction, a provider sync point, and RESTART traffic,
  // which Pair does not read. Each consumed a cs stamp that revive must
  // reproduce.
  publish_pair(1, 1, 2, 10);
  publish("RESTART", MakeEvent(5, 12, kInfinity, Payload(1)));
  offer([&](SupervisedService* svc, const Ingress& in) {
    return svc->PublishRetraction(
        in, "SHUTDOWN", MakeEvent(2, 15, kInfinity, Payload(1)), 200);
  });
  sync("INSTALL", 20);
  ASSERT_TRUE(clean.Tick().ok());
  ASSERT_TRUE(faulty.Tick().ok());

  ASSERT_TRUE(faulty
                  .SetQueryFaultHook(
                      "Pair",
                      [](const std::string&, const Message&) {
                        return Status::ExecutionError("transient");
                      })
                  .ok());
  publish_pair(2, 3, 4, 30);
  ASSERT_TRUE(clean.Tick().ok());
  ASSERT_TRUE(faulty.Tick().ok());
  ASSERT_EQ(faulty.QuarantinedQueries().size(), 1u);

  // Revive: journal replay rebuilds the state the fault destroyed.
  EXPECT_EQ(clean.ReviveQuery("Pair").code(), StatusCode::kInvalidArgument)
      << "only quarantined queries can be revived";
  ASSERT_TRUE(faulty.ReviveQuery("Pair").ok());
  EXPECT_TRUE(faulty.QuarantinedQueries().empty());
  EXPECT_EQ(faulty.GovernorOf("Pair").ValueOrDie().phase,
            GovernorPhase::kSteady);

  // Both services now see identical new traffic...
  publish_pair(3, 6, 7, 50);
  sync("INSTALL", 100);
  sync("SHUTDOWN", 100);
  for (SupervisedService* svc : {&clean, &faulty}) {
    ASSERT_TRUE(svc->Finish().ok());
  }
  // ...and the revived query's output is bit-identical to never faulting.
  EXPECT_TRUE(testing::PhysicallyIdentical(
      clean.GetQuery("Pair").ValueOrDie()->OutputMessages(),
      faulty.GetQuery("Pair").ValueOrDie()->OutputMessages()));
  EXPECT_EQ(faulty.GetQuery("Pair").ValueOrDie()->Ideal().size(), 3u);
}

TEST(QuarantineTest, ReviveHonorsALateRegistration) {
  // Pair is registered after the first pair of machine events was
  // routed: neither its never-faulted twin nor its revived self may see
  // that pair.
  SupervisedService clean = MakeService();
  SupervisedService faulty = MakeService();
  uint64_t seq = 0;
  auto offer = [&](auto&& call) {
    for (SupervisedService* svc : {&clean, &faulty}) {
      ASSERT_TRUE(call(svc, Ingress{"src", 0, seq}).ok());
    }
    ++seq;
  };
  auto publish_pair = [&](int64_t machine, EventId a, Time t) {
    offer([&](SupervisedService* svc, const Ingress& in) {
      return svc->Publish(in, "INSTALL",
                          MakeEvent(a, t, kInfinity, Payload(machine)));
    });
    offer([&](SupervisedService* svc, const Ingress& in) {
      return svc->Publish(in, "SHUTDOWN",
                          MakeEvent(a + 1, t + 5, kInfinity,
                                    Payload(machine)));
    });
  };
  auto tick = [&] {
    ASSERT_TRUE(clean.Tick().ok());
    ASSERT_TRUE(faulty.Tick().ok());
  };
  for (SupervisedService* svc : {&clean, &faulty}) {
    ASSERT_TRUE(svc->AttachSource("src", {"INSTALL", "SHUTDOWN"}).ok());
  }
  publish_pair(1, 1, 10);
  tick();
  for (SupervisedService* svc : {&clean, &faulty}) {
    ASSERT_TRUE(svc->RegisterQuery(PairQuery()).ok());
  }
  publish_pair(2, 3, 30);
  tick();

  ASSERT_TRUE(faulty
                  .SetQueryFaultHook(
                      "Pair",
                      [](const std::string&, const Message&) {
                        return Status::ExecutionError("poison");
                      })
                  .ok());
  publish_pair(3, 5, 50);
  tick();
  ASSERT_EQ(faulty.QuarantinedQueries(), std::vector<std::string>{"Pair"});
  ASSERT_TRUE(faulty.ReviveQuery("Pair").ok());

  publish_pair(4, 7, 70);
  for (const char* type : {"INSTALL", "SHUTDOWN"}) {
    offer([&](SupervisedService* svc, const Ingress& in) {
      return svc->PublishSyncPoint(in, type, 200);
    });
  }
  for (SupervisedService* svc : {&clean, &faulty}) {
    ASSERT_TRUE(svc->Finish().ok());
  }
  const SwitchableQuery* twin = clean.GetQuery("Pair").ValueOrDie();
  const SwitchableQuery* revived = faulty.GetQuery("Pair").ValueOrDie();
  EXPECT_EQ(twin->Ideal().size(), 3u);
  EXPECT_EQ(revived->Ideal().size(), twin->Ideal().size());
  EXPECT_TRUE(testing::PhysicallyIdentical(twin->OutputMessages(),
                                           revived->OutputMessages()));
}

TEST(QuarantineTest, WatchdogDegradesThenQuarantines) {
  SupervisorConfig config;
  config.watchdog.enabled = true;
  config.watchdog.tick_deadline_us = 1000;
  config.watchdog.degrade_after = 2;
  config.watchdog.quarantine_after = 4;
  SupervisedService svc = MakeService(config);
  ASSERT_TRUE(
      svc.RegisterQuery(PairQuery(), ConsistencySpec::Strong()).ok());
  ASSERT_TRUE(svc.AttachSource("src", {"INSTALL", "SHUTDOWN"}).ok());

  // Two over-deadline ticks: forced one rung down the ladder.
  for (int t = 0; t < 2; ++t) {
    ASSERT_TRUE(svc.ChargeWatchdogCost("Pair", 2000).ok());
    ASSERT_TRUE(svc.Tick().ok());
  }
  GovernorStatus degraded = svc.GovernorOf("Pair").ValueOrDie();
  EXPECT_GE(degraded.degrades, 1u);
  EXPECT_GT(degraded.rung, 0u);
  EXPECT_TRUE(svc.QuarantinedQueries().empty());

  // Two more: past the quarantine threshold.
  for (int t = 0; t < 2; ++t) {
    ASSERT_TRUE(svc.ChargeWatchdogCost("Pair", 2000).ok());
    ASSERT_TRUE(svc.Tick().ok());
  }
  ASSERT_EQ(svc.QuarantinedQueries(), std::vector<std::string>{"Pair"});
  QuarantineReport report = svc.QuarantineOf("Pair").ValueOrDie();
  EXPECT_EQ(report.origin, "watchdog");
  EXPECT_EQ(report.fault.code(), StatusCode::kResourceExhausted);
}

TEST(QuarantineTest, WatchdogStreakResetsOnAnInBudgetTick) {
  SupervisorConfig config;
  config.watchdog.enabled = true;
  config.watchdog.tick_deadline_us = 1000;
  config.watchdog.degrade_after = 2;
  SupervisedService svc = MakeService(config);
  ASSERT_TRUE(
      svc.RegisterQuery(PairQuery(), ConsistencySpec::Strong()).ok());
  ASSERT_TRUE(svc.AttachSource("src", {"INSTALL", "SHUTDOWN"}).ok());

  // over, under, over, under: the streak never reaches degrade_after.
  for (int t = 0; t < 4; ++t) {
    if (t % 2 == 0) {
      ASSERT_TRUE(svc.ChargeWatchdogCost("Pair", 2000).ok());
    }
    ASSERT_TRUE(svc.Tick().ok());
  }
  GovernorStatus status = svc.GovernorOf("Pair").ValueOrDie();
  EXPECT_EQ(status.degrades, 0u);
  EXPECT_EQ(status.rung, 0u);
}

TEST(QuarantineTest, RetryAfterHintGrowsWithTheRejectionBacklog) {
  SupervisorConfig config;
  config.ingress.queue_capacity = 4;
  config.ingress.drain_per_tick = 2;
  SupervisedService svc = MakeService(config);
  ASSERT_TRUE(svc.AttachSource("src", {"INSTALL"}).ok());

  // Sync points are never shed, so the full queue rejects outright.
  uint64_t seq = 0;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(svc.PublishSyncPoint(Ingress{"src", 0, seq++}, "INSTALL",
                                     10 + i)
                    .ok());
  }
  int64_t first_hint = svc.SuggestedRetryAfterTicks();
  Status rejected =
      svc.PublishSyncPoint(Ingress{"src", 0, seq}, "INSTALL", 50);
  ASSERT_EQ(rejected.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(rejected.message().find("retry after"), std::string::npos);

  // Each rejection deepens the overload estimate: the hint must grow,
  // not repeat a constant, while the queue sits pinned at capacity.
  for (int i = 0; i < 6; ++i) {
    ASSERT_EQ(
        svc.PublishSyncPoint(Ingress{"src", 0, seq}, "INSTALL", 50).code(),
        StatusCode::kResourceExhausted);
  }
  EXPECT_GT(svc.SuggestedRetryAfterTicks(), first_hint);

  // Drained ticks decay the backlog back toward the depth-derived hint.
  for (int t = 0; t < 8; ++t) ASSERT_TRUE(svc.Tick().ok());
  EXPECT_LE(svc.SuggestedRetryAfterTicks(), first_hint);
}

}  // namespace
}  // namespace cedr
