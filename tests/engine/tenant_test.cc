// Per-tenant admission control: registration/source quotas, queue-share
// and rate admission, independent tenant-level governing, and tenant
// survival across Recover.
#include <gtest/gtest.h>

#include "engine/supervisor.h"
#include "workload/machines.h"

namespace cedr {
namespace {

SchemaPtr MachineSchema() { return workload::MachineEventSchema(); }

Row Payload(int64_t machine) {
  return Row(MachineSchema(), {Value(machine), Value("b")});
}

/// SEQUENCE pair query under a caller-chosen EVENT name (query names are
/// unique per supervisor).
std::string NamedPair(const std::string& name) {
  return "EVENT " + name +
         " WHEN SEQUENCE(INSTALL AS x, SHUTDOWN AS y, 40) "
         "WHERE {x.Machine_Id = y.Machine_Id}";
}

SupervisedService MakeService(SupervisorConfig config = {}) {
  SupervisedService svc(config);
  EXPECT_TRUE(svc.RegisterEventType("INSTALL", MachineSchema()).ok());
  EXPECT_TRUE(svc.RegisterEventType("SHUTDOWN", MachineSchema()).ok());
  EXPECT_TRUE(svc.RegisterEventType("RESTART", MachineSchema()).ok());
  return svc;
}

using Ingress = SupervisedService::Ingress;

TEST(TenantTest, QueryQuotaRejectsRegistration) {
  SupervisorConfig config;
  config.tenants.quotas["acme"].max_queries = 1;
  SupervisedService svc = MakeService(config);

  ASSERT_TRUE(
      svc.RegisterQuery(NamedPair("A"), std::nullopt, std::nullopt, "acme")
          .ok());
  Result<std::string> over =
      svc.RegisterQuery(NamedPair("B"), std::nullopt, std::nullopt, "acme");
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(over.status().message().find("retry after"),
            std::string::npos);
  // Other tenants (and the default tenant) are not affected.
  ASSERT_TRUE(
      svc.RegisterQuery(NamedPair("C"), std::nullopt, std::nullopt, "zen")
          .ok());
  ASSERT_TRUE(svc.RegisterQuery(NamedPair("D")).ok());

  TenantStatus acme = svc.TenantOf("acme").ValueOrDie();
  EXPECT_EQ(acme.queries, 1u);
  EXPECT_EQ(acme.rejected_registration, 1u);
  EXPECT_EQ(svc.TenantOf("zen").ValueOrDie().rejected_registration, 0u);
}

TEST(TenantTest, SourceQuotaRejectsAttach) {
  SupervisorConfig config;
  config.tenants.quotas["acme"].max_sources = 1;
  SupervisedService svc = MakeService(config);

  ASSERT_TRUE(svc.AttachSource("a1", {"INSTALL"}, "acme").ok());
  Status over = svc.AttachSource("a2", {"SHUTDOWN"}, "acme");
  EXPECT_EQ(over.code(), StatusCode::kResourceExhausted);
  ASSERT_TRUE(svc.AttachSource("z1", {"SHUTDOWN"}, "zen").ok());
  EXPECT_EQ(svc.TenantOf("acme").ValueOrDie().sources, 1u);
  EXPECT_EQ(svc.TenantOf("acme").ValueOrDie().rejected_registration, 1u);
}

TEST(TenantTest, QueueShareCapsOneTenantWithoutStarvingOthers) {
  SupervisorConfig config;
  config.ingress.queue_capacity = 64;
  config.tenants.quotas["noisy"].max_queue_share = 2;
  SupervisedService svc = MakeService(config);
  ASSERT_TRUE(svc.AttachSource("loud", {"INSTALL"}, "noisy").ok());
  ASSERT_TRUE(svc.AttachSource("calm", {"SHUTDOWN"}, "zen").ok());

  // Sync points are unsheddable, so the share check is what rejects.
  ASSERT_TRUE(
      svc.PublishSyncPoint(Ingress{"loud", 0, 0}, "INSTALL", 10).ok());
  ASSERT_TRUE(
      svc.PublishSyncPoint(Ingress{"loud", 0, 1}, "INSTALL", 20).ok());
  Status over = svc.PublishSyncPoint(Ingress{"loud", 0, 2}, "INSTALL", 30);
  ASSERT_EQ(over.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(over.message().find("retry after"), std::string::npos);

  // The global queue has plenty of room: the neighbor is untouched.
  ASSERT_TRUE(
      svc.PublishSyncPoint(Ingress{"calm", 0, 0}, "SHUTDOWN", 10).ok());
  TenantStatus noisy = svc.TenantOf("noisy").ValueOrDie();
  EXPECT_EQ(noisy.queued, 2u);
  EXPECT_EQ(noisy.rejected_queue_share, 1u);
  EXPECT_EQ(svc.TenantOf("zen").ValueOrDie().rejected_queue_share, 0u);

  // Draining frees the share; the rejected call retries verbatim.
  ASSERT_TRUE(svc.Tick().ok());
  EXPECT_TRUE(
      svc.PublishSyncPoint(Ingress{"loud", 0, 2}, "INSTALL", 30).ok());
}

TEST(TenantTest, PerTickRateLimitResetsEachTick) {
  SupervisorConfig config;
  config.tenants.quotas["noisy"].max_calls_per_tick = 2;
  SupervisedService svc = MakeService(config);
  ASSERT_TRUE(svc.AttachSource("loud", {"INSTALL"}, "noisy").ok());

  ASSERT_TRUE(
      svc.PublishSyncPoint(Ingress{"loud", 0, 0}, "INSTALL", 10).ok());
  ASSERT_TRUE(
      svc.PublishSyncPoint(Ingress{"loud", 0, 1}, "INSTALL", 20).ok());
  Status over = svc.PublishSyncPoint(Ingress{"loud", 0, 2}, "INSTALL", 30);
  ASSERT_EQ(over.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(svc.TenantOf("noisy").ValueOrDie().rejected_rate, 1u);

  // A new tick grants a fresh admission budget.
  ASSERT_TRUE(svc.Tick().ok());
  EXPECT_TRUE(
      svc.PublishSyncPoint(Ingress{"loud", 0, 2}, "INSTALL", 30).ok());
  EXPECT_EQ(svc.TenantOf("noisy").ValueOrDie().admitted, 3u);
}

TEST(TenantTest, AggregateBudgetGovernsTenantsIndependently) {
  SupervisorConfig config;
  config.ingress.queue_capacity = 4096;
  config.ingress.drain_per_tick = 64;
  config.governor.degrade_after = 2;
  // High restore hysteresis: the degrade itself flushes the alignment
  // buffers, so a hair-trigger restore would erase the degraded phase
  // before it can be observed mid-run.
  config.governor.restore_after = 8;
  config.session.heartbeat_timeout = 0;
  // Only "noisy" carries a tight aggregate budget.
  config.tenants.quotas["noisy"].aggregate.max_buffer = 8;
  SupervisedService svc = MakeService(config);

  ASSERT_TRUE(svc.RegisterQuery(NamedPair("Noisy"), ConsistencySpec::Strong(),
                                std::nullopt, "noisy")
                  .ok());
  ASSERT_TRUE(svc.RegisterQuery(NamedPair("Zen"), ConsistencySpec::Strong(),
                                std::nullopt, "zen")
                  .ok());
  ASSERT_TRUE(svc.AttachSource("src", {"INSTALL", "SHUTDOWN"}).ok());

  // Strong + no sync points: both queries' alignment buffers grow, but
  // only noisy's tenant budget is violated.
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

  TenantStatus noisy = svc.TenantOf("noisy").ValueOrDie();
  EXPECT_TRUE(noisy.degraded);
  EXPECT_GE(noisy.degrades, 1u);
  EXPECT_GT(svc.GovernorOf("Noisy").ValueOrDie().rung, 0u);
  // The neighbor tenant rides the same pressure at full consistency.
  EXPECT_FALSE(svc.TenantOf("zen").ValueOrDie().degraded);
  EXPECT_EQ(svc.GovernorOf("Zen").ValueOrDie().rung, 0u);
  EXPECT_EQ(svc.GovernorOf("Zen").ValueOrDie().phase,
            GovernorPhase::kSteady);

  // Calm restores the tenant as a unit.
  ASSERT_TRUE(
      svc.PublishSyncPoint(Ingress{"src", 0, seq++}, "INSTALL", 1000).ok());
  ASSERT_TRUE(
      svc.PublishSyncPoint(Ingress{"src", 0, seq++}, "SHUTDOWN", 1000)
          .ok());
  for (int t = 0; t < 16; ++t) ASSERT_TRUE(svc.Tick().ok());
  noisy = svc.TenantOf("noisy").ValueOrDie();
  EXPECT_FALSE(noisy.degraded);
  EXPECT_GE(noisy.restores, 1u);
  EXPECT_EQ(svc.GovernorOf("Noisy").ValueOrDie().rung, 0u);
  ASSERT_TRUE(svc.Finish().ok());
}

TEST(TenantTest, DegradedTenantSuppressesPerQueryRestore) {
  SupervisorConfig config;
  config.ingress.queue_capacity = 4096;
  config.ingress.drain_per_tick = 64;
  config.governor.degrade_after = 2;
  config.governor.restore_after = 4;
  config.session.heartbeat_timeout = 0;
  config.tenants.quotas["noisy"].aggregate.max_buffer = 8;
  SupervisedService svc = MakeService(config);

  // The query meets its own budget on every check, so its calm streak
  // passes restore_after long before its tenant calms down.
  QueryBudget own;
  own.max_buffer = 1000;
  ASSERT_TRUE(svc.RegisterQuery(NamedPair("Noisy"), ConsistencySpec::Strong(),
                                own, "noisy")
                  .ok());
  ASSERT_TRUE(svc.AttachSource("src", {"INSTALL", "SHUTDOWN"}, "noisy").ok());
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

  // While the tenant is degraded only the tenant governor may restore
  // the query, and it restores the tenant in the same step. Sync points
  // release the buffers after the sixth tick.
  int degraded_ticks = 0;
  for (int t = 0; t < 24; ++t) {
    if (t == 6) {
      ASSERT_TRUE(
          svc.PublishSyncPoint(Ingress{"src", 0, seq++}, "INSTALL", 1000)
              .ok());
      ASSERT_TRUE(
          svc.PublishSyncPoint(Ingress{"src", 0, seq++}, "SHUTDOWN", 1000)
              .ok());
    }
    ASSERT_TRUE(svc.Tick().ok());
    GovernorStatus query = svc.GovernorOf("Noisy").ValueOrDie();
    TenantStatus tenant = svc.TenantOf("noisy").ValueOrDie();
    if (!tenant.degraded) continue;
    ++degraded_ticks;
    EXPECT_EQ(query.restores, 0u) << "tick " << t;
    EXPECT_GT(query.rung, 0u) << "tick " << t;
  }
  EXPECT_GT(degraded_ticks, config.governor.restore_after - 2)
      << "the query's own restore threshold was never reached while its "
         "tenant was degraded";
  TenantStatus tenant = svc.TenantOf("noisy").ValueOrDie();
  EXPECT_FALSE(tenant.degraded);
  EXPECT_GE(tenant.restores, 1u);
  EXPECT_EQ(svc.GovernorOf("Noisy").ValueOrDie().rung, 0u);
  ASSERT_TRUE(svc.Finish().ok());
}

TEST(TenantTest, TenantNamesAndDefaultTenantAccounting) {
  SupervisedService svc = MakeService();
  ASSERT_TRUE(svc.RegisterQuery(NamedPair("A")).ok());  // default tenant
  ASSERT_TRUE(
      svc.RegisterQuery(NamedPair("B"), std::nullopt, std::nullopt, "acme")
          .ok());
  ASSERT_TRUE(svc.AttachSource("src", {"INSTALL"}).ok());
  std::vector<std::string> names = svc.TenantNames();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "");
  EXPECT_EQ(names[1], "acme");
  EXPECT_EQ(svc.TenantOf("").ValueOrDie().queries, 1u);
  EXPECT_EQ(svc.TenantOf("").ValueOrDie().sources, 1u);
  EXPECT_EQ(svc.TenantOf("nope").status().code(), StatusCode::kNotFound);
}

TEST(TenantTest, RecoverRebuildsTenantMembership) {
  SupervisorConfig config;
  config.tenants.quotas["acme"].max_queries = 1;
  std::string journal_bytes;
  {
    SupervisedService svc = MakeService(config);
    ASSERT_TRUE(svc.RegisterQuery(NamedPair("A"), std::nullopt,
                                  std::nullopt, "acme")
                    .ok());
    ASSERT_TRUE(svc.AttachSource("src", {"INSTALL"}, "acme").ok());
    ASSERT_TRUE(svc.Publish(Ingress{"src", 0, 0}, "INSTALL",
                            MakeEvent(1, 2, kInfinity, Payload(7)))
                    .ok());
    ASSERT_TRUE(svc.Tick().ok());
    journal_bytes = svc.journal().bytes();
  }
  std::unique_ptr<SupervisedService> recovered =
      SupervisedService::Recover(journal_bytes, config).ValueOrDie();
  TenantStatus acme = recovered->TenantOf("acme").ValueOrDie();
  EXPECT_EQ(acme.queries, 1u);
  EXPECT_EQ(acme.sources, 1u);
  // Quotas are configuration, not history: still enforced after
  // recovery.
  EXPECT_EQ(recovered
                ->RegisterQuery(NamedPair("B"), std::nullopt, std::nullopt,
                                "acme")
                .status()
                .code(),
            StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace cedr
