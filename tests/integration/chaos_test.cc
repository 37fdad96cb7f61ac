// Chaos harness integration: injected faults (poison status, escaped
// exception, slow query) against the supervised runtime, on the serial
// and the parallel routing path. The blast radius of every fault is one
// query; healthy and revived queries are bit-identical to a fault-free
// run.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "testing/fault.h"
#include "workload/machines.h"

namespace cedr {
namespace testing {
namespace {

/// The Section 3.1 example query with a distinct EVENT name.
std::string RenamedQuery(const std::string& name, Duration scope_hours,
                         Duration scope_minutes) {
  std::string text = workload::Cidr07ExampleQuery(scope_hours, scope_minutes);
  const std::string from = "CIDR07_Example";
  size_t pos = text.find(from);
  if (pos != std::string::npos) text.replace(pos, from.size(), name);
  return text;
}

/// Three machine-alert queries over one paced source. Query names sort
/// as Chaos_A < Chaos_B < Chaos_C, matching the schedule's
/// QueryNames()-index targeting.
SupervisedScenario SmallScenario(uint64_t workload_seed) {
  SupervisedScenario scenario;
  scenario.catalog = workload::MachineCatalog();
  scenario.queries.push_back(
      {RenamedQuery("Chaos_A", 12, 5), ConsistencySpec::Strong(),
       std::nullopt});
  scenario.queries.push_back(
      {RenamedQuery("Chaos_B", 8, 3), ConsistencySpec::Middle(),
       std::nullopt});
  scenario.queries.push_back(
      {RenamedQuery("Chaos_C", 24, 10), ConsistencySpec::Strong(),
       std::nullopt});
  scenario.sources["machine-events"] = {"INSTALL", "SHUTDOWN", "RESTART"};

  workload::MachineConfig machines;
  machines.num_machines = 8;
  machines.num_sessions = 60;
  machines.seed = workload_seed;
  workload::MachineStreams streams =
      workload::GenerateMachineEvents(machines);
  scenario.feed = PaceFeed(
      "machine-events",
      MergeFeeds({FeedOf("INSTALL", streams.installs),
                  FeedOf("SHUTDOWN", streams.shutdowns),
                  FeedOf("RESTART", streams.restarts)}),
      0, 8);
  scenario.trailing_ticks = 16;
  return scenario;
}

SupervisorConfig ChaosConfig(int workers) {
  SupervisorConfig config;
  config.routing.route_workers = workers;
  config.watchdog.enabled = true;
  config.watchdog.tick_deadline_us = 1'000'000'000;  // virtual charges only
  return config;
}

void ExpectHealthyBitIdentical(const SupervisedRun& baseline,
                               const ChaosRun& chaos,
                               const std::set<std::string>& targeted) {
  for (const auto& [name, stream] : baseline.outputs) {
    if (targeted.count(name) > 0) continue;
    auto it = chaos.run.outputs.find(name);
    ASSERT_NE(it, chaos.run.outputs.end()) << name;
    EXPECT_TRUE(PhysicallyIdentical(stream, it->second))
        << "healthy query " << name
        << " diverged from the fault-free run";
  }
}

TEST(ChaosIntegrationTest, PoisonQuarantinesOneQuerySerialPath) {
  SupervisedScenario scenario = SmallScenario(11);
  SupervisorConfig config = ChaosConfig(1);
  SupervisedRun baseline =
      RunSupervised(scenario, config).ValueOrDie();

  ChaosSchedule schedule;
  schedule.seed = 11;
  schedule.faults.push_back(
      {ChaosFault::Kind::kPoisonStatus, /*query_index=*/0,
       /*at_tick=*/2, /*duration_ticks=*/8, /*revive_after_ticks=*/0});
  ChaosRun chaos = RunChaos(scenario, schedule, config).ValueOrDie();

  ASSERT_EQ(chaos.incidents.size(), 1u);
  const ChaosIncident& incident = chaos.incidents[0];
  EXPECT_EQ(incident.query, "Chaos_A");
  ASSERT_GE(incident.quarantined_at, 0);
  EXPECT_GE(incident.time_to_quarantine, 0);
  EXPECT_EQ(incident.report.origin, "push");
  EXPECT_EQ(incident.report.fault.code(), StatusCode::kExecutionError);
  // Still quarantined at the end, with the terminal status on record.
  ASSERT_EQ(chaos.run.quarantines.count("Chaos_A"), 1u);
  EXPECT_FALSE(chaos.run.quarantines.at("Chaos_A").fault.ok());

  ExpectHealthyBitIdentical(baseline, chaos, {"Chaos_A"});
}

TEST(ChaosIntegrationTest, ThrowOnParallelPathIsAbsorbed) {
  SupervisedScenario scenario = SmallScenario(23);
  SupervisorConfig config = ChaosConfig(4);
  SupervisedRun baseline =
      RunSupervised(scenario, config).ValueOrDie();

  ChaosSchedule schedule;
  schedule.seed = 23;
  schedule.faults.push_back(
      {ChaosFault::Kind::kThrow, /*query_index=*/1,
       /*at_tick=*/3, /*duration_ticks=*/8, /*revive_after_ticks=*/0});
  ChaosRun chaos = RunChaos(scenario, schedule, config).ValueOrDie();

  ASSERT_EQ(chaos.incidents.size(), 1u);
  const ChaosIncident& incident = chaos.incidents[0];
  EXPECT_EQ(incident.query, "Chaos_B");
  ASSERT_GE(incident.quarantined_at, 0)
      << "a throw on a pool worker must quarantine, not crash";
  EXPECT_EQ(incident.report.fault.code(), StatusCode::kExecutionError);
  ExpectHealthyBitIdentical(baseline, chaos, {"Chaos_B"});
}

TEST(ChaosIntegrationTest, ThrowFaultTextIsTheSameAtEveryWorkerCount) {
  // The quarantine report names the fault the query raised; how the
  // batch was fanned out must not leak into it.
  SupervisedScenario scenario = SmallScenario(23);
  ChaosSchedule schedule;
  schedule.seed = 23;
  schedule.faults.push_back(
      {ChaosFault::Kind::kThrow, /*query_index=*/1,
       /*at_tick=*/3, /*duration_ticks=*/8, /*revive_after_ticks=*/0});
  ChaosRun serial = RunChaos(scenario, schedule, ChaosConfig(1)).ValueOrDie();
  ChaosRun parallel =
      RunChaos(scenario, schedule, ChaosConfig(4)).ValueOrDie();
  ASSERT_GE(serial.incidents.at(0).quarantined_at, 0);
  ASSERT_GE(parallel.incidents.at(0).quarantined_at, 0);
  const Status& a = serial.incidents[0].report.fault;
  const Status& b = parallel.incidents[0].report.fault;
  EXPECT_EQ(a.code(), b.code());
  EXPECT_EQ(a.message(), b.message());
  EXPECT_NE(a.message().find("chaos: injected exception"), std::string::npos)
      << a.message();
}

TEST(ChaosIntegrationTest, SlowQueryTripsTheWatchdog) {
  SupervisedScenario scenario = SmallScenario(31);
  SupervisorConfig config = ChaosConfig(2);
  SupervisedRun baseline =
      RunSupervised(scenario, config).ValueOrDie();

  ChaosSchedule schedule;
  schedule.seed = 31;
  schedule.faults.push_back(
      {ChaosFault::Kind::kSlow, /*query_index=*/2,
       /*at_tick=*/2, /*duration_ticks=*/16, /*revive_after_ticks=*/0});
  ChaosRun chaos = RunChaos(scenario, schedule, config).ValueOrDie();

  ASSERT_EQ(chaos.incidents.size(), 1u);
  const ChaosIncident& incident = chaos.incidents[0];
  EXPECT_EQ(incident.query, "Chaos_C");
  ASSERT_GE(incident.quarantined_at, 0);
  EXPECT_EQ(incident.report.origin, "watchdog");
  EXPECT_EQ(incident.report.fault.code(), StatusCode::kResourceExhausted);
  ExpectHealthyBitIdentical(baseline, chaos, {"Chaos_C"});
}

TEST(ChaosIntegrationTest, QuarantineThenRecoverIsSeamless) {
  SupervisedScenario scenario = SmallScenario(47);
  for (int workers : {1, 4}) {
    SupervisorConfig config = ChaosConfig(workers);
    SupervisedRun baseline =
        RunSupervised(scenario, config).ValueOrDie();

    ChaosSchedule schedule;
    schedule.seed = 47;
    schedule.faults.push_back(
        {ChaosFault::Kind::kPoisonStatus, /*query_index=*/0,
         /*at_tick=*/2, /*duration_ticks=*/8, /*revive_after_ticks=*/2});
    ChaosRun chaos = RunChaos(scenario, schedule, config).ValueOrDie();

    ASSERT_EQ(chaos.incidents.size(), 1u);
    const ChaosIncident& incident = chaos.incidents[0];
    ASSERT_GE(incident.quarantined_at, 0) << "workers=" << workers;
    ASSERT_GE(incident.revived_at, 0) << "workers=" << workers;
    EXPECT_GE(incident.revived_at - incident.quarantined_at, 2)
        << "workers=" << workers;
    // Revival is invisible: the revived query's whole output stream is
    // bit-identical to one that never faulted, and nothing lingers in
    // the quarantine ward.
    EXPECT_TRUE(chaos.run.quarantines.empty()) << "workers=" << workers;
    EXPECT_TRUE(PhysicallyIdentical(baseline.outputs.at("Chaos_A"),
                                    chaos.run.outputs.at("Chaos_A")))
        << "workers=" << workers;
    ExpectHealthyBitIdentical(baseline, chaos, {"Chaos_A"});
  }
}

TEST(ChaosIntegrationTest, GeneratedSchedulesAreSeededAndReproducible) {
  ChaosSchedule a = GenerateChaosSchedule(99, 3, 40);
  ChaosSchedule b = GenerateChaosSchedule(99, 3, 40);
  ASSERT_EQ(a.faults.size(), b.faults.size());
  ASSERT_FALSE(a.faults.empty());
  std::set<size_t> targets;
  for (size_t i = 0; i < a.faults.size(); ++i) {
    EXPECT_EQ(a.faults[i].kind, b.faults[i].kind);
    EXPECT_EQ(a.faults[i].query_index, b.faults[i].query_index);
    EXPECT_EQ(a.faults[i].at_tick, b.faults[i].at_tick);
    EXPECT_EQ(a.faults[i].revive_after_ticks, b.faults[i].revive_after_ticks);
    EXPECT_GE(a.faults[i].at_tick, 1);
    EXPECT_LE(a.faults[i].at_tick, 10) << "arm inside the first quarter";
    targets.insert(a.faults[i].query_index);
  }
  EXPECT_EQ(targets.size(), a.faults.size()) << "targets are distinct";
  // A different seed changes the schedule (overwhelmingly likely).
  bool any_diff = false;
  for (uint64_t s = 100; s < 110 && !any_diff; ++s) {
    ChaosSchedule c = GenerateChaosSchedule(s, 3, 40);
    if (c.faults.size() != a.faults.size()) any_diff = true;
    for (size_t i = 0; !any_diff && i < c.faults.size(); ++i) {
      any_diff = c.faults[i].kind != a.faults[i].kind ||
                 c.faults[i].query_index != a.faults[i].query_index ||
                 c.faults[i].at_tick != a.faults[i].at_tick;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(ChaosIntegrationTest, SeededSweepNeverCrashesAndAlwaysIsolates) {
  // A miniature of bench/chaos: every generated fault quarantines its
  // target, and every untargeted query stays bit-identical.
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SupervisedScenario scenario = SmallScenario(seed);
    SupervisorConfig config = ChaosConfig(seed % 2 == 0 ? 4 : 1);
    const int64_t horizon =
        scenario.feed.empty() ? 1 : scenario.feed.back().at_tick;
    ChaosSchedule schedule = GenerateChaosSchedule(seed, 3, horizon);
    SupervisedRun baseline =
        RunSupervised(scenario, config).ValueOrDie();
    ChaosRun chaos = RunChaos(scenario, schedule, config).ValueOrDie();

    std::set<std::string> targeted;
    for (const ChaosIncident& incident : chaos.incidents) {
      targeted.insert(incident.query);
      EXPECT_GE(incident.quarantined_at, 0)
          << "seed " << seed << " query " << incident.query;
      EXPECT_FALSE(incident.report.fault.ok()) << "seed " << seed;
    }
    ExpectHealthyBitIdentical(baseline, chaos, targeted);
  }
}

}  // namespace
}  // namespace testing
}  // namespace cedr
