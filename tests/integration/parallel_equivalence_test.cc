// Serial-vs-parallel equivalence: the executor with workers and the
// supervisor's parallel routing must produce per-query output
// *bit-identical* to the serial path for every worker count, batch
// size, and seed - parallelism is across queries, each of which
// consumes the identical arrival-ordered stream (DESIGN.md, "Parallel
// execution & batching"). Covers the plain executor over the
// machine/financial workloads, the supervised adversarial scenarios
// (including governor degrade/restore), and journal recovery replayed
// with parallel routing.
#include <gtest/gtest.h>

#include <map>

#include "common/format.h"
#include "engine/executor.h"
#include "workload/adversarial.h"
#include "workload/disorder.h"
#include "workload/financial.h"
#include "workload/machines.h"

namespace cedr {
namespace {

using testing::PhysicallyIdentical;
using testing::RunSupervised;
using testing::SupervisedRun;
using testing::SupervisedScenario;
using workload::AdversarialConfig;

std::vector<LabeledStream> MachineWorkload(uint64_t seed) {
  workload::MachineConfig config;
  config.num_machines = 8;
  config.num_sessions = 150;
  config.max_session_length = 60;
  config.restart_scope = 12;
  config.session_interval = 5;
  config.seed = seed;
  workload::MachineStreams streams =
      workload::GenerateMachineEvents(config);
  DisorderConfig disorder;
  disorder.disorder_fraction = 0.3;
  disorder.max_delay = 15;
  disorder.cti_period = 25;
  disorder.seed = seed * 31 + 7;
  return {{"INSTALL", ApplyDisorder(streams.installs, disorder)},
          {"SHUTDOWN", ApplyDisorder(streams.shutdowns, disorder)},
          {"RESTART", ApplyDisorder(streams.restarts, disorder)}};
}

/// A mixed suite: the Section 3.1 pattern at four consistency levels
/// plus a plain sequence at two - six independent queries sharing the
/// ingress stream.
std::vector<std::unique_ptr<CompiledQuery>> MachineSuite() {
  std::vector<std::unique_ptr<CompiledQuery>> queries;
  const auto catalog = workload::MachineCatalog();
  for (ConsistencySpec spec :
       {ConsistencySpec::Strong(), ConsistencySpec::Middle(),
        ConsistencySpec::Weak(40), ConsistencySpec::Custom(0, 200)}) {
    queries.push_back(
        CompiledQuery::Compile(workload::Cidr07ExampleQuery(), catalog, spec)
            .ValueOrDie());
  }
  for (ConsistencySpec spec :
       {ConsistencySpec::Strong(), ConsistencySpec::Middle()}) {
    queries.push_back(
        CompiledQuery::Compile(
            "EVENT Pairs WHEN SEQUENCE(INSTALL, SHUTDOWN, 60)", catalog,
            spec)
            .ValueOrDie());
  }
  return queries;
}

TEST(ParallelEquivalenceTest, ExecutorSweepWorkersBatchesSeeds) {
  for (uint64_t seed : {1u, 9u, 42u}) {
    auto streams = MachineWorkload(seed);
    auto serial_suite = MachineSuite();
    Executor serial;
    for (auto& q : serial_suite) serial.Register(q.get());
    ASSERT_TRUE(serial.Run(streams).ok()) << "seed " << seed;

    for (int workers : {1, 2, 4, 8}) {
      for (size_t batch : {size_t{1}, size_t{64}, size_t{4096}}) {
        auto suite = MachineSuite();
        Executor parallel(ExecutorConfig{workers, batch});
        for (auto& q : suite) parallel.Register(q.get());
        ASSERT_TRUE(parallel.Run(streams).ok())
            << "seed " << seed << " workers " << workers;
        for (size_t i = 0; i < suite.size(); ++i) {
          ASSERT_TRUE(PhysicallyIdentical(serial_suite[i]->sink().messages(),
                                          suite[i]->sink().messages()))
              << "seed " << seed << " workers " << workers << " batch "
              << batch << " query " << i;
        }
      }
    }
  }
}

TEST(ParallelEquivalenceTest, FinancialJoinSweep) {
  workload::FinancialConfig fin;
  fin.num_symbols = 4;
  fin.num_quotes = 200;
  fin.quote_ttl = 10;
  std::vector<Message> quotes = workload::GenerateQuotes(fin);
  DisorderConfig disorder;
  disorder.disorder_fraction = 0.4;
  disorder.max_delay = 8;
  disorder.cti_period = 12;
  std::vector<LabeledStream> streams = {
      {"QUOTE", ApplyDisorder(quotes, disorder)}};

  const std::map<std::string, SchemaPtr> catalog = {
      {"QUOTE", workload::QuoteSchema()}};
  auto make_suite = [&catalog] {
    std::vector<std::unique_ptr<CompiledQuery>> queries;
    for (ConsistencySpec spec :
         {ConsistencySpec::Strong(), ConsistencySpec::Middle(),
          ConsistencySpec::Weak(20)}) {
      queries.push_back(
          CompiledQuery::Compile(
              "EVENT Hot WHEN ANY(QUOTE AS q) WHERE {q.Price > 50.0}",
              catalog, spec)
              .ValueOrDie());
    }
    return queries;
  };

  auto serial_suite = make_suite();
  Executor serial;
  for (auto& q : serial_suite) serial.Register(q.get());
  ASSERT_TRUE(serial.Run(streams).ok());

  for (int workers : {2, 8}) {
    auto suite = make_suite();
    Executor parallel(ExecutorConfig{workers, 128});
    for (auto& q : suite) parallel.Register(q.get());
    ASSERT_TRUE(parallel.Run(streams).ok());
    for (size_t i = 0; i < suite.size(); ++i) {
      ASSERT_TRUE(PhysicallyIdentical(serial_suite[i]->sink().messages(),
                                      suite[i]->sink().messages()))
          << "workers " << workers << " query " << i;
    }
  }
}

AdversarialConfig ScenarioConfig(uint64_t seed) {
  AdversarialConfig config;
  config.machines.num_machines = 5;
  config.machines.num_sessions = 120;
  config.machines.max_session_length = 40;
  config.machines.restart_scope = 10;
  config.machines.session_interval = 6;
  config.machines.seed = seed;
  return config;
}

SupervisorConfig SupConfig(int route_workers) {
  SupervisorConfig config;
  config.ingress.queue_capacity = 1 << 16;
  config.ingress.drain_per_tick = 48;
  config.session.heartbeat_timeout = 0;
  config.routing.route_workers = route_workers;
  return config;
}

void ExpectRunsIdentical(const SupervisedRun& a, const SupervisedRun& b,
                         const std::string& label) {
  EXPECT_TRUE(PhysicallyIdentical(a.outputs, b.outputs)) << label;
  EXPECT_EQ(a.shed.TotalShed(), b.shed.TotalShed()) << label;
  EXPECT_EQ(a.journal_bytes, b.journal_bytes) << label;
  ASSERT_EQ(a.governors.size(), b.governors.size()) << label;
  for (const auto& [name, gov] : a.governors) {
    const GovernorStatus& other = b.governors.at(name);
    EXPECT_EQ(gov.degrades, other.degrades) << label << " " << name;
    EXPECT_EQ(gov.restores, other.restores) << label << " " << name;
  }
}

TEST(ParallelEquivalenceTest, SupervisedScenariosRouteWorkersInvariant) {
  for (uint64_t seed : {3u, 11u}) {
    std::vector<std::pair<std::string, SupervisedScenario>> scenarios;
    scenarios.emplace_back(
        "burst", workload::BurstOverloadScenario(ScenarioConfig(seed)));
    scenarios.emplace_back(
        "silent", workload::SilentSourceScenario(ScenarioConfig(seed)));
    scenarios.emplace_back(
        "flapping",
        workload::FlappingReconnectScenario(ScenarioConfig(seed)));
    for (auto& [label, scenario] : scenarios) {
      SupervisedRun baseline =
          RunSupervised(scenario, SupConfig(1)).ValueOrDie();
      for (int workers : {2, 8}) {
        SupervisedRun run =
            RunSupervised(scenario, SupConfig(workers)).ValueOrDie();
        ExpectRunsIdentical(baseline, run,
                            StrCat(label, " seed ", seed, " workers ",
                                   workers));
      }
    }
  }
}

TEST(ParallelEquivalenceTest, GovernorDegradeRestoreRouteWorkersInvariant) {
  // A budget tight enough to trip during the burst: the degraded window
  // (level switches, splicing, restore at Finish) must be byte-for-byte
  // the same under parallel routing.
  SupervisedScenario scenario =
      workload::BurstOverloadScenario(ScenarioConfig(7));
  QueryBudget budget;
  budget.max_buffer = 32;
  scenario.queries[0].budget = budget;

  auto config = [](int workers) {
    SupervisorConfig c = SupConfig(workers);
    c.governor.degrade_after = 1;
    c.governor.restore_after = 6;
    return c;
  };
  SupervisedRun baseline = RunSupervised(scenario, config(1)).ValueOrDie();
  const GovernorStatus& gov = baseline.governors.at("CIDR07_Example");
  ASSERT_GE(gov.degrades, 1u) << "scenario never tripped the budget";
  for (int workers : {2, 8}) {
    SupervisedRun run = RunSupervised(scenario, config(workers)).ValueOrDie();
    ExpectRunsIdentical(baseline, run, StrCat("workers ", workers));
  }
}

TEST(ParallelEquivalenceTest, RecoverReplaysIdenticallyUnderParallelRouting) {
  SupervisedScenario scenario =
      workload::BurstOverloadScenario(ScenarioConfig(5));
  SupervisedRun baseline = RunSupervised(scenario, SupConfig(1)).ValueOrDie();

  for (int workers : {1, 4}) {
    std::unique_ptr<SupervisedService> recovered =
        SupervisedService::Recover(baseline.journal_bytes,
                                   SupConfig(workers))
            .ValueOrDie();
    for (const auto& [name, messages] : baseline.outputs) {
      const SwitchableQuery* query =
          recovered->GetQuery(name).ValueOrDie();
      EXPECT_TRUE(
          PhysicallyIdentical(messages, query->OutputMessages()))
          << "workers " << workers << " query " << name;
    }
    // The rebuilt journal must replay to the same bytes.
    EXPECT_EQ(recovered->journal().bytes(), baseline.journal_bytes)
        << "workers " << workers;
  }
}

}  // namespace
}  // namespace cedr
