// Chaos resilience harness (DESIGN.md, "Fault domains & admission
// control"): runs seeded composable fault schedules - poison events,
// escaped exceptions, slow queries, quarantine-then-recover - against
// the supervised runtime and asserts the blast radius:
//
//   * the process never crashes;
//   * every injected-fault query ends quarantined (terminal Status on
//     its sink) unless the schedule revives it;
//   * every healthy query's output is bit-identical to the same run
//     without faults, and every revived query's output is bit-identical
//     to a run in which it never faulted.
//
// Given --out, writes machine-readable resilience metrics (the committed
// BENCH_resilience.json): time-to-quarantine, recovery time, and
// degraded-throughput ratio.
//
//   chaos [--seed=N] [--schedules=N] [--workers=N] [--only=K]
//         [--out=FILE] [--verbose]
//
//   --seed=N       base seed; schedule k runs with seed N+k (default 1)
//   --schedules=N  number of fault schedules to run (default 200)
//   --workers=N    route_workers of the supervisor (default 4: the
//                  parallel routing path; 1 = serial)
//   --only=K       run only schedule K (reproduce one failure)
//   --out=FILE     write the metrics JSON to FILE (default: none)
//   exit status    0 iff every schedule passed every assertion.
#include <chrono>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "cli.h"
#include "common/format.h"
#include "testing/fault.h"
#include "workload/machines.h"

namespace cedr {
namespace {

using bench::ParseFlag;
using bench::ParseUint;
using testing::ChaosFault;
using testing::ChaosRun;
using testing::ChaosSchedule;
using testing::GenerateChaosSchedule;
using testing::RunChaos;
using testing::RunSupervised;
using testing::SupervisedRun;
using testing::SupervisedScenario;

using Clock = std::chrono::steady_clock;

struct Options {
  uint64_t seed = 1;
  uint64_t schedules = 200;
  int workers = 4;
  int64_t only = -1;
  bool verbose = false;
  std::string out;  // empty: no JSON
};

void Usage(std::ostream& os) {
  os << "usage: chaos [--seed=N] [--schedules=N] [--workers=N] "
        "[--only=K]\n"
        "             [--out=FILE] [--verbose]\n"
        "Runs seeded fault schedules against the supervised runtime and\n"
        "asserts quarantine isolation, bit-identical healthy output, and\n"
        "recovery; writes resilience metrics to --out.\n";
}

/// The Section 3.1 example query with a distinct EVENT name, so several
/// variants can stand side by side under one supervisor.
std::string RenamedQuery(const std::string& name, Duration scope_hours,
                         Duration scope_minutes) {
  std::string text = workload::Cidr07ExampleQuery(scope_hours, scope_minutes);
  const std::string from = "CIDR07_Example";
  size_t pos = text.find(from);
  if (pos != std::string::npos) text.replace(pos, from.size(), name);
  return text;
}

SupervisedScenario BuildScenario(uint64_t workload_seed) {
  SupervisedScenario scenario;
  scenario.catalog = workload::MachineCatalog();
  scenario.queries.push_back(
      {RenamedQuery("Chaos_Strong", 12, 5), ConsistencySpec::Strong(),
       std::nullopt});
  scenario.queries.push_back(
      {RenamedQuery("Chaos_Middle", 8, 3), ConsistencySpec::Middle(),
       std::nullopt});
  scenario.queries.push_back(
      {RenamedQuery("Chaos_Wide", 24, 10), ConsistencySpec::Strong(),
       std::nullopt});
  scenario.sources["machine-events"] = {"INSTALL", "SHUTDOWN", "RESTART"};

  workload::MachineConfig machines;
  machines.num_machines = 16;
  machines.num_sessions = 120;
  machines.seed = workload_seed;
  workload::MachineStreams streams =
      workload::GenerateMachineEvents(machines);
  std::vector<io::JournalRecord> feed = testing::MergeFeeds(
      {testing::FeedOf("INSTALL", streams.installs),
       testing::FeedOf("SHUTDOWN", streams.shutdowns),
       testing::FeedOf("RESTART", streams.restarts)});
  scenario.feed = testing::PaceFeed("machine-events", feed, 0, 8);
  scenario.trailing_ticks = 24;
  return scenario;
}

struct Tally {
  uint64_t schedules = 0;
  uint64_t crashes = 0;          // escaped exceptions / failed runs
  uint64_t faults_injected = 0;
  uint64_t quarantines = 0;
  uint64_t revives = 0;
  uint64_t missing_quarantines = 0;  // fault armed but target never died
  uint64_t healthy_mismatches = 0;   // untargeted output != fault-free
  uint64_t revived_mismatches = 0;   // revived output != fault-free
  uint64_t missing_terminal = 0;     // quarantined without sink error
  int64_t total_time_to_quarantine = 0;
  int64_t total_recovery_ticks = 0;
  uint64_t baseline_messages = 0;
  uint64_t chaos_messages = 0;
};

size_t TotalMessages(const SupervisedRun& run) {
  size_t n = 0;
  for (const auto& [name, stream] : run.outputs) n += stream.size();
  return n;
}

/// Runs one schedule; returns false when any assertion failed.
bool RunOneSchedule(uint64_t seed, const Options& opts, Tally* tally) {
  SupervisedScenario scenario = BuildScenario(seed);
  SupervisorConfig config;
  config.routing.route_workers = opts.workers;
  // Wall-clock-proof watchdog: only virtually charged cost can trip the
  // deadline, so every schedule is deterministic on any machine.
  config.watchdog.enabled = true;
  config.watchdog.tick_deadline_us = 1'000'000'000;

  const int64_t horizon =
      scenario.feed.empty() ? 1 : scenario.feed.back().at_tick;
  ChaosSchedule schedule =
      GenerateChaosSchedule(seed, scenario.queries.size(), horizon);
  tally->faults_injected += schedule.faults.size();

  Result<SupervisedRun> baseline = RunSupervised(scenario, config);
  if (!baseline.ok()) {
    std::cerr << "schedule " << seed << ": fault-free run failed: "
              << baseline.status().ToString() << "\n";
    ++tally->crashes;
    return false;
  }
  Result<ChaosRun> chaos = RunChaos(scenario, schedule, config);
  if (!chaos.ok()) {
    std::cerr << "schedule " << seed << ": chaos run failed: "
              << chaos.status().ToString() << "\n";
    ++tally->crashes;
    return false;
  }
  const SupervisedRun& base_run = baseline.ValueOrDie();
  const ChaosRun& chaos_run = chaos.ValueOrDie();
  tally->baseline_messages += TotalMessages(base_run);
  tally->chaos_messages += TotalMessages(chaos_run.run);

  bool ok = true;
  std::set<std::string> targeted;
  for (const testing::ChaosIncident& incident : chaos_run.incidents) {
    targeted.insert(incident.query);
    if (incident.quarantined_at < 0) {
      std::cerr << "schedule " << seed << ": fault on '" << incident.query
                << "' never quarantined its target\n";
      ++tally->missing_quarantines;
      ok = false;
      continue;
    }
    ++tally->quarantines;
    tally->total_time_to_quarantine += incident.time_to_quarantine;
    if (incident.report.fault.ok()) {
      std::cerr << "schedule " << seed << ": quarantine of '"
                << incident.query << "' carries no terminal error\n";
      ++tally->missing_terminal;
      ok = false;
    }
    if (incident.fault.revive_after_ticks > 0) {
      if (incident.revived_at < 0) {
        std::cerr << "schedule " << seed << ": '" << incident.query
                  << "' was never revived\n";
        ++tally->revived_mismatches;
        ok = false;
      } else {
        ++tally->revives;
        tally->total_recovery_ticks +=
            incident.revived_at - incident.quarantined_at;
        // A revived query must be indistinguishable from one that never
        // faulted: bit-identical output.
        if (!testing::PhysicallyIdentical(
                base_run.outputs.at(incident.query),
                chaos_run.run.outputs.at(incident.query))) {
          std::cerr << "schedule " << seed << ": revived '"
                    << incident.query
                    << "' output differs from the fault-free run\n";
          ++tally->revived_mismatches;
          ok = false;
        }
      }
    } else {
      // Still quarantined at the end: terminal status must be on record.
      auto report = chaos_run.run.quarantines.find(incident.query);
      if (report == chaos_run.run.quarantines.end() ||
          report->second.fault.ok()) {
        std::cerr << "schedule " << seed << ": '" << incident.query
                  << "' missing terminal quarantine status\n";
        ++tally->missing_terminal;
        ok = false;
      }
    }
  }
  // Blast radius: every untargeted query is bit-identical to the
  // fault-free run.
  for (const auto& [name, stream] : base_run.outputs) {
    if (targeted.count(name) > 0) continue;
    auto it = chaos_run.run.outputs.find(name);
    if (it == chaos_run.run.outputs.end() ||
        !testing::PhysicallyIdentical(stream, it->second)) {
      std::cerr << "schedule " << seed << ": healthy query '" << name
                << "' output differs from the fault-free run\n";
      ++tally->healthy_mismatches;
      ok = false;
    }
  }
  if (opts.verbose) {
    std::cout << "schedule " << seed << ": " << schedule.faults.size()
              << " faults, " << (ok ? "ok" : "FAILED") << "\n";
  }
  return ok;
}

int RunMain(const Options& opts) {
  Tally tally;
  uint64_t failed_schedules = 0;
  auto start = Clock::now();
  const uint64_t begin = opts.only >= 0
                             ? opts.seed + static_cast<uint64_t>(opts.only)
                             : opts.seed;
  const uint64_t count = opts.only >= 0 ? 1 : opts.schedules;
  for (uint64_t k = 0; k < count; ++k) {
    ++tally.schedules;
    bool ok = false;
    try {
      ok = RunOneSchedule(begin + k, opts, &tally);
    } catch (const std::exception& e) {
      // The whole point of the fault domains is that this never fires.
      std::cerr << "schedule " << (begin + k)
                << ": escaped exception: " << e.what() << "\n";
      ++tally.crashes;
    } catch (...) {
      std::cerr << "schedule " << (begin + k)
                << ": escaped non-standard exception\n";
      ++tally.crashes;
    }
    if (!ok) ++failed_schedules;
  }
  double elapsed =
      std::chrono::duration<double>(Clock::now() - start).count();
  double mean_ttq =
      tally.quarantines > 0
          ? static_cast<double>(tally.total_time_to_quarantine) /
                static_cast<double>(tally.quarantines)
          : 0.0;
  double mean_recovery =
      tally.revives > 0 ? static_cast<double>(tally.total_recovery_ticks) /
                              static_cast<double>(tally.revives)
                        : 0.0;
  double degraded_ratio =
      tally.baseline_messages > 0
          ? static_cast<double>(tally.chaos_messages) /
                static_cast<double>(tally.baseline_messages)
          : 0.0;

  std::cout << "chaos: " << (tally.schedules - failed_schedules) << "/"
            << tally.schedules << " schedules passed, " << tally.crashes
            << " crashes, " << tally.quarantines << " quarantines ("
            << FormatDouble(mean_ttq, 2) << " ticks mean to quarantine), "
            << tally.revives << " revives ("
            << FormatDouble(mean_recovery, 2)
            << " ticks mean recovery), degraded throughput "
            << FormatDouble(100.0 * degraded_ratio, 1) << "% of fault-free\n";

  if (!opts.out.empty()) {
    std::ofstream json(opts.out, std::ios::trunc);
    json << "{\n"
         << "  \"bench\": \"chaos\",\n"
         << "  \"seed\": " << opts.seed << ",\n"
         << "  \"workers\": " << opts.workers << ",\n"
         << "  \"schedules\": " << tally.schedules << ",\n"
         << "  \"failed_schedules\": " << failed_schedules << ",\n"
         << "  \"crashes\": " << tally.crashes << ",\n"
         << "  \"faults_injected\": " << tally.faults_injected << ",\n"
         << "  \"quarantines\": " << tally.quarantines << ",\n"
         << "  \"missing_quarantines\": " << tally.missing_quarantines
         << ",\n"
         << "  \"missing_terminal\": " << tally.missing_terminal << ",\n"
         << "  \"revives\": " << tally.revives << ",\n"
         << "  \"healthy_mismatches\": " << tally.healthy_mismatches
         << ",\n"
         << "  \"revived_mismatches\": " << tally.revived_mismatches
         << ",\n"
         << "  \"mean_time_to_quarantine_ticks\": "
         << FormatDouble(mean_ttq, 3) << ",\n"
         << "  \"mean_recovery_ticks\": " << FormatDouble(mean_recovery, 3)
         << ",\n"
         << "  \"degraded_throughput_ratio\": "
         << FormatDouble(degraded_ratio, 4) << ",\n"
         << "  \"baseline_messages\": " << tally.baseline_messages << ",\n"
         << "  \"chaos_messages\": " << tally.chaos_messages << ",\n"
         << "  \"seconds\": " << FormatDouble(elapsed, 3) << "\n"
         << "}\n";
  }
  return failed_schedules == 0 ? 0 : 1;
}

}  // namespace
}  // namespace cedr

int main(int argc, char** argv) {
  cedr::Options opts;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    uint64_t parsed = 0;
    if (cedr::ParseFlag(argv[i], "seed", &value)) {
      if (!cedr::ParseUint(value, &parsed)) {
        std::cerr << "chaos: malformed value for --seed: '" << value
                  << "'\n";
        cedr::Usage(std::cerr);
        return 2;
      }
      opts.seed = parsed;
    } else if (cedr::ParseFlag(argv[i], "schedules", &value)) {
      if (!cedr::ParseUint(value, &parsed)) {
        std::cerr << "chaos: malformed value for --schedules: '" << value
                  << "'\n";
        cedr::Usage(std::cerr);
        return 2;
      }
      opts.schedules = parsed;
    } else if (cedr::ParseFlag(argv[i], "workers", &value)) {
      if (!cedr::ParseUint(value, &parsed) || parsed == 0 ||
          parsed > 1024) {
        std::cerr << "chaos: malformed value for --workers: '" << value
                  << "'\n";
        cedr::Usage(std::cerr);
        return 2;
      }
      opts.workers = static_cast<int>(parsed);
    } else if (cedr::ParseFlag(argv[i], "only", &value)) {
      if (!cedr::ParseUint(value, &parsed)) {
        std::cerr << "chaos: malformed value for --only: '" << value
                  << "'\n";
        cedr::Usage(std::cerr);
        return 2;
      }
      opts.only = static_cast<int64_t>(parsed);
    } else if (cedr::ParseFlag(argv[i], "out", &value)) {
      opts.out = value;
    } else if (cedr::ParseFlag(argv[i], "verbose", &value)) {
      opts.verbose = value != "0";
    } else if (std::strcmp(argv[i], "--help") == 0 ||
               std::strcmp(argv[i], "-h") == 0) {
      cedr::Usage(std::cout);
      return 0;
    } else {
      std::cerr << "chaos: unknown flag: " << argv[i] << "\n";
      cedr::Usage(std::cerr);
      return 2;
    }
  }
  return cedr::RunMain(opts);
}
