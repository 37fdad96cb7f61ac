// Throughput scaling harness: the default Executor (1 worker, the
// serial row) vs the same Executor at 2/4/8 workers over a multi-query
// workload, plus supervised tick-drain latency (p50/p99) with serial vs
// parallel routing over the same events and queries, paced by the
// adversarial burst generator, and the supervised/serial throughput
// ratio. Emits machine-readable JSON
// (BENCH_throughput.json) to seed the perf trajectory.
//
//   throughput_scaling [--preset=small|full] [--seed=N]
//                      [--out=BENCH_throughput.json]
//
// Parallelism is across queries (each query single-threaded, identical
// arrival-ordered input), so per-query output is bit-identical to the
// serial run at every worker count; the harness verifies that on every
// configuration before accepting its timing.
#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "cli.h"
#include "common/format.h"
#include "engine/executor.h"
#include "engine/supervisor.h"
#include "testing/fault.h"
#include "workload/adversarial.h"
#include "workload/disorder.h"
#include "workload/machines.h"

namespace cedr {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Preset {
  const char* name;
  int num_sessions;     // machine workload size (3 msgs/session or so)
  int repeats;          // timing repeats (best-of)
};

constexpr Preset kSmall{"small", 800, 2};
constexpr Preset kFull{"full", 6000, 3};

workload::MachineConfig WorkloadMachines(const Preset& preset,
                                         uint64_t seed) {
  workload::MachineConfig config;
  config.num_machines = 12;
  config.num_sessions = preset.num_sessions;
  config.max_session_length = 60;
  config.restart_scope = 12;
  config.session_interval = 4;
  config.seed = seed;
  return config;
}

DisorderConfig WorkloadDisorder(uint64_t seed) {
  DisorderConfig disorder;
  disorder.disorder_fraction = 0.25;
  disorder.max_delay = 12;
  disorder.cti_period = 20;
  disorder.seed = seed * 17 + 3;
  return disorder;
}

std::vector<LabeledStream> BuildWorkload(const Preset& preset,
                                         uint64_t seed) {
  workload::MachineStreams streams =
      workload::GenerateMachineEvents(WorkloadMachines(preset, seed));
  const DisorderConfig disorder = WorkloadDisorder(seed);
  return {{"INSTALL", ApplyDisorder(streams.installs, disorder)},
          {"SHUTDOWN", ApplyDisorder(streams.shutdowns, disorder)},
          {"RESTART", ApplyDisorder(streams.restarts, disorder)}};
}

/// Eight independent queries sharing the ingress stream: the Section
/// 3.1 pattern at four consistency levels and a plain sequence at
/// four. Scopes are in ticks, sized to the generator's session
/// interval, so per-event matching cost stays bounded and the bench
/// measures engine overhead rather than pattern-state explosion. Both
/// the executor and the supervised rows run these; each level gets its
/// own EVENT name, since the supervisor keys queries by name.
std::vector<std::pair<std::string, ConsistencySpec>> SuiteQueries() {
  const std::vector<ConsistencySpec> levels = {
      ConsistencySpec::Strong(), ConsistencySpec::Middle(),
      ConsistencySpec::Weak(60), ConsistencySpec::Custom(0, 240)};
  std::vector<std::pair<std::string, ConsistencySpec>> out;
  for (size_t i = 0; i < levels.size(); ++i) {
    out.emplace_back(
        StrCat("EVENT CIDR07_Example", i, "\n",
               "WHEN UNLESS(SEQUENCE(INSTALL AS x, SHUTDOWN AS y, 80),\n"
               "            RESTART AS z, 12)\n"
               "WHERE {x.Machine_Id = y.Machine_Id} AND\n"
               "      {x.Machine_Id = z.Machine_Id}"),
        levels[i]);
  }
  for (size_t i = 0; i < levels.size(); ++i) {
    out.emplace_back(
        StrCat("EVENT Pairs", i, " WHEN SEQUENCE(INSTALL, SHUTDOWN, 60)"),
        levels[i]);
  }
  return out;
}

std::vector<std::unique_ptr<CompiledQuery>> BuildSuite() {
  std::vector<std::unique_ptr<CompiledQuery>> queries;
  const auto catalog = workload::MachineCatalog();
  for (const auto& [text, spec] : SuiteQueries()) {
    queries.push_back(
        CompiledQuery::Compile(text, catalog, spec).ValueOrDie());
  }
  return queries;
}

struct ExecTiming {
  int workers = 1;  // 1 = the serial row
  double seconds = 0;
  double events_per_sec = 0;
  double speedup_vs_serial = 1.0;
  /// Across the timed repeats (after warm-up), in seconds^2.
  double variance = 0;
};

struct SupTiming {
  int route_workers = 1;
  double seconds = 0;
  double events_per_sec = 0;
  double tick_p50_ms = 0;
  double tick_p99_ms = 0;
  /// events_per_sec over the serial executor's, on the same events and
  /// queries.
  double vs_serial = 0;
};

double Percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  size_t idx = static_cast<size_t>(p * static_cast<double>(xs.size() - 1));
  return xs[idx];
}

struct TimedStats {
  double best = 1e300;
  double variance = 0;  // across the timed repeats, seconds^2
};

/// Times `run` best-of-repeats. One untimed warm-up run precedes the
/// timed ones so the first configuration measured (historically the
/// serial baseline) does not also pay the process's cold costs - page
/// faults, allocator arena growth, lazy dynamic linking - which skewed
/// serial numbers low and inflated every reported speedup.
template <typename RunFn>
TimedStats TimeRun(const Preset& preset, const RunFn& run) {
  (void)run();  // warm-up
  std::vector<double> samples;
  samples.reserve(static_cast<size_t>(preset.repeats));
  for (int r = 0; r < preset.repeats; ++r) {
    samples.push_back(run());
  }
  TimedStats s;
  double sum = 0;
  for (double x : samples) {
    s.best = std::min(s.best, x);
    sum += x;
  }
  const double mean = sum / static_cast<double>(samples.size());
  for (double x : samples) {
    s.variance += (x - mean) * (x - mean);
  }
  s.variance /= static_cast<double>(samples.size());
  return s;
}

void Usage(std::ostream& os) {
  os << "usage: throughput_scaling [--preset=small|full] [--seed=N]\n"
        "                          [--out=BENCH_throughput.json]\n"
        "Times the executor at 1 (serial), 2, 4 and 8 workers plus\n"
        "supervised tick-drain latency, verifies bit-identical output on\n"
        "every configuration, and writes metrics to --out.\n";
}

int Main(int argc, char** argv) {
  Preset preset = kFull;
  uint64_t seed = 3;
  std::string out_path = "BENCH_throughput.json";
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (bench::ParseFlag(argv[i], "preset", &value)) {
      if (value == "small") {
        preset = kSmall;
      } else if (value == "full") {
        preset = kFull;
      } else {
        std::cerr << "throughput_scaling: malformed value for --preset: '"
                  << value << "'\n";
        Usage(std::cerr);
        return 2;
      }
    } else if (bench::ParseFlag(argv[i], "seed", &value)) {
      if (!bench::ParseUint(value, &seed)) {
        std::cerr << "throughput_scaling: malformed value for --seed: '"
                  << value << "'\n";
        Usage(std::cerr);
        return 2;
      }
    } else if (bench::ParseFlag(argv[i], "out", &value)) {
      out_path = value;
    } else if (std::strcmp(argv[i], "--help") == 0 ||
               std::strcmp(argv[i], "-h") == 0) {
      Usage(std::cout);
      return 0;
    } else {
      std::cerr << "throughput_scaling: unknown flag: " << argv[i] << "\n";
      Usage(std::cerr);
      return 2;
    }
  }

  const auto streams = BuildWorkload(preset, seed);
  const auto merged = MergeByArrival(streams);
  const size_t num_events = merged.size();
  const size_t num_queries = BuildSuite().size();
  std::cout << "workload: " << num_events << " events x " << num_queries
            << " queries (preset " << preset.name << ", "
            << std::thread::hardware_concurrency() << " cpus)\n";

  // Reference output for bit-identity verification.
  auto reference = BuildSuite();
  {
    Executor exec;
    for (auto& q : reference) exec.Register(q.get());
    Status st = exec.Run(streams);
    if (!st.ok()) {
      std::cerr << "reference run failed: " << st.ToString() << "\n";
      return 1;
    }
  }
  auto verify = [&](const std::vector<std::unique_ptr<CompiledQuery>>& suite,
                    const std::string& label) {
    for (size_t i = 0; i < suite.size(); ++i) {
      if (!testing::PhysicallyIdentical(reference[i]->sink().messages(),
                                        suite[i]->sink().messages())) {
        std::cerr << label << ": query " << i
                  << " diverged from the serial reference\n";
        std::exit(1);
      }
    }
  };

  std::vector<ExecTiming> timings;

  // Serial baseline: the default Executor (1 worker).
  {
    ExecTiming t;
    TimedStats stats = TimeRun(preset, [&] {
      auto suite = BuildSuite();
      Executor exec;
      for (auto& q : suite) exec.Register(q.get());
      auto start = Clock::now();
      Status st = exec.Run(streams);
      double secs = SecondsSince(start);
      if (!st.ok()) std::exit(1);
      verify(suite, "serial");
      return secs;
    });
    t.seconds = stats.best;
    t.variance = stats.variance;
    t.events_per_sec = static_cast<double>(num_events) / t.seconds;
    timings.push_back(t);
    std::cout << "serial: " << t.seconds << " s, " << t.events_per_sec
              << " events/s\n";
  }
  const double serial_seconds = timings[0].seconds;

  for (int workers : {2, 4, 8}) {
    ExecTiming t;
    t.workers = workers;
    TimedStats stats = TimeRun(preset, [&] {
      auto suite = BuildSuite();
      Executor exec(ExecutorConfig{workers, 1024});
      for (auto& q : suite) exec.Register(q.get());
      auto start = Clock::now();
      Status st = exec.Run(streams);
      double secs = SecondsSince(start);
      if (!st.ok()) std::exit(1);
      verify(suite, StrCat("parallel x", workers));
      return secs;
    });
    t.seconds = stats.best;
    t.variance = stats.variance;
    t.events_per_sec = static_cast<double>(num_events) / t.seconds;
    t.speedup_vs_serial = serial_seconds / t.seconds;
    timings.push_back(t);
    std::cout << "parallel x" << workers << ": " << t.seconds << " s, "
              << t.events_per_sec << " events/s ("
              << t.speedup_vs_serial << "x)\n";
  }

  // Supervised tick-drain latency, serial vs parallel routing, over the
  // executor rows' events and queries, paced by the adversarial burst
  // generator.
  workload::AdversarialConfig adv;
  adv.machines = WorkloadMachines(preset, seed);
  adv.disorder = WorkloadDisorder(seed);
  testing::SupervisedScenario scenario =
      workload::BurstOverloadScenario(adv);
  scenario.queries.clear();
  for (const auto& [text, spec] : SuiteQueries()) {
    scenario.queries.push_back({text, spec, std::nullopt});
  }

  std::vector<SupTiming> sup_timings;
  std::string baseline_journal;
  for (int route_workers : {1, 4}) {
    SupervisorConfig config;
    config.ingress.queue_capacity = 1 << 17;
    config.ingress.drain_per_tick = 256;
    config.session.heartbeat_timeout = 0;
    config.routing.route_workers = route_workers;

    SupTiming t;
    t.route_workers = route_workers;
    auto start = Clock::now();
    auto run = testing::RunSupervised(scenario, config);
    t.seconds = SecondsSince(start);
    if (!run.ok()) {
      std::cerr << "supervised run failed: " << run.status().ToString()
                << "\n";
      return 1;
    }
    if (route_workers == 1) {
      baseline_journal = run.ValueOrDie().journal_bytes;
    } else if (run.ValueOrDie().journal_bytes != baseline_journal) {
      std::cerr << "supervised parallel routing diverged from serial\n";
      return 1;
    }
    // Tick latency: re-drive the journaled ingress through a fresh
    // supervisor, timing each Tick.
    {
      SupervisedService svc(config);
      for (const auto& [type, schema] : scenario.catalog) {
        (void)svc.RegisterEventType(type, schema);
      }
      for (const auto& q : scenario.queries) {
        (void)svc.RegisterQuery(q.text, q.spec, q.budget);
      }
      for (const auto& [source, types] : scenario.sources) {
        (void)svc.AttachSource(source, types);
      }
      std::map<std::string, uint64_t> seqs;
      std::vector<double> tick_ms;
      size_t offered = 0;
      auto tick = [&] {
        auto t0 = Clock::now();
        Status st = svc.Tick();
        tick_ms.push_back(SecondsSince(t0) * 1e3);
        if (!st.ok()) std::exit(1);
      };
      for (const testing::SupervisedCall& call : scenario.feed) {
        if (call.action != testing::SupervisedCall::Action::kOffer) {
          continue;
        }
        SupervisedService::Ingress ingress{call.source, 0,
                                           seqs[call.source]++};
        Status st = Status::OK();
        switch (call.call.op) {
          case io::JournalOp::kPublish:
            st = svc.Publish(ingress, call.call.name, call.call.event);
            break;
          case io::JournalOp::kRetract:
            st = svc.PublishRetraction(ingress, call.call.name,
                                       call.call.event, call.call.new_ve);
            break;
          case io::JournalOp::kSyncPoint:
            st = svc.PublishSyncPoint(ingress, call.call.name,
                                      call.call.time);
            break;
          default:
            break;
        }
        (void)st;  // backpressure is fine here; drop and keep pacing
        if (++offered % 128 == 0) tick();
      }
      while (svc.queue_depth() > 0) tick();
      (void)svc.Finish();
      t.tick_p50_ms = Percentile(tick_ms, 0.50);
      t.tick_p99_ms = Percentile(tick_ms, 0.99);
      t.events_per_sec =
          static_cast<double>(offered) /
          (std::accumulate(tick_ms.begin(), tick_ms.end(), 0.0) / 1e3);
      t.vs_serial = t.events_per_sec / timings[0].events_per_sec;
    }
    sup_timings.push_back(t);
    std::cout << "supervised route_workers=" << route_workers << ": "
              << t.events_per_sec << " events/s (" << t.vs_serial
              << "x serial), p50 " << t.tick_p50_ms << " ms, p99 "
              << t.tick_p99_ms << " ms\n";
  }

  std::ofstream out(out_path);
  out << "{\n"
      << "  \"bench\": \"throughput_scaling\",\n"
      << "  \"preset\": \"" << preset.name << "\",\n"
      << "  \"cpus\": " << std::thread::hardware_concurrency() << ",\n"
      << "  \"events\": " << num_events << ",\n"
      << "  \"queries\": " << num_queries << ",\n"
      << "  \"executor\": [\n";
  for (size_t i = 0; i < timings.size(); ++i) {
    const ExecTiming& t = timings[i];
    out << "    {\"mode\": \""
        << (t.workers == 1 ? "serial" : "parallel")
        << "\", \"workers\": " << t.workers << ", \"seconds\": "
        << t.seconds << ", \"events_per_sec\": " << t.events_per_sec
        << ", \"speedup_vs_serial\": " << t.speedup_vs_serial
        << ", \"variance\": " << t.variance << "}"
        << (i + 1 < timings.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"supervised\": [\n";
  for (size_t i = 0; i < sup_timings.size(); ++i) {
    const SupTiming& t = sup_timings[i];
    out << "    {\"route_workers\": " << t.route_workers
        << ", \"events_per_sec\": " << t.events_per_sec
        << ", \"tick_p50_ms\": " << t.tick_p50_ms
        << ", \"tick_p99_ms\": " << t.tick_p99_ms
        << ", \"supervised_vs_serial\": " << t.vs_serial << "}"
        << (i + 1 < sup_timings.size() ? "," : "") << "\n";
  }
  out << "  ],\n"
      << "  \"bit_identical\": true\n"
      << "}\n";
  std::cout << "wrote " << out_path << "\n";
  return 0;
}

}  // namespace
}  // namespace cedr

int main(int argc, char** argv) { return cedr::Main(argc, argv); }
