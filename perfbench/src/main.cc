// cedrbench: the CEDR benchmark binary.
//
//   cedrbench --workload <pattern_suite|relational_mix|supervised_net>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--tiny] [--corrupt-output] [--trace-out <path>]
//
// Prints progress lines, then as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1
// the per-layer ones from a traced run (plus the traced run's own
// throughput and its overhead against untraced passes). Exits 1 when
// any output check failed, 2 on bad usage.
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <set>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace perfbench {
namespace {

std::vector<std::pair<std::string, std::string>> EndToEndMetrics() {
  return {{"events_per_s", "1/s"},      {"step_p50_ms", "ms"},
          {"step_p99_ms", "ms"},        {"setup_s", "s"},
          {"mem_peak_mb", "MiB"},       {"recover_s", "s"}};
}

std::vector<std::pair<std::string, std::string>> PerLayerMetrics() {
  std::vector<std::pair<std::string, std::string>> out = {
      {"plan.compile_ms", "ms"}};
  for (const QueryDef& q : PatternQueries()) {
    out.emplace_back("query.push_ms." + q.name, "ms");
  }
  out.emplace_back("query.finish_ms", "ms");
  for (const std::string& plan : RelationalPlanNames()) {
    out.emplace_back("ops.push_ms." + plan, "ms");
  }
  const std::vector<std::pair<std::string, std::string>> rest = {
      {"ops.state_max", "count"},
      {"consistency.buffer_max", "count"},
      {"consistency.blocking_total", "ticks"},
      {"consistency.lost_corrections", "count"},
      {"sink.out_msgs", "count"},
      {"sink.materialize_ms", "ms"},
      {"parallel.efficiency", "ratio"},
      {"parallel.par2_events_per_s", "1/s"},
      {"supervisor.tick_ms", "ms"},
      {"supervisor.queue_max", "count"},
      {"governor.degrades", "count"},
      {"governor.restores", "count"},
      {"switching.switches", "count"},
      {"switching.retained_max", "count"},
      {"switching.push_sync_ms", "ms"},
      {"switching.push_data_us", "us"},
      {"query.snapshot_ms", "ms"},
      {"query.snapshot_kb", "KiB"},
      {"journal.kb", "KiB"},
      {"transport.step_ms", "ms"},
      {"client.pump_ms", "ms"},
      {"net.frames", "count"},
      {"net.retransmits", "count"},
      {"session.duplicates", "count"},
      {"net.useful_frac", "ratio"},
      {"ops_attempted", "count"},
      {"ops_failed_frac", "ratio"},
      {"trace.events_per_s", "1/s"},
      {"trace.overhead_frac", "ratio"},
  };
  out.insert(out.end(), rest.begin(), rest.end());
  return out;
}

void Usage() {
  std::cerr << "usage: cedrbench --workload "
               "<pattern_suite|relational_mix|supervised_net>\n"
               "                 --seed <n> --seconds <s> --trace <0|1>\n"
               "                 [--tiny] [--corrupt-output] "
               "[--trace-out <path>]\n";
}

bool ParseUint(const char* s, uint64_t* out) {
  if (s == nullptr || *s == '\0') return false;
  char* end = nullptr;
  errno = 0;
  unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || *end != '\0' || s[0] == '-') return false;
  *out = v;
  return true;
}

/// Checks the report against the metric catalogue: every expected name
/// present with its unit and a finite value, nothing unexpected. Missing
/// per-layer metrics of a bypassed layer are reported as 0.
bool Normalize(bool trace, Report* report) {
  const auto expected = trace ? PerLayerMetrics() : EndToEndMetrics();
  std::set<std::string> names;
  bool ok = true;
  for (const auto& [name, unit] : expected) {
    names.insert(name);
    auto it = report->metrics.find(name);
    if (it == report->metrics.end()) {
      if (!trace) {
        std::cerr << "missing end-to-end metric " << name << "\n";
        ok = false;
      }
      report->Set(name, 0.0, unit);
      continue;
    }
    it->second.unit = unit;
    if (!std::isfinite(it->second.value)) {
      std::cerr << "metric " << name << " is not finite\n";
      ok = false;
    }
  }
  for (const auto& [name, metric] : report->metrics) {
    if (names.count(name) == 0) {
      std::cerr << "unexpected metric " << name << "\n";
      ok = false;
    }
  }
  return ok;
}

void PrintJson(const Report& report) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  bool first = true;
  for (const auto& [name, metric] : report.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), metric.value,
                metric.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int Main(int argc, char** argv) {
  Options options;
  uint64_t trace = 0;
  uint64_t seconds = 10;
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (flag == "--workload" && value != nullptr) {
      options.workload = value;
      have_workload = true;
      ++i;
    } else if (flag == "--seed" && ParseUint(value, &options.seed)) {
      have_seed = true;
      ++i;
    } else if (flag == "--seconds" && ParseUint(value, &seconds) &&
               seconds > 0) {
      ++i;
    } else if (flag == "--trace" && ParseUint(value, &trace) && trace <= 1) {
      ++i;
    } else if (flag == "--trace-out" && value != nullptr) {
      options.trace_out = value;
      ++i;
    } else if (flag == "--tiny") {
      options.tiny = true;
    } else if (flag == "--corrupt-output") {
      options.corrupt = true;
    } else {
      std::cerr << "cedrbench: bad argument " << flag << "\n";
      Usage();
      return 2;
    }
  }
  if (!have_workload || !have_seed) {
    Usage();
    return 2;
  }
  options.seconds = static_cast<double>(seconds);
  options.trace = trace == 1;
  RecordCpuMask();

  Report report;
  if (options.workload == "pattern_suite") {
    RunPatternSuite(options, &report);
  } else if (options.workload == "relational_mix") {
    RunRelationalMix(options, &report);
  } else if (options.workload == "supervised_net") {
    RunSupervisedNet(options, &report);
  } else {
    std::cerr << "cedrbench: unknown workload " << options.workload << "\n";
    Usage();
    return 2;
  }
  if (options.trace) {
    report.Set("ops_attempted", static_cast<double>(report.attempted),
               "count");
    report.Set("ops_failed_frac",
               report.attempted == 0
                   ? 1.0
                   : static_cast<double>(report.failed) /
                         static_cast<double>(report.attempted),
               "ratio");
    if (!options.trace_out.empty() &&
        !Tracer::Get().Write(options.trace_out)) {
      std::cerr << "cedrbench: cannot write " << options.trace_out << "\n";
    }
  }
  if (report.attempted == 0) report.Fail("no operation was attempted");
  if (!Normalize(options.trace, &report)) {
    report.Fail("metric catalogue mismatch");
  }
  PrintJson(report);
  return report.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
