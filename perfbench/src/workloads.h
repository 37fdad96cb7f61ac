// The benchmark's three workloads and the query/plan catalogue they
// share. Each workload generates its inputs from the seed outside every
// timed region, times only calls into public engine entry points, and
// checks every pass's output against a reference before reporting.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "consistency/spec.h"
#include "engine/query.h"
#include "harness.h"

namespace perfbench {

/// One standing query of the pattern suite, named by shape and level.
struct QueryDef {
  std::string name;
  std::string text;
  cedr::ConsistencySpec spec;
};

/// Section 3.1 pattern queries over the machine-event catalogue: the
/// CIDR07 UNLESS(SEQUENCE) at three levels plus correlated SEQUENCE
/// (with a constant leaf filter and an OUTPUT projection), ALL, ATLEAST
/// and CANCEL-WHEN variants.
const std::vector<QueryDef>& PatternQueries();
/// Names of the relational_mix plans (shape and level).
const std::vector<std::string>& RelationalPlanNames();

/// Splits an arrival sequence into consecutive steps of `batch` messages.
std::vector<std::span<const cedr::TypedMessage>> Steps(
    const std::vector<cedr::TypedMessage>& merged, size_t batch);

/// Timings behind the end-to-end metrics, collected over a run.
struct PassTimes {
  /// Ingress messages or calls one full pass processes.
  double events = 0;
  std::vector<double> setup_s;
  std::vector<double> serial_s;  // timed region of each untraced pass
  /// Step CPU times (see ThreadCpuMs), one vector per untraced serial
  /// pass.
  std::vector<std::vector<double>> step_ms;
  /// Timed region of each par2 pass (traced runs only).
  std::vector<double> par2_s;
  std::vector<double> recover_s;
  double mem_peak_mb = 0;

  /// Writes the end-to-end metrics into `report`. Throughputs are
  /// aggregate (all events over all timed seconds of the run), the
  /// time-average that converges under interference that comes in
  /// multi-second states; step percentiles are taken over the steps of
  /// all passes pooled, which moves smoothly with the share of passes
  /// that ran on a slow CPU where a median of per-pass percentiles jumps
  /// between the fast and the slow mode; set-up time is the median of
  /// its repetitions.
  void Publish(Report* report) const;

  /// Aggregate par2 throughput, a per-layer metric: a 2-thread pass on
  /// a shared host measures how often a second CPU is free as much as
  /// the engine, too unsteady for an end-to-end bound.
  double Par2EventsPerS() const;
};

/// The passes of one round of a run. Set-up repetitions ride in every
/// round (1% of the run each, at least 5), so set-up time samples the
/// whole run window too. par2 passes only feed per-layer metrics, so
/// untraced runs leave them out and spend the time on more serial and
/// recovery passes.
inline std::vector<std::function<bool()>> RoundOf(
    const Options& options, std::function<bool()> setup_once,
    std::function<bool()> serial, std::function<bool()> par2,
    std::function<bool()> recover) {
  std::function<bool()> setup = [seconds = 0.01 * options.seconds,
                                 setup_once] {
    bool ok = true;
    RepeatUntil(After(Clock::now(), seconds), 5,
                [&] { return ok = setup_once(); });
    return ok;
  };
  if (options.trace) return {setup, serial, serial, par2, recover};
  return {setup, serial, serial, recover};
}

/// Median across traced passes of each named per-layer value.
class LayerSamples {
 public:
  void Add(const std::string& name, double value) {
    samples_[name].push_back(value);
  }
  /// Adds the self time of every span name in [begin, end).
  void AddSelfMs(size_t begin, size_t end);
  double MedianOf(const std::string& name) const;

 private:
  std::map<std::string, std::vector<double>> samples_;
};

void RunPatternSuite(const Options& options, Report* report);
void RunRelationalMix(const Options& options, Report* report);
void RunSupervisedNet(const Options& options, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
