// Shared pieces of the CEDR benchmark binary: run options, the result a
// workload reports, wall-clock sample statistics, process memory
// probes, and the span tracer that attributes time to engine layers
// from outside the engine.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// CPU time the calling thread has used so far, ms. Step latencies are
/// measured on this clock: a step is tens of microseconds to a few
/// milliseconds, and on a shared host its wall time also counts the
/// slices the scheduler gives other tenants, which swamps the tail.
double ThreadCpuMs();

struct Options {
  std::string workload;
  uint64_t seed = 1;
  /// Wall seconds the run measures (set-up, timed passes, recovery).
  double seconds = 10;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Smoke-test size: tiny inputs, same code paths.
  bool tiny = false;
  /// Self-test of the correctness gate: damages one converged output
  /// before it is compared, so the run must fail.
  bool corrupt = false;
  /// Where the traced run writes its spans (empty: not written).
  std::string trace_out;
};

struct Metric {
  double value = 0;
  std::string unit;
};

/// What a workload reports. `attempted` counts operations (ingress calls
/// plus per-query output checks); `failed` those that were shed,
/// dropped, never accepted, quarantined, or mismatched the reference.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> metrics;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Records a failed operation and marks the run incorrect.
  void Fail(const std::string& why, uint64_t operations = 1);
};

// ---- Sample statistics -------------------------------------------------

double Median(std::vector<double> xs);
/// Nearest-rank percentile, p in [0, 1].
double Percentile(std::vector<double> xs, double p);

/// Runs `pass` (which returns false to stop early) at least `min_passes`
/// times and until `deadline` has passed.
template <typename Fn>
void RepeatUntil(Clock::time_point deadline, int min_passes, const Fn& pass) {
  for (int i = 0; i < min_passes || Clock::now() < deadline; ++i) {
    if (!pass()) return;
  }
}

/// Runs the passes round-robin - one round runs each once, in order -
/// for at least `min_rounds` rounds and until `deadline`, so every
/// measured quantity samples the whole run window rather than one slice
/// of it (co-tenant interference on a shared host comes and goes on a
/// scale of seconds). Stops at the first pass that returns false.
inline void RunRounds(Clock::time_point deadline, int min_rounds,
                      const std::vector<std::function<bool()>>& passes) {
  for (int round = 0; round < min_rounds || Clock::now() < deadline;
       ++round) {
    for (const auto& pass : passes) {
      if (!pass()) return;
    }
  }
}

/// The time point `seconds` after `start`.
inline Clock::time_point After(Clock::time_point start, double seconds) {
  return start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(seconds));
}

// ---- CPU placement ---------------------------------------------------------

/// Round-robin CPU placement of timed passes. Each Next() pins the
/// calling thread - and the threads it creates afterwards, which inherit
/// its mask - to the next `width` CPUs of the process's start-up
/// affinity mask. On a shared host the virtual CPUs run at different
/// speeds that drift over tens of seconds, and an unpinned thread tends
/// to stay on one of them for a whole run; rotating every pass type
/// through all of them makes a run average over placement instead of
/// sampling one CPU.
class CpuRotation {
 public:
  explicit CpuRotation(int width) : width_(width) {}
  void Next();

 private:
  int width_;
  size_t next_ = 0;
};

/// Records the start-up affinity mask; call before any CpuRotation.
void RecordCpuMask();
/// Undoes any CpuRotation pinning of the calling thread.
void UnpinCpu();

// ---- Memory --------------------------------------------------------------

/// Current resident set size, MiB.
double CurrentRssMb();
/// Peak resident set size of the process so far, MiB.
double PeakRssMb();

// ---- Tracing ---------------------------------------------------------------

/// In-memory span recorder. Spans are opened and closed on the benchmark
/// thread around each call into an engine layer; a span's parent is the
/// span open when it started, so per-layer self time is its duration
/// minus the time its children cover.
class Tracer {
 public:
  struct SpanRecord {
    int name = 0;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;
    int64_t step = -1;
  };

  static Tracer& Get();

  bool on() const { return on_; }
  void set_on(bool on) { on_ = on; }

  /// Stable id for a span name.
  int Intern(const std::string& name);

  int Begin(int name, int64_t step);
  void End(int index);

  size_t size() const { return spans_.size(); }
  /// Self time in ms per span name over spans [begin, end).
  std::map<std::string, double> SelfMs(size_t begin, size_t end) const;
  /// Span count per name over spans [begin, end).
  std::map<std::string, uint64_t> Counts(size_t begin, size_t end) const;
  /// Writes every span as CSV: name,start_ns,end_ns,parent,step.
  bool Write(const std::string& path) const;

 private:
  bool on_ = false;
  std::vector<std::string> names_;
  std::unordered_map<std::string, int> ids_;
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
  Clock::time_point epoch_ = Clock::now();
};

/// RAII span; records nothing unless the tracer is on.
class Span {
 public:
  explicit Span(int name, int64_t step = -1) {
    Tracer& t = Tracer::Get();
    if (t.on()) index_ = t.Begin(name, step);
  }
  ~Span() {
    if (index_ >= 0) Tracer::Get().End(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int index_ = -1;
};

/// Interned span-name id (cached by the caller).
inline int SpanName(const std::string& name) {
  return Tracer::Get().Intern(name);
}

/// Prints the top-`n` span names by self time over [begin, end).
void PrintTopSelfTime(const std::string& title, size_t begin, size_t end,
                      size_t n);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
