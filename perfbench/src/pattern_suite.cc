// pattern_suite: the Section 3.1 pattern queries over disordered
// machine events, closed loop. One caller pushes fixed-size arrival
// batches through Executor::PushBatch, then calls Finish and reads every
// sink. Exercises lang/plan, engine.query, pattern operators, predicate
// field lookup, consistency (alignment buffers) and engine.sink; no
// SwitchableQuery, supervisor or journal runs.
#include <iostream>
#include <map>

#include "audit/denote.h"
#include "denotation/ideal.h"
#include "engine/executor.h"
#include "engine/parallel.h"
#include "io/serde.h"
#include "testing/fault.h"
#include "workload/disorder.h"
#include "workload/machines.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace cedr;

/// Messages per ingress step.
constexpr size_t kBatch = 16;

struct Input {
  /// Ideal (unitemporal) input per event type: the oracle's inputs.
  std::map<std::string, EventList> ideals;
  /// The disordered arrival sequence, CTIs included.
  std::vector<TypedMessage> merged;
};

Input MakeInput(uint64_t seed, bool tiny) {
  workload::MachineConfig config;
  config.num_machines = 12;
  config.num_sessions = tiny ? 150 : 6000;
  config.max_session_length = 60;
  config.restart_scope = 12;
  config.session_interval = 4;
  config.seed = seed;
  workload::MachineStreams streams = workload::GenerateMachineEvents(config);
  DisorderConfig disorder;
  disorder.disorder_fraction = 0.25;
  disorder.max_delay = 12;
  disorder.cti_period = 20;
  disorder.seed = seed * 17 + 3;
  Input in;
  in.ideals["INSTALL"] = denotation::IdealOf(streams.installs);
  in.ideals["SHUTDOWN"] = denotation::IdealOf(streams.shutdowns);
  in.ideals["RESTART"] = denotation::IdealOf(streams.restarts);
  in.merged = MergeByArrival(
      {{"INSTALL", ApplyDisorder(streams.installs, disorder)},
       {"SHUTDOWN", ApplyDisorder(streams.shutdowns, disorder)},
       {"RESTART", ApplyDisorder(streams.restarts, disorder)}});
  return in;
}

using Suite = std::vector<std::unique_ptr<CompiledQuery>>;
using StepList = std::vector<std::span<const TypedMessage>>;

/// Compiles every suite query (empty on failure, recorded in `report`).
Suite CompileSuite(Report* report) {
  static const int kCompile = SpanName("plan.compile");
  const Catalog catalog = workload::MachineCatalog();
  Suite suite;
  for (const QueryDef& q : PatternQueries()) {
    Span span(kCompile);
    Result<std::unique_ptr<CompiledQuery>> compiled =
        CompiledQuery::Compile(q.text, catalog, q.spec);
    if (!compiled.ok()) {
      report->Fail("compile " + q.name + ": " + compiled.status().ToString());
      return {};
    }
    suite.push_back(std::move(compiled).ValueOrDie());
  }
  return suite;
}

const std::vector<int>& QuerySpans() {
  static const std::vector<int> spans = [] {
    std::vector<int> out;
    for (const QueryDef& q : PatternQueries()) {
      out.push_back(SpanName("query.push." + q.name));
    }
    return out;
  }();
  return spans;
}

/// One Executor::PushBatch step. Traced, the executor's query-major
/// loop is unrolled here so each query's push gets its own span.
Status PushStep(Executor* exec, Suite* suite,
                std::span<const TypedMessage> batch, int64_t step) {
  static const int kStep = SpanName("executor.push_batch");
  Span span(kStep, step);
  if (!Tracer::Get().on()) return exec->PushBatch(batch);
  for (size_t i = 0; i < suite->size(); ++i) {
    Span q(QuerySpans()[i], step);
    CEDR_RETURN_NOT_OK((*suite)[i]->PushBatch(batch));
  }
  return Status::OK();
}

Status FinishSuite(Executor* exec, Suite* suite) {
  static const int kFinish = SpanName("query.finish");
  if (!Tracer::Get().on()) return exec->Finish();
  for (auto& q : *suite) {
    Span span(kFinish);
    CEDR_RETURN_NOT_OK(q->Finish());
  }
  return Status::OK();
}

/// Reads every sink once (materializes lazily recorded output).
void ReadSinks(const Suite& suite) {
  static const int kRead = SpanName("sink.materialize");
  for (const auto& q : suite) {
    Span span(kRead);
    (void)q->sink().messages();
  }
}

/// Pushes steps [from, to) and finishes through a serial Executor.
/// Returns the timed region's wall seconds, or -1 after a failure.
double SerialRun(const StepList& steps, size_t from, Suite* suite,
                 std::vector<double>* step_ms, Report* report) {
  Executor exec;
  for (auto& q : *suite) exec.Register(q.get());
  const Clock::time_point start = Clock::now();
  for (size_t i = from; i < steps.size(); ++i) {
    const double t0 = ThreadCpuMs();
    Status st = PushStep(&exec, suite, steps[i], static_cast<int64_t>(i));
    if (step_ms != nullptr) step_ms->push_back(ThreadCpuMs() - t0);
    if (!st.ok()) {
      report->Fail("push: " + st.ToString(), steps.size() - i);
      return -1;
    }
  }
  Status st = FinishSuite(&exec, suite);
  ReadSinks(*suite);
  const double seconds = SecondsBetween(start, Clock::now());
  if (!st.ok()) {
    report->Fail("finish: " + st.ToString());
    return -1;
  }
  return seconds;
}

/// Converged output of every query vs the denotational oracle. Weak
/// queries that lost corrections make no equality claim (their spec
/// licenses the divergence); strong and middle ones always must match.
void CheckOracle(const Suite& suite, const Input& in, bool corrupt,
                 Report* report) {
  for (size_t i = 0; i < suite.size(); ++i) {
    const QueryDef& def = PatternQueries()[i];
    ++report->attempted;
    EventList actual = suite[i]->sink().Ideal();
    if (corrupt && i == 0) {
      if (actual.empty()) {
        actual.push_back(Event{});
      } else {
        actual.pop_back();
      }
    }
    if (def.spec.IsWeak() && suite[i]->Stats().lost_corrections > 0) {
      std::cout << "  " << def.name
                << ": lost corrections, no equality claim\n";
      continue;
    }
    Result<EventList> oracle = audit::DenoteQuery(suite[i]->bound(),
                                                  in.ideals);
    if (!oracle.ok()) {
      report->Fail(def.name + ": oracle: " + oracle.status().ToString());
    } else if (!denotation::StarEqual(actual, oracle.ValueOrDie())) {
      report->Fail(def.name + ": converged output differs from the oracle");
    }
  }
}

void CheckReference(const Suite& suite,
                    const std::vector<std::vector<Message>>& reference,
                    const std::string& what, Report* report) {
  for (size_t i = 0; i < suite.size(); ++i) {
    ++report->attempted;
    if (!testing::PhysicallyIdentical(reference[i],
                                      suite[i]->sink().messages())) {
      report->Fail(what + ": " + PatternQueries()[i].name +
                   " output differs from the first pass");
    }
  }
}

}  // namespace

void RunPatternSuite(const Options& options, Report* report) {
  const Input in = MakeInput(options.seed, options.tiny);
  const StepList steps = Steps(in.merged, kBatch);
  const double n = static_cast<double>(in.merged.size());
  std::cout << "pattern_suite: " << in.merged.size() << " messages, "
            << steps.size() << " steps of " << kBatch << ", "
            << PatternQueries().size() << " queries, closed loop, "
            << "1 caller thread (par2: 2 workers)\n";
  const double rss0 = CurrentRssMb();
  Tracer& tracer = Tracer::Get();
  const Clock::time_point start = Clock::now();
  PassTimes times;
  times.events = n;
  LayerSamples layers;

  // Pass 0: warm-up, peak memory and the oracle gate.
  std::vector<std::vector<Message>> reference;
  {
    Suite suite = CompileSuite(report);
    if (suite.empty()) return;
    report->attempted += in.merged.size();
    if (SerialRun(steps, 0, &suite, nullptr, report) < 0) return;
    times.mem_peak_mb = PeakRssMb() - rss0;
    CheckOracle(suite, in, options.corrupt, report);
    double state_max = 0, buffer_max = 0, blocking = 0, lost = 0, out = 0;
    for (const auto& q : suite) {
      QueryStats st = q->Stats();
      state_max = std::max(state_max, static_cast<double>(st.max_state_size));
      buffer_max =
          std::max(buffer_max, static_cast<double>(st.max_buffer_size));
      blocking += static_cast<double>(st.total_blocking);
      lost += static_cast<double>(st.lost_corrections);
      out += static_cast<double>(q->sink().messages().size());
      reference.push_back(q->sink().messages());
    }
    if (options.trace) {
      report->Set("ops.state_max", state_max, "count");
      report->Set("consistency.buffer_max", buffer_max, "count");
      report->Set("consistency.blocking_total", blocking, "ticks");
      report->Set("consistency.lost_corrections", lost, "count");
      report->Set("sink.out_msgs", out, "count");
    }
  }

  // The recovery checkpoint: CompiledQuery::Snapshot of every query
  // after half the input (untimed).
  const size_t cut = steps.size() / 2;
  std::vector<std::string> checkpoint;
  {
    Suite suite = CompileSuite(report);
    if (suite.empty()) return;
    Executor exec;
    for (auto& q : suite) exec.Register(q.get());
    for (size_t i = 0; i < cut; ++i) {
      Status st = exec.PushBatch(steps[i]);
      if (!st.ok()) {
        report->Fail("checkpoint push: " + st.ToString());
        return;
      }
    }
    for (auto& q : suite) {
      io::BinaryWriter w;
      Status st = q->Snapshot(&w);
      if (!st.ok()) {
        report->Fail("snapshot: " + st.ToString());
        return;
      }
      checkpoint.push_back(w.Take());
    }
  }

  // Each pass type rotates through the CPUs on its own (see CpuRotation).
  CpuRotation serial_cpu(1), par2_cpu(2), recover_cpu(1);
  // Set-up: compile and wire the suite.
  auto setup = [&] {
    const size_t mark = tracer.size();
    tracer.set_on(options.trace);
    const Clock::time_point t0 = Clock::now();
    Suite suite = CompileSuite(report);
    Executor exec;
    for (auto& q : suite) exec.Register(q.get());
    const double seconds = SecondsBetween(t0, Clock::now());
    tracer.set_on(false);
    if (suite.empty()) return false;
    times.setup_s.push_back(seconds);
    if (options.trace) {
      layers.Add("plan.compile_ms",
                 tracer.SelfMs(mark, tracer.size())["plan.compile"]);
    }
    return true;
  };

  // Serial pass. A traced run alternates traced and untraced passes so
  // the tracing overhead is measured on the same inputs.
  int serial_passes = 0;
  std::vector<double> traced_s, busy_ms;
  auto serial = [&] {
    serial_cpu.Next();
    Suite suite = CompileSuite(report);
    if (suite.empty()) return false;
    const bool traced = options.trace && serial_passes++ % 2 == 0;
    const size_t mark = tracer.size();
    tracer.set_on(traced);
    report->attempted += in.merged.size();
    if (!traced) times.step_ms.emplace_back();
    std::vector<double>* step_ms = traced ? nullptr : &times.step_ms.back();
    const double seconds = SerialRun(steps, 0, &suite, step_ms, report);
    tracer.set_on(false);
    if (seconds < 0) return false;
    CheckReference(suite, reference, "serial pass", report);
    if (!traced) {
      times.serial_s.push_back(seconds);
      return true;
    }
    traced_s.push_back(seconds);
    layers.AddSelfMs(mark, tracer.size());
    double busy = 0;
    for (const auto& [name, ms] : tracer.SelfMs(mark, tracer.size())) {
      if (name.rfind("query.", 0) == 0) busy += ms;
    }
    busy_ms.push_back(busy);
    return true;
  };

  // The same run through ParallelExecutor with 2 workers.
  auto par2 = [&] {
    par2_cpu.Next();
    static const int kParStep = SpanName("parallel.push_batch");
    static const int kParFinish = SpanName("parallel.finish");
    Suite suite = CompileSuite(report);
    if (suite.empty()) return false;
    ParallelExecutor exec(ParallelConfig{2});
    for (auto& q : suite) exec.Register(q.get());
    tracer.set_on(options.trace);
    report->attempted += in.merged.size();
    // The arrival sequence in the executor's own fan-out batches, as
    // ParallelExecutor::Run feeds it: a barrier per 16-message step
    // would measure thread wake-ups, not the executor.
    const std::vector<std::span<const TypedMessage>> fan_out =
        Steps(in.merged, exec.config().batch_size);
    const Clock::time_point t0 = Clock::now();
    Status st = Status::OK();
    for (size_t i = 0; i < fan_out.size() && st.ok(); ++i) {
      Span span(kParStep, static_cast<int64_t>(i));
      st = exec.PushBatch(fan_out[i]);
    }
    if (st.ok()) {
      Span span(kParFinish);
      st = exec.Finish();
    }
    ReadSinks(suite);
    const double seconds = SecondsBetween(t0, Clock::now());
    tracer.set_on(false);
    if (!st.ok() || exec.num_quarantined() > 0) {
      report->Fail("parallel run: " + st.ToString(),
                   std::max<size_t>(1, exec.num_quarantined()));
      return false;
    }
    CheckReference(suite, reference, "par2 pass", report);
    times.par2_s.push_back(seconds);
    return true;
  };

  // Recovery, timed: recompile, Restore the checkpoint, replay the rest
  // of the input, Finish; the output must equal the uninterrupted run's.
  auto recover = [&] {
    recover_cpu.Next();
    static const int kRestore = SpanName("io.restore");
    tracer.set_on(options.trace);
    const Clock::time_point t0 = Clock::now();
    Suite suite = CompileSuite(report);
    bool ok = !suite.empty();
    for (size_t i = 0; ok && i < suite.size(); ++i) {
      Span span(kRestore);
      io::BinaryReader r(checkpoint[i]);
      Status st = suite[i]->Restore(&r);
      if (!st.ok()) {
        report->Fail("restore: " + st.ToString());
        ok = false;
      }
    }
    report->attempted += in.merged.size() - cut * kBatch;
    ok = ok && SerialRun(steps, cut, &suite, nullptr, report) >= 0;
    const double seconds = SecondsBetween(t0, Clock::now());
    tracer.set_on(false);
    if (!ok) return false;
    CheckReference(suite, reference, "recovered run", report);
    times.recover_s.push_back(seconds);
    return true;
  };

  RunRounds(After(start, options.seconds), 2,
            RoundOf(options, setup, serial, par2, recover));
  UnpinCpu();
  if (!report->correct) return;
  if (!options.trace) {
    times.Publish(report);
    return;
  }
  report->Set("plan.compile_ms", layers.MedianOf("plan.compile_ms"), "ms");
  for (const QueryDef& q : PatternQueries()) {
    report->Set("query.push_ms." + q.name,
                layers.MedianOf("query.push." + q.name), "ms");
  }
  report->Set("query.finish_ms", layers.MedianOf("query.finish"), "ms");
  report->Set("sink.materialize_ms", layers.MedianOf("sink.materialize"),
              "ms");
  report->Set("parallel.efficiency",
              Median(busy_ms) / (2.0 * 1e3 * Median(times.par2_s)), "ratio");
  report->Set("parallel.par2_events_per_s", times.Par2EventsPerS(), "1/s");
  report->Set("trace.events_per_s", n / Median(traced_s), "1/s");
  report->Set("trace.overhead_frac",
              Median(traced_s) / Median(times.serial_s) - 1.0, "ratio");
  PrintTopSelfTime("pattern_suite", 0, tracer.size(), 12);
}

}  // namespace perfbench
