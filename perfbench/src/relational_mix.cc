// relational_mix: hand-wired operator plans over disordered financial
// quotes (every quote later revised by the retraction that closes it)
// and trades (some busted), at strong and middle consistency, closed
// loop. One caller pushes each arrival batch through every plan's entry
// Operator::PushBatch. Exercises ops, consistency (alignment buffers)
// and engine.sink on retraction-heavy input; no lang, plan or pattern
// work happens.
//
// Plans: sliding window -> GroupBy avg/sum per symbol; structured
// Select -> gather Project; quotes JOIN trades on Symbol; Union of two
// disjoint selections.
#include <algorithm>
#include <iostream>
#include <map>

#include "denotation/relational.h"
#include "engine/sink.h"
#include "engine/stats.h"
#include "engine/worker_pool.h"
#include "io/serde.h"
#include "ops/alter_lifetime.h"
#include "ops/groupby.h"
#include "ops/join.h"
#include "ops/project.h"
#include "ops/select.h"
#include "ops/union_op.h"
#include "testing/fault.h"
#include "workload/disorder.h"
#include "workload/financial.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace cedr;

constexpr size_t kBatch = 16;
/// Steps per par2 fan-out batch (1024 messages).
constexpr size_t kFanOutSteps = 64;
constexpr Duration kWindow = 30;
constexpr int64_t kBigQty = 80;
constexpr int64_t kSmallQty = 10;
constexpr int64_t kProjectQty = 50;

enum InputType { kQuote = 0, kTrade = 1 };
enum class Shape { kWindowGroupBy, kSelectProject, kJoin, kUnion };

/// A same-type run of messages inside one arrival step.
struct Run {
  InputType type;
  std::vector<Message> msgs;
};

struct Input {
  EventList quotes;  // ideal inputs for the oracle
  EventList trades;
  size_t messages = 0;
  Time last_cs = 0;
  std::vector<std::vector<Run>> steps;
};

Input MakeInput(uint64_t seed, bool tiny) {
  const int num_quotes = tiny ? 400 : 12000;
  workload::FinancialConfig fc;
  fc.num_symbols = 16;
  fc.num_quotes = num_quotes;
  fc.quote_interval = 1;
  fc.quote_ttl = 0;  // each quote is closed (revised) by a retraction
  fc.seed = seed * 31 + 7;
  workload::TradeConfig tc;
  tc.num_traders = 8;
  tc.num_symbols = 16;
  tc.num_trades = num_quotes / 2;
  tc.trade_interval = 2;
  tc.bust_fraction = 0.05;
  tc.seed = seed * 37 + 11;
  const std::vector<Message> quotes = workload::GenerateQuotes(fc);
  const std::vector<Message> trades = workload::GenerateTrades(tc);
  DisorderConfig disorder;
  disorder.disorder_fraction = 0.25;
  disorder.max_delay = 12;
  disorder.cti_period = 20;
  disorder.seed = seed * 17 + 5;

  Input in;
  in.quotes = denotation::IdealOf(quotes);
  in.trades = denotation::IdealOf(trades);
  const std::vector<TypedMessage> merged =
      MergeByArrival({{"QUOTE", ApplyDisorder(quotes, disorder)},
                      {"TRADE", ApplyDisorder(trades, disorder)}});
  in.messages = merged.size();
  for (size_t i = 0; i < merged.size(); i += kBatch) {
    std::vector<Run> step;
    for (size_t j = i; j < std::min(merged.size(), i + kBatch); ++j) {
      const InputType type = merged[j].first == "QUOTE" ? kQuote : kTrade;
      if (step.empty() || step.back().type != type) step.push_back({type, {}});
      step.back().msgs.push_back(merged[j].second);
      in.last_cs = std::max(in.last_cs, merged[j].second.cs);
    }
    in.steps.push_back(std::move(step));
  }
  return in;
}

// ---- Plans ------------------------------------------------------------------

SchemaPtr AggSchema() {
  return Schema::Make({{"Symbol", ValueType::kString},
                       {"AvgPrice", ValueType::kDouble},
                       {"Volume", ValueType::kInt64}});
}
std::vector<AggregateSpec> Aggregates() {
  return {{AggregateKind::kAvg, "Price", "AvgPrice"},
          {AggregateKind::kSum, "Volume", "Volume"}};
}
SchemaPtr ProjectSchema() {
  return Schema::Make(
      {{"Symbol", ValueType::kString}, {"Qty", ValueType::kInt64}});
}
SchemaPtr JoinSchema() {
  return Schema::Make({{"Symbol", ValueType::kString},
                       {"QuotePrice", ValueType::kDouble},
                       {"QuoteVolume", ValueType::kInt64},
                       {"Trader", ValueType::kString},
                       {"TradeSymbol", ValueType::kString},
                       {"Qty", ValueType::kInt64},
                       {"TradePrice", ValueType::kDouble}});
}
AttributeComparison QtyComparison(AttributeComparison::Op op, int64_t qty) {
  AttributeComparison c;
  c.left_attribute = "Qty";
  c.constant = Value(qty);
  c.op = op;
  return c;
}
int64_t Qty(const Row& trade) { return trade.at(2).AsInt64(); }
bool SameSymbol(const Row& quote, const Row& trade) {
  return quote.at(0) == trade.at(1);
}

/// One hand-wired plan: operators in topological order (upstream
/// first), the collecting sink, and the entry ports per input type.
struct Plan {
  std::string name;
  Shape shape = Shape::kWindowGroupBy;
  std::vector<std::unique_ptr<Operator>> ops;
  std::unique_ptr<CollectingSink> sink;
  std::vector<std::pair<Operator*, int>> entries[2];

  Status PushStep(const std::vector<Run>& step) {
    for (const Run& run : step) {
      for (auto& [op, port] : entries[run.type]) {
        CEDR_RETURN_NOT_OK(op->PushBatch(port, run.msgs));
      }
    }
    return Status::OK();
  }

  Status Finish(Time last_cs) {
    const Message end = CtiOf(kInfinity, last_cs + 1);
    for (const auto& type_entries : entries) {
      for (auto& [op, port] : type_entries) {
        CEDR_RETURN_NOT_OK(op->Push(port, end));
      }
    }
    for (auto& op : ops) CEDR_RETURN_NOT_OK(op->Drain());
    return sink->Drain();
  }

  std::vector<const Operator*> Operators() const {
    std::vector<const Operator*> out;
    for (const auto& op : ops) out.push_back(op.get());
    return out;
  }

  /// Operator and sink state, in topological order.
  std::string Snapshot() const {
    io::BinaryWriter w;
    for (const auto& op : ops) op->Snapshot(&w);
    sink->Snapshot(&w);
    return w.Take();
  }
  Status Restore(const std::string& bytes) {
    io::BinaryReader r(bytes);
    for (auto& op : ops) CEDR_RETURN_NOT_OK(op->Restore(&r));
    return sink->Restore(&r);
  }
};

Plan BuildPlan(size_t index) {
  Plan plan;
  plan.name = RelationalPlanNames()[index];
  plan.shape = static_cast<Shape>(index / 2);
  const ConsistencySpec spec = index % 2 == 0 ? ConsistencySpec::Strong()
                                              : ConsistencySpec::Middle();
  plan.sink = std::make_unique<CollectingSink>();
  auto add = [&](std::unique_ptr<Operator> op) {
    plan.ops.push_back(std::move(op));
    return plan.ops.back().get();
  };
  switch (plan.shape) {
    case Shape::kWindowGroupBy: {
      Operator* window = add(MakeSlidingWindowOp(kWindow, spec));
      Operator* groupby = add(std::make_unique<GroupByAggregateOp>(
          std::vector<std::string>{"Symbol"}, Aggregates(), AggSchema(),
          spec));
      window->ConnectTo(groupby);
      groupby->ConnectTo(plan.sink.get());
      plan.entries[kQuote].emplace_back(window, 0);
      break;
    }
    case Shape::kSelectProject: {
      Operator* select = add(std::make_unique<SelectOp>(
          std::vector<AttributeComparison>{
              QtyComparison(AttributeComparison::Op::kGt, kProjectQty)},
          spec));
      Operator* project = add(std::make_unique<ProjectOp>(
          std::vector<int>{1, 2}, ProjectSchema(), spec));
      select->ConnectTo(project);
      project->ConnectTo(plan.sink.get());
      plan.entries[kTrade].emplace_back(select, 0);
      break;
    }
    case Shape::kJoin: {
      auto join = std::make_unique<JoinOp>(SameSymbol, JoinSchema(), spec);
      join->SetEquiKeys([](const Row& q) { return q.at(0); },
                        [](const Row& t) { return t.at(1); });
      Operator* op = add(std::move(join));
      op->ConnectTo(plan.sink.get());
      plan.entries[kQuote].emplace_back(op, 0);
      plan.entries[kTrade].emplace_back(op, 1);
      break;
    }
    case Shape::kUnion: {
      Operator* big = add(std::make_unique<SelectOp>(
          std::vector<AttributeComparison>{
              QtyComparison(AttributeComparison::Op::kGe, kBigQty)},
          spec, "select_big"));
      Operator* small = add(std::make_unique<SelectOp>(
          std::vector<AttributeComparison>{
              QtyComparison(AttributeComparison::Op::kLt, kSmallQty)},
          spec, "select_small"));
      Operator* merge = add(std::make_unique<UnionOp>(spec));
      big->ConnectTo(merge, 0);
      small->ConnectTo(merge, 1);
      merge->ConnectTo(plan.sink.get());
      plan.entries[kTrade].emplace_back(big, 0);
      plan.entries[kTrade].emplace_back(small, 0);
      break;
    }
  }
  return plan;
}

std::vector<Plan> BuildPlans() {
  std::vector<Plan> plans;
  for (size_t i = 0; i < RelationalPlanNames().size(); ++i) {
    plans.push_back(BuildPlan(i));
  }
  return plans;
}

/// The denotational meaning of a plan shape over the ideal inputs.
EventList Denote(Shape shape, const Input& in) {
  switch (shape) {
    case Shape::kWindowGroupBy:
      return denotation::GroupByAggregate(
          denotation::SlidingWindow(in.quotes, kWindow), {"Symbol"},
          Aggregates(), AggSchema());
    case Shape::kSelectProject:
      return denotation::Project(
          denotation::Select(in.trades,
                             [](const Row& t) { return Qty(t) > kProjectQty; }),
          [](const Row& t) { return Row(ProjectSchema(), {t.at(1), t.at(2)}); });
    case Shape::kJoin:
      return denotation::Join(in.quotes, in.trades, SameSymbol, JoinSchema());
    case Shape::kUnion:
      return denotation::Union(
          denotation::Select(in.trades,
                             [](const Row& t) { return Qty(t) >= kBigQty; }),
          denotation::Select(
              in.trades, [](const Row& t) { return Qty(t) < kSmallQty; }));
  }
  return {};
}

const std::vector<int>& PlanSpans() {
  static const std::vector<int> spans = [] {
    std::vector<int> out;
    for (const std::string& name : RelationalPlanNames()) {
      out.push_back(SpanName("ops.push." + name));
    }
    return out;
  }();
  return spans;
}

/// Reads every sink once (materializes lazily recorded output).
void ReadSinks(const std::vector<Plan>& plans) {
  static const int kRead = SpanName("sink.materialize");
  for (const Plan& p : plans) {
    Span span(kRead);
    (void)p.sink->messages();
  }
}

/// Pushes steps [from, end) into every plan, finishes, reads the sinks.
/// Returns the timed region's wall seconds, or -1 after a failure.
double SerialRun(const Input& in, size_t from, std::vector<Plan>* plans,
                 std::vector<double>* step_ms, Report* report) {
  static const int kStep = SpanName("ops.push_step");
  static const int kFinish = SpanName("ops.finish");
  const Clock::time_point start = Clock::now();
  for (size_t i = from; i < in.steps.size(); ++i) {
    const double t0 = ThreadCpuMs();
    Span step_span(kStep, static_cast<int64_t>(i));
    for (size_t p = 0; p < plans->size(); ++p) {
      Span span(PlanSpans()[p], static_cast<int64_t>(i));
      Status st = (*plans)[p].PushStep(in.steps[i]);
      if (!st.ok()) {
        report->Fail((*plans)[p].name + " push: " + st.ToString(),
                     in.steps.size() - i);
        return -1;
      }
    }
    if (step_ms != nullptr) step_ms->push_back(ThreadCpuMs() - t0);
  }
  for (Plan& p : *plans) {
    Span span(kFinish);
    Status st = p.Finish(in.last_cs);
    if (!st.ok()) {
      report->Fail(p.name + " finish: " + st.ToString());
      return -1;
    }
  }
  ReadSinks(*plans);
  return SecondsBetween(start, Clock::now());
}

void CheckReference(const std::vector<Plan>& plans,
                    const std::vector<std::vector<Message>>& reference,
                    const std::string& what, Report* report) {
  for (size_t i = 0; i < plans.size(); ++i) {
    ++report->attempted;
    if (!testing::PhysicallyIdentical(reference[i],
                                      plans[i].sink->messages())) {
      report->Fail(what + ": " + plans[i].name +
                   " output differs from the first pass");
    }
  }
}

}  // namespace

void RunRelationalMix(const Options& options, Report* report) {
  const Input in = MakeInput(options.seed, options.tiny);
  const double n = static_cast<double>(in.messages);
  std::cout << "relational_mix: " << in.messages << " messages, "
            << in.steps.size() << " steps of " << kBatch << ", "
            << RelationalPlanNames().size() << " plans, closed loop, "
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
    std::vector<Plan> plans = BuildPlans();
    report->attempted += in.messages;
    if (SerialRun(in, 0, &plans, nullptr, report) < 0) return;
    times.mem_peak_mb = PeakRssMb() - rss0;
    double state_max = 0, buffer_max = 0, blocking = 0, lost = 0, out = 0;
    for (size_t i = 0; i < plans.size(); ++i) {
      ++report->attempted;
      EventList actual = plans[i].sink->Ideal();
      if (options.corrupt && i == 0 && !actual.empty()) actual.pop_back();
      if (!denotation::StarEqual(actual, Denote(plans[i].shape, in))) {
        report->Fail(plans[i].name +
                     ": converged output differs from the oracle");
      }
      QueryStats st = CollectStats(plans[i].Operators());
      state_max = std::max(state_max, static_cast<double>(st.max_state_size));
      buffer_max =
          std::max(buffer_max, static_cast<double>(st.max_buffer_size));
      blocking += static_cast<double>(st.total_blocking);
      lost += static_cast<double>(st.lost_corrections);
      out += static_cast<double>(plans[i].sink->messages().size());
      reference.push_back(plans[i].sink->messages());
    }
    if (options.trace) {
      report->Set("ops.state_max", state_max, "count");
      report->Set("consistency.buffer_max", buffer_max, "count");
      report->Set("consistency.blocking_total", blocking, "ticks");
      report->Set("consistency.lost_corrections", lost, "count");
      report->Set("sink.out_msgs", out, "count");
    }
  }

  // The recovery checkpoint: every operator's Snapshot after half the
  // input (untimed).
  const size_t cut = in.steps.size() / 2;
  std::vector<std::string> checkpoint;
  {
    std::vector<Plan> plans = BuildPlans();
    for (size_t s = 0; s < cut; ++s) {
      for (Plan& p : plans) {
        Status st = p.PushStep(in.steps[s]);
        if (!st.ok()) {
          report->Fail("checkpoint push: " + st.ToString());
          return;
        }
      }
    }
    for (const Plan& p : plans) checkpoint.push_back(p.Snapshot());
  }
  size_t suffix = 0;
  for (size_t s = cut; s < in.steps.size(); ++s) {
    for (const Run& run : in.steps[s]) suffix += run.msgs.size();
  }

  // Each pass type rotates through the CPUs on its own (see CpuRotation).
  CpuRotation serial_cpu(1), par2_cpu(2), recover_cpu(1);
  // Set-up: construct and wire every plan.
  auto setup = [&] {
    const Clock::time_point t0 = Clock::now();
    std::vector<Plan> plans = BuildPlans();
    times.setup_s.push_back(SecondsBetween(t0, Clock::now()));
    return true;
  };

  int serial_passes = 0;
  std::vector<double> traced_s, busy_ms;
  auto serial = [&] {
    serial_cpu.Next();
    std::vector<Plan> plans = BuildPlans();
    const bool traced = options.trace && serial_passes++ % 2 == 0;
    const size_t mark = tracer.size();
    tracer.set_on(traced);
    report->attempted += in.messages;
    if (!traced) times.step_ms.emplace_back();
    std::vector<double>* step_ms = traced ? nullptr : &times.step_ms.back();
    const double seconds = SerialRun(in, 0, &plans, step_ms, report);
    tracer.set_on(false);
    if (seconds < 0) return false;
    CheckReference(plans, reference, "serial pass", report);
    if (!traced) {
      times.serial_s.push_back(seconds);
      return true;
    }
    traced_s.push_back(seconds);
    layers.AddSelfMs(mark, tracer.size());
    double busy = 0;
    for (const auto& [name, ms] : tracer.SelfMs(mark, tracer.size())) {
      if (name.rfind("ops.", 0) == 0) busy += ms;
    }
    busy_ms.push_back(busy);
    return true;
  };

  // par2: the plans fanned across a 2-worker pool with a barrier per
  // fan-out batch of kFanOutSteps steps - the ParallelExecutor
  // discipline (and its default 1024-message batch), on operator plans.
  auto par2 = [&] {
    par2_cpu.Next();
    static const int kParStep = SpanName("parallel.push_batch");
    static const int kParFinish = SpanName("parallel.finish");
    std::vector<Plan> plans = BuildPlans();
    WorkerPool pool(2);
    tracer.set_on(options.trace);
    report->attempted += in.messages;
    const Clock::time_point t0 = Clock::now();
    Status st = Status::OK();
    for (size_t s = 0; s < in.steps.size() && st.ok(); s += kFanOutSteps) {
      Span span(kParStep, static_cast<int64_t>(s));
      const size_t end = std::min(in.steps.size(), s + kFanOutSteps);
      for (const Status& r :
           pool.ParallelForGuarded(plans.size(), [&](size_t p) {
             for (size_t k = s; k < end; ++k) {
               CEDR_RETURN_NOT_OK(plans[p].PushStep(in.steps[k]));
             }
             return Status::OK();
           })) {
        if (!r.ok()) st = r;
      }
    }
    if (st.ok()) {
      Span span(kParFinish);
      for (const Status& r : pool.ParallelForGuarded(
               plans.size(),
               [&](size_t p) { return plans[p].Finish(in.last_cs); })) {
        if (!r.ok()) st = r;
      }
    }
    ReadSinks(plans);
    const double seconds = SecondsBetween(t0, Clock::now());
    tracer.set_on(false);
    if (!st.ok()) {
      report->Fail("parallel run: " + st.ToString());
      return false;
    }
    CheckReference(plans, reference, "par2 pass", report);
    times.par2_s.push_back(seconds);
    return true;
  };

  // Recovery, timed: rebuild, Restore the checkpoint, replay the rest,
  // Finish; the output must equal the uninterrupted run's.
  auto recover = [&] {
    recover_cpu.Next();
    static const int kRestore = SpanName("io.restore");
    tracer.set_on(options.trace);
    const Clock::time_point t0 = Clock::now();
    std::vector<Plan> plans = BuildPlans();
    bool ok = true;
    for (size_t p = 0; ok && p < plans.size(); ++p) {
      Span span(kRestore);
      Status st = plans[p].Restore(checkpoint[p]);
      if (!st.ok()) {
        report->Fail(plans[p].name + " restore: " + st.ToString());
        ok = false;
      }
    }
    report->attempted += suffix;
    ok = ok && SerialRun(in, cut, &plans, nullptr, report) >= 0;
    const double seconds = SecondsBetween(t0, Clock::now());
    tracer.set_on(false);
    if (!ok) return false;
    CheckReference(plans, reference, "recovered run", report);
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
  for (const std::string& name : RelationalPlanNames()) {
    report->Set("ops.push_ms." + name, layers.MedianOf("ops.push." + name),
                "ms");
  }
  report->Set("sink.materialize_ms", layers.MedianOf("sink.materialize"),
              "ms");
  report->Set("parallel.efficiency",
              Median(busy_ms) / (2.0 * 1e3 * Median(times.par2_s)), "ratio");
  report->Set("parallel.par2_events_per_s", times.Par2EventsPerS(), "1/s");
  report->Set("trace.events_per_s", n / Median(traced_s), "1/s");
  report->Set("trace.overhead_frac",
              Median(traced_s) / Median(times.serial_s) - 1.0, "ratio");
  PrintTopSelfTime("relational_mix", 0, tracer.size(), 12);
}

}  // namespace perfbench
