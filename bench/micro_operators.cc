// Operator throughput microbenchmarks (google-benchmark): the
// quantitative backing for Section 5's performance discussion - cost of
// each operator per event, as a function of consistency level and
// disorder.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "engine/query.h"
#include "engine/sink.h"
#include "engine/source.h"
#include "ops/alter_lifetime.h"
#include "ops/groupby.h"
#include "ops/join.h"
#include "ops/project.h"
#include "ops/select.h"
#include "pattern/negation.h"
#include "pattern/sequence.h"
#include "workload/disorder.h"
#include "workload/machines.h"

// Every allocation in this binary is counted, so a benchmark can report
// allocations per input event over the part of its loop it brackets.
namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

// Not inlined, so the compiler pairs each delete with this new rather
// than with the malloc inside it.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace cedr {
namespace {

SchemaPtr KvSchema() {
  static const SchemaPtr kSchema = Schema::Make(
      {{"key", ValueType::kInt64}, {"value", ValueType::kInt64}});
  return kSchema;
}

std::vector<Message> MakeStream(int n, int keys, double disorder,
                                uint64_t seed) {
  Rng rng(seed);
  std::vector<Message> ordered;
  ordered.reserve(n);
  Time t = 1;
  for (int i = 0; i < n; ++i) {
    t += rng.NextInt(0, 2);
    Row payload(KvSchema(),
                {Value(rng.NextInt(0, keys - 1)), Value(rng.NextInt(0, 99))});
    ordered.push_back(
        InsertOf(MakeEvent(static_cast<EventId>(i + 1), t, t + 10, payload)));
  }
  DisorderConfig config;
  config.disorder_fraction = disorder;
  config.max_delay = disorder > 0 ? 20 : 0;
  config.cti_period = 16;
  config.seed = seed;
  return ApplyDisorder(ordered, config);
}

ConsistencySpec SpecFor(int level) {
  switch (level) {
    case 0:
      return ConsistencySpec::Strong();
    case 1:
      return ConsistencySpec::Middle();
    default:
      return ConsistencySpec::Weak(30);
  }
}

AttributeComparison ValueGt50() {
  AttributeComparison c;
  c.left_contributor = 0;
  c.left_attribute = "value";
  c.right_contributor = -1;
  c.constant = Value(int64_t{50});
  c.op = AttributeComparison::Op::kGt;
  return c;
}

// --- Structured Select/Project forms ------------------------------
//
// The planner's structured forms (a WHERE-clause comparison list and an
// OUTPUT-stage gather) pushed per event over an ordered stream.

void BM_SelectStructuredScalar(benchmark::State& state) {
  auto input = MakeStream(4096, 16, 0.0, 7);
  for (auto _ : state) {
    SelectOp op(std::vector<AttributeComparison>{ValueGt50()},
                ConsistencySpec::Middle());
    CollectingSink sink;
    op.ConnectTo(&sink, 0);
    for (const Message& m : input) benchmark::DoNotOptimize(op.Push(0, m));
    benchmark::DoNotOptimize(op.Drain());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(input.size()));
}
BENCHMARK(BM_SelectStructuredScalar);

void BM_ProjectScalar(benchmark::State& state) {
  auto input = MakeStream(4096, 16, 0.0, 31);
  SchemaPtr out_schema = Schema::Make(
      {{"value", ValueType::kInt64}, {"key", ValueType::kInt64}});
  for (auto _ : state) {
    ProjectOp op(std::vector<int>{1, 0}, out_schema,
                 ConsistencySpec::Middle());
    CollectingSink sink;
    op.ConnectTo(&sink, 0);
    for (const Message& m : input) benchmark::DoNotOptimize(op.Push(0, m));
    benchmark::DoNotOptimize(op.Drain());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(input.size()));
}
BENCHMARK(BM_ProjectScalar);

void BM_Select(benchmark::State& state) {
  auto input = MakeStream(4096, 16, state.range(0) / 100.0, 7);
  for (auto _ : state) {
    SelectOp op([](const Row& r) { return r.at(1).AsInt64() > 50; },
                SpecFor(static_cast<int>(state.range(1))));
    CollectingSink sink;
    op.ConnectTo(&sink, 0);
    for (const Message& m : input) benchmark::DoNotOptimize(op.Push(0, m));
    benchmark::DoNotOptimize(op.Drain());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(input.size()));
}
BENCHMARK(BM_Select)
    ->ArgsProduct({{0, 50}, {0, 1, 2}})
    ->ArgNames({"disorder%", "level"});

void BM_Window(benchmark::State& state) {
  auto input = MakeStream(4096, 16, state.range(0) / 100.0, 11);
  for (auto _ : state) {
    auto op = MakeSlidingWindowOp(5, SpecFor(1));
    CollectingSink sink;
    op->ConnectTo(&sink, 0);
    for (const Message& m : input) benchmark::DoNotOptimize(op->Push(0, m));
    benchmark::DoNotOptimize(op->Drain());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(input.size()));
}
BENCHMARK(BM_Window)->Arg(0)->Arg(50)->ArgName("disorder%");

void BM_EquiJoin(benchmark::State& state) {
  auto left = MakeStream(2048, 32, state.range(0) / 100.0, 13);
  auto right = MakeStream(2048, 32, state.range(0) / 100.0, 17);
  auto theta = [](const Row& l, const Row& r) { return l.at(0) == r.at(0); };
  for (auto _ : state) {
    JoinOp op(theta, nullptr, SpecFor(static_cast<int>(state.range(1))));
    op.SetEquiKeys([](const Row& r) { return r.at(0); },
                   [](const Row& r) { return r.at(0); });
    CollectingSink sink;
    op.ConnectTo(&sink, 0);
    size_t li = 0, ri = 0;
    while (li < left.size() || ri < right.size()) {
      bool take_left =
          ri >= right.size() ||
          (li < left.size() && left[li].cs <= right[ri].cs);
      if (take_left) {
        benchmark::DoNotOptimize(op.Push(0, left[li++]));
      } else {
        benchmark::DoNotOptimize(op.Push(1, right[ri++]));
      }
    }
    benchmark::DoNotOptimize(op.Drain());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(left.size() + right.size()));
}
BENCHMARK(BM_EquiJoin)
    ->ArgsProduct({{0, 50}, {0, 1}})
    ->ArgNames({"disorder%", "level"});

void BM_GroupByCount(benchmark::State& state) {
  auto input = MakeStream(2048, 8, state.range(0) / 100.0, 19);
  SchemaPtr schema = Schema::Make(
      {{"key", ValueType::kInt64}, {"count", ValueType::kInt64}});
  std::vector<AggregateSpec> aggs = {
      AggregateSpec{AggregateKind::kCount, "", "count"}};
  for (auto _ : state) {
    GroupByAggregateOp op({"key"}, aggs, schema,
                          SpecFor(static_cast<int>(state.range(1))));
    CollectingSink sink;
    op.ConnectTo(&sink, 0);
    for (const Message& m : input) benchmark::DoNotOptimize(op.Push(0, m));
    benchmark::DoNotOptimize(op.Drain());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(input.size()));
}
BENCHMARK(BM_GroupByCount)
    ->ArgsProduct({{0, 50}, {0, 1}})
    ->ArgNames({"disorder%", "level"});

void BM_SequenceDetect(benchmark::State& state) {
  workload::MachineConfig config;
  config.num_machines = 32;
  config.num_sessions = 1024;
  config.max_session_length = 30;
  config.session_interval = 3;
  auto streams = workload::GenerateMachineEvents(config);
  DisorderConfig dconfig;
  dconfig.disorder_fraction = state.range(0) / 100.0;
  dconfig.max_delay = state.range(0) > 0 ? 15 : 0;
  dconfig.cti_period = 12;
  auto installs = ApplyDisorder(streams.installs, dconfig);
  dconfig.seed = 43;
  auto shutdowns = ApplyDisorder(streams.shutdowns, dconfig);

  auto pred = [](const std::vector<const Event*>& t,
                 const std::vector<int>&) {
    if (t.size() < 2) return true;
    return t[0]->payload.at(0) == t[1]->payload.at(0);
  };
  // Partitioned by Machine_Id on both ports, as the planner builds a
  // correlated SEQUENCE (construct 0) or ALL (construct 1).
  const FieldSlot machine(workload::MachineEventSchema(), "Machine_Id");
  const bool ordered = state.range(2) == 0;
  for (auto _ : state) {
    PatternOp op(2, ordered, 2, 30, pred, {}, nullptr,
                 SpecFor(static_cast<int>(state.range(1))),
                 {machine, machine});
    CollectingSink sink;
    op.ConnectTo(&sink, 0);
    size_t li = 0, ri = 0;
    while (li < installs.size() || ri < shutdowns.size()) {
      bool take_left = ri >= shutdowns.size() ||
                       (li < installs.size() &&
                        installs[li].cs <= shutdowns[ri].cs);
      if (take_left) {
        benchmark::DoNotOptimize(op.Push(0, installs[li++]));
      } else {
        benchmark::DoNotOptimize(op.Push(1, shutdowns[ri++]));
      }
    }
    benchmark::DoNotOptimize(op.Drain());
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<int64_t>(installs.size() + shutdowns.size()));
}
BENCHMARK(BM_SequenceDetect)
    ->ArgsProduct({{0, 50}, {0, 1}, {0, 1}})
    ->ArgNames({"disorder%", "level", "construct"});

void BM_UnlessDetect(benchmark::State& state) {
  auto positives = MakeStream(2048, 8, 0.3, 23);
  auto blockers = MakeStream(512, 8, 0.3, 29);
  for (auto _ : state) {
    NegationOp op(NegationWindow::Unless(10), nullptr,
                  SpecFor(static_cast<int>(state.range(0))));
    CollectingSink sink;
    op.ConnectTo(&sink, 0);
    size_t li = 0, ri = 0;
    while (li < positives.size() || ri < blockers.size()) {
      bool take_left = ri >= blockers.size() ||
                       (li < positives.size() &&
                        positives[li].cs <= blockers[ri].cs);
      if (take_left) {
        benchmark::DoNotOptimize(op.Push(0, positives[li++]));
      } else {
        benchmark::DoNotOptimize(op.Push(1, blockers[ri++]));
      }
    }
    benchmark::DoNotOptimize(op.Drain());
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<int64_t>(positives.size() + blockers.size()));
}
BENCHMARK(BM_UnlessDetect)->DenseRange(0, 2)->ArgName("level");

// ATMOST(10, A, 10): every arrival is both a blocker and a candidate,
// and about ten events share a window, so adding or removing one
// recounts its neighbours' pools.
void BM_AtMostDetect(benchmark::State& state) {
  auto input = MakeStream(4096, 8, 0.3, 31);
  for (auto _ : state) {
    NegationOp op(NegationWindow::AtMost(10, 10), nullptr,
                  SpecFor(static_cast<int>(state.range(0))),
                  /*num_inputs=*/1);
    CollectingSink sink;
    op.ConnectTo(&sink, 0);
    for (const Message& m : input) benchmark::DoNotOptimize(op.Push(0, m));
    benchmark::DoNotOptimize(op.Drain());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(input.size()));
}
BENCHMARK(BM_AtMostDetect)->DenseRange(0, 2)->ArgName("level");

// The Section 3.1 query's shape as the planner builds it: UNLESS over a
// SEQUENCE partitioned by Machine_Id, compiled from the language and fed
// the disordered machine workload in arrival order. Reports allocations
// per input message, counted over the pushes and the final drain.
void BM_UnlessOfSequence(benchmark::State& state) {
  workload::MachineConfig config;
  config.num_machines = 12;
  config.num_sessions = 800;
  config.max_session_length = 60;
  config.restart_scope = 12;
  config.session_interval = 4;
  workload::MachineStreams streams = workload::GenerateMachineEvents(config);
  DisorderConfig disorder;
  disorder.disorder_fraction = 0.25;
  disorder.max_delay = 12;
  disorder.cti_period = 20;
  const std::vector<TypedMessage> input =
      MergeByArrival({{"INSTALL", ApplyDisorder(streams.installs, disorder)},
                      {"SHUTDOWN", ApplyDisorder(streams.shutdowns, disorder)},
                      {"RESTART", ApplyDisorder(streams.restarts, disorder)}});
  const std::string text =
      "EVENT CIDR07_Example\n"
      "WHEN UNLESS(SEQUENCE(INSTALL AS x, SHUTDOWN AS y, 80),\n"
      "            RESTART AS z, 12)\n"
      "WHERE {x.Machine_Id = y.Machine_Id} AND\n"
      "      {x.Machine_Id = z.Machine_Id}";
  const auto catalog = workload::MachineCatalog();
  const ConsistencySpec spec = SpecFor(static_cast<int>(state.range(0)));
  uint64_t allocations = 0;
  for (auto _ : state) {
    auto query = CompiledQuery::Compile(text, catalog, spec).ValueOrDie();
    const uint64_t before = g_allocations.load(std::memory_order_relaxed);
    benchmark::DoNotOptimize(query->PushBatch(input));
    benchmark::DoNotOptimize(query->Finish());
    allocations += g_allocations.load(std::memory_order_relaxed) - before;
  }
  const double events = static_cast<double>(state.iterations()) *
                        static_cast<double>(input.size());
  state.SetItemsProcessed(static_cast<int64_t>(events));
  state.counters["allocs_per_event"] =
      static_cast<double>(allocations) / events;
}
BENCHMARK(BM_UnlessOfSequence)->DenseRange(0, 1)->ArgName("level");

}  // namespace
}  // namespace cedr
