// Microbenchmarks of the temporal-model primitives: canonicalization,
// logical equivalence, coalescing, alignment.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "engine/query.h"
#include "engine/source.h"
#include "ops/alignment_buffer.h"
#include "pattern/predicate.h"
#include "stream/canonical.h"
#include "stream/coalesce.h"
#include "stream/equivalence.h"
#include "stream/sync.h"
#include "workload/machines.h"

namespace cedr {
namespace {

HistoryTable RandomHistory(int groups, int retractions_per_group,
                           uint64_t seed) {
  Rng rng(seed);
  HistoryTable table;
  Time cs = 1;
  for (int k = 0; k < groups; ++k) {
    Time os = rng.NextInt(0, 1000);
    Time oe = TimeAdd(os, rng.NextInt(10, 100));
    for (int r = 0; r <= retractions_per_group; ++r) {
      Event e = MakeBitemporalEvent(static_cast<EventId>(k), 1, kInfinity,
                                    os, oe);
      e.k = static_cast<uint64_t>(k);
      e.cs = cs++;
      table.Add(e);
      oe = std::max(os, oe - rng.NextInt(1, 10));
    }
  }
  return table;
}

void BM_Reduce(benchmark::State& state) {
  HistoryTable table =
      RandomHistory(static_cast<int>(state.range(0)), 3, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Reduce(table));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(table.size()));
}
BENCHMARK(BM_Reduce)->Range(64, 4096);

void BM_CanonicalTo(benchmark::State& state) {
  HistoryTable table =
      RandomHistory(static_cast<int>(state.range(0)), 3, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CanonicalTo(table, 500));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(table.size()));
}
BENCHMARK(BM_CanonicalTo)->Range(64, 4096);

void BM_LogicalEquivalence(benchmark::State& state) {
  HistoryTable a = RandomHistory(static_cast<int>(state.range(0)), 3, 3);
  HistoryTable b = a;  // identical content
  for (auto _ : state) {
    benchmark::DoNotOptimize(LogicallyEquivalent(a, b));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(a.size()));
}
BENCHMARK(BM_LogicalEquivalence)->Range(64, 2048);

void BM_SyncPointDensity(benchmark::State& state) {
  HistoryTable table =
      RandomHistory(static_cast<int>(state.range(0)), 1, 4);
  AnnotatedTable annotated = AnnotatedTable::FromHistory(table);
  for (auto _ : state) {
    benchmark::DoNotOptimize(annotated.SyncPointDensity());
  }
}
BENCHMARK(BM_SyncPointDensity)->Range(64, 1024);

void BM_Coalesce(benchmark::State& state) {
  Rng rng(5);
  std::vector<Event> events;
  SchemaPtr schema = Schema::Make({{"v", ValueType::kInt64}});
  for (int i = 0; i < state.range(0); ++i) {
    Time vs = rng.NextInt(0, 500);
    events.push_back(MakeEvent(static_cast<EventId>(i + 1), vs,
                               vs + rng.NextInt(1, 20),
                               Row(schema, {Value(rng.NextInt(0, 10))})));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(Star(events));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(events.size()));
}
BENCHMARK(BM_Coalesce)->Range(64, 4096);

// Disordered inserts with a CTI after every 16th, in arrival order. With
// `retract_every` > 0, each insert whose id that divides is followed at
// once by a partial retraction of it, which the buffer usually still
// holds the insert for: the merge scan runs.
std::vector<Message> AlignmentInput(int retract_every, Time* last) {
  Rng rng(6);
  std::vector<Message> input;
  Time t = 1;
  for (int i = 0; i < 4096; ++i) {
    t += rng.NextInt(0, 2);
    Time delayed = t + (rng.NextBool(0.5) ? rng.NextInt(0, 20) : 0);
    input.push_back(InsertOf(
        MakeEvent(static_cast<EventId>(i + 1), t, t + 5), delayed));
    if (i % 16 == 15) input.push_back(CtiOf(t - 25, delayed + 1));
  }
  std::sort(input.begin(), input.end(),
            [](const Message& a, const Message& b) { return a.cs < b.cs; });
  *last = t;
  if (retract_every == 0) return input;
  std::vector<Message> with_retractions;
  for (const Message& m : input) {
    with_retractions.push_back(m);
    if (m.kind == MessageKind::kInsert && m.event.id % retract_every == 0) {
      with_retractions.push_back(
          RetractOf(m.event, TimeAdd(m.event.vs, 2), m.cs));
    }
  }
  return with_retractions;
}

void RunAlignment(benchmark::State& state, int retract_every) {
  Time last = 0;
  const std::vector<Message> input = AlignmentInput(retract_every, &last);
  for (auto _ : state) {
    AlignmentBuffer buffer(state.range(0) == 0 ? kInfinity
                                               : state.range(0));
    std::vector<Message> released;
    for (const Message& m : input) {
      buffer.Offer(m, m.cs, &released);
      released.clear();
    }
    buffer.Drain(last + 100, &released);
    benchmark::DoNotOptimize(released);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(input.size()));
}

void BM_AlignmentBuffer(benchmark::State& state) { RunAlignment(state, 0); }
BENCHMARK(BM_AlignmentBuffer)->Arg(0)->Arg(10)->Arg(40)->ArgName("B");

// About one message in ten retracts an insert offered just before it.
void BM_AlignmentBufferRetract(benchmark::State& state) {
  RunAlignment(state, 9);
}
BENCHMARK(BM_AlignmentBufferRetract)->Arg(0)->Arg(10)->Arg(40)->ArgName("B");

// --- Row primitives (join hot path) ---------------------------------

std::vector<Row> RandomRows(int n, uint64_t seed) {
  Rng rng(seed);
  SchemaPtr schema = Schema::Make({{"key", ValueType::kInt64},
                                   {"name", ValueType::kString},
                                   {"value", ValueType::kDouble}});
  std::vector<Row> rows;
  rows.reserve(n);
  for (int i = 0; i < n; ++i) {
    rows.emplace_back(
        schema,
        std::vector<Value>{Value(rng.NextInt(0, 1000)),
                           Value(std::string("sym") +
                                 std::to_string(rng.NextInt(0, 50))),
                           Value(static_cast<double>(rng.NextInt(0, 1
                                                                 << 20)))});
  }
  return rows;
}

void BM_RowHashCold(benchmark::State& state) {
  // Fresh rows every round: measures the actual hash computation (the
  // memo cache never helps).
  std::vector<Row> rows = RandomRows(static_cast<int>(state.range(0)), 31);
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<Row> fresh;
    fresh.reserve(rows.size());
    for (const Row& r : rows) {
      fresh.emplace_back(r.schema(), std::vector<Value>(r.values().begin(),
                                                        r.values().end()));
    }
    state.ResumeTiming();
    size_t acc = 0;
    for (const Row& r : fresh) acc ^= r.Hash();
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(rows.size()));
}
BENCHMARK(BM_RowHashCold)->Arg(1024);

void BM_RowHashMemoized(benchmark::State& state) {
  // Re-hashing the same rows: the memoized fast path a join hits every
  // time an event is probed or re-bucketed.
  std::vector<Row> rows = RandomRows(static_cast<int>(state.range(0)), 31);
  for (const Row& r : rows) benchmark::DoNotOptimize(r.Hash());  // warm
  for (auto _ : state) {
    size_t acc = 0;
    for (const Row& r : rows) acc ^= r.Hash();
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(rows.size()));
}
BENCHMARK(BM_RowHashMemoized)->Arg(1024);

void BM_RowEquality(benchmark::State& state) {
  std::vector<Row> rows = RandomRows(static_cast<int>(state.range(0)), 31);
  std::vector<Row> copies = rows;
  for (auto _ : state) {
    int equal = 0;
    for (size_t i = 0; i < rows.size(); ++i) {
      equal += rows[i] == copies[i] ? 1 : 0;
    }
    benchmark::DoNotOptimize(equal);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(rows.size()));
}
BENCHMARK(BM_RowEquality)->Arg(1024);

// --- Batch vs single Push through a compiled query ------------------

std::vector<std::pair<std::string, Message>> QueryFeed(int sessions) {
  workload::MachineConfig config;
  config.num_machines = 8;
  config.num_sessions = sessions;
  config.max_session_length = 60;
  config.restart_scope = 12;
  config.session_interval = 4;
  config.seed = 9;
  workload::MachineStreams streams =
      workload::GenerateMachineEvents(config);
  return MergeByArrival({{"INSTALL", streams.installs},
                         {"SHUTDOWN", streams.shutdowns},
                         {"RESTART", streams.restarts}});
}

std::unique_ptr<CompiledQuery> FeedQuery() {
  return CompiledQuery::Compile(workload::Cidr07ExampleQuery(),
                                workload::MachineCatalog(),
                                ConsistencySpec::Middle())
      .ValueOrDie();
}

void BM_QueryPushSingle(benchmark::State& state) {
  auto feed = QueryFeed(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    state.PauseTiming();
    auto query = FeedQuery();
    state.ResumeTiming();
    for (const auto& [type, msg] : feed) {
      Status st = query->Push(type, msg);
      benchmark::DoNotOptimize(st.ok());
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(feed.size()));
}
BENCHMARK(BM_QueryPushSingle)->Arg(400);

void BM_QueryPushBatch(benchmark::State& state) {
  auto feed = QueryFeed(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    state.PauseTiming();
    auto query = FeedQuery();
    state.ResumeTiming();
    Status st = query->PushBatch(feed);
    benchmark::DoNotOptimize(st.ok());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(feed.size()));
}
BENCHMARK(BM_QueryPushBatch)->Arg(400);

// --- Per-event payload access --------------------------------------
//
// The selection/projection/aggregation inner loops in isolation: 4096
// rows evaluated the way the operators read them (field lookup by name,
// `Value` variant dispatch, per-row `Row` construction). The
// BM_SelectStructuredScalar/BM_ProjectScalar/BM_GroupByCount benches in
// micro_operators measure the same work through the full operator
// (monitor bookkeeping and sink included).

SchemaPtr KernelSchema() {
  static const SchemaPtr schema = Schema::Make(
      {{"key", ValueType::kInt64}, {"value", ValueType::kInt64}});
  return schema;
}

std::vector<Message> KernelStream(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Message> out;
  out.reserve(n);
  for (int i = 0; i < n; ++i) {
    Row payload(KernelSchema(), {Value(rng.NextInt(0, 15)),
                                 Value(rng.NextInt(0, 99))});
    Event e = MakeEvent(static_cast<EventId>(i + 1), i + 1, i + 11,
                        std::move(payload));
    e.cs = i + 1;
    out.push_back(InsertOf(std::move(e), i + 1));
  }
  return out;
}

void BM_SelectionKernelScalar(benchmark::State& state) {
  auto msgs = KernelStream(4096, 3);
  AttributeComparison c;
  c.left_contributor = 0;
  c.left_attribute = "value";
  c.right_contributor = -1;
  c.constant = Value(int64_t{50});
  c.op = AttributeComparison::Op::kGt;
  for (auto _ : state) {
    int passed = 0;
    for (const Message& m : msgs) {
      // What SelectOp's scalar path does per event: a one-event tuple
      // through the structured comparison (name lookup + variant compare).
      Event tmp;
      tmp.payload = m.event.payload;
      std::vector<const Event*> tuple = {&tmp};
      passed += c.Evaluate(tuple) ? 1 : 0;
    }
    benchmark::DoNotOptimize(passed);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(msgs.size()));
}
BENCHMARK(BM_SelectionKernelScalar);

void BM_ProjectionKernelScalar(benchmark::State& state) {
  auto msgs = KernelStream(4096, 5);
  SchemaPtr out_schema = Schema::Make(
      {{"value", ValueType::kInt64}, {"key", ValueType::kInt64}});
  for (auto _ : state) {
    size_t produced = 0;
    for (const Message& m : msgs) {
      // Per-event gather: a fresh Value vector and Row per row.
      Row out(out_schema,
              {m.event.payload.at(1), m.event.payload.at(0)});
      produced += out.size();
    }
    benchmark::DoNotOptimize(produced);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(msgs.size()));
}
BENCHMARK(BM_ProjectionKernelScalar);

void BM_AggregationKernelScalar(benchmark::State& state) {
  auto msgs = KernelStream(4096, 7);
  for (auto _ : state) {
    int64_t sum = 0;
    for (const Message& m : msgs) {
      // The per-event aggregate input read: field lookup by name, a
      // Result<Value> copy, a variant type check, then the extraction.
      auto v = m.event.payload.Get("value");
      if (v.ok() && v.ValueOrDie().type() == ValueType::kInt64) {
        sum += v.ValueOrDie().AsInt64();
      }
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(msgs.size()));
}
BENCHMARK(BM_AggregationKernelScalar);

}  // namespace
}  // namespace cedr
