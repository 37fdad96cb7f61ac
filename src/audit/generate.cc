#include "audit/generate.h"

#include <algorithm>

#include "common/format.h"

namespace cedr {
namespace audit {

SchemaPtr KvSchema() {
  static const SchemaPtr schema =
      Schema::Make({{"k", ValueType::kInt64}, {"v", ValueType::kInt64}});
  return schema;
}

SchemaPtr KvdSchema() {
  static const SchemaPtr schema =
      Schema::Make({{"k", ValueType::kInt64}, {"v", ValueType::kDouble}});
  return schema;
}

SchemaPtr SchemaByName(const std::string& name) {
  if (name == "kv") return KvSchema();
  if (name == "kvd") return KvdSchema();
  return nullptr;
}

std::string SchemaName(const SchemaPtr& schema) {
  if (schema == nullptr) return "";
  if (schema->Equals(*KvSchema())) return "kv";
  if (schema->Equals(*KvdSchema())) return "kvd";
  return "";
}

Row KvRow(int64_t k, int64_t v) {
  return Row(KvSchema(), {Value(k), Value(v)});
}

Row KvdRow(int64_t k, double v) {
  return Row(KvdSchema(), {Value(k), Value(v)});
}

std::vector<Message> GenerateStream(Rng* rng, const StreamConfig& config,
                                    EventId first_id) {
  std::vector<Message> out;
  Time t = 1;
  for (int i = 0; i < config.events; ++i) {
    t = TimeAdd(t, rng->NextInt(0, 3));
    Time vs = t;
    Time ve =
        TimeAdd(vs, rng->NextInt(1, std::max<Time>(2, config.horizon / 4)));
    int64_t k = rng->NextInt(0, config.keys - 1);
    Row payload = config.double_values
                      ? KvdRow(k, static_cast<double>(rng->NextInt(0, 100)) / 4)
                      : KvRow(k, rng->NextInt(0, 100));
    Event e = MakeEvent(first_id + static_cast<EventId>(i), vs, ve, payload);
    out.push_back(InsertOf(e, vs));
    if (rng->NextBool(config.retract_fraction)) {
      Time new_ve = rng->NextBool(0.3) ? vs : TimeAdd(vs, (ve - vs) / 2);
      out.push_back(RetractOf(e, new_ve, vs));
    }
  }
  // Order by sync time and stamp monotone arrival timestamps; the
  // well-formed ordered stream is the input ApplyDisorder expects.
  std::stable_sort(out.begin(), out.end(),
                   [](const Message& a, const Message& b) {
                     return a.SyncTime() < b.SyncTime();
                   });
  Time cs = 1;
  for (Message& m : out) {
    m.cs = std::max(cs, m.SyncTime());
    if (m.kind == MessageKind::kInsert) m.event.cs = m.cs;
    cs = m.cs;
  }
  return out;
}

namespace {

/// Query templates over event types A, B, C (each with the kv schema)
/// covering SEQUENCE, NOT, ATLEAST, ALL, ANY, ATMOST, UNLESS, UNLESS',
/// CANCEL-WHEN plus predicates, output projection and temporal slices.
const std::vector<std::string>& QueryTemplates() {
  static const std::vector<std::string> templates = {
      "EVENT Q WHEN SEQUENCE(A AS x, B AS y, 20) WHERE {x.k = y.k}",
      "EVENT Q WHEN SEQUENCE(A AS x, B AS y, C AS z, 30)",
      "EVENT Q WHEN SEQUENCE(A AS x, B AS y, 25) WHERE {x.k = y.k} "
      "OUTPUT x.k AS k, y.v AS v",
      "EVENT Q WHEN ATLEAST(2, A, B, C, 25)",
      "EVENT Q WHEN ALL(A AS x, B AS y, 20) WHERE {x.k = y.k}",
      "EVENT Q WHEN ANY(A, B)",
      "EVENT Q WHEN UNLESS(SEQUENCE(A AS x, B AS y, 20), C AS z, 10) "
      "WHERE {x.k = z.k}",
      "EVENT Q WHEN NOT(C AS z, SEQUENCE(A AS x, B AS y, 25)) "
      "WHERE {x.k = y.k}",
      "EVENT Q WHEN SEQUENCE(A, B, 40) #[5, 45)",
      "EVENT Q WHEN SEQUENCE(A AS x, B AS y, 20) WHERE {x.v < y.v}",
      "EVENT Q WHEN CANCEL-WHEN(SEQUENCE(A AS x, B AS y, 25), C AS z) "
      "WHERE {x.k = z.k}",
      "EVENT Q WHEN UNLESS(SEQUENCE(A AS x, B AS y, 20), C AS z, 1, 10) "
      "WHERE {x.k = z.k}",
      // Chained correlation: SEQUENCE binds every port, so the planner
      // partitions it; ATLEAST(2) matches {x, z} without comparing them,
      // so it must not.
      "EVENT Q WHEN ATLEAST(2, A AS x, B AS y, C AS z, 25) "
      "WHERE {x.k = y.k} AND {y.k = z.k}",
      "EVENT Q WHEN SEQUENCE(A AS x, B AS y, C AS z, 30) "
      "WHERE {x.k = y.k} AND {y.k = z.k}",
      // ATMOST pools its ports: every arrival counts against the window,
      // and the predicate filters what the pool sees.
      "EVENT Q WHEN ATMOST(1, A, B, 10)",
      "EVENT Q WHEN ATMOST(1, A AS x, B AS y, 10) WHERE {x.k = 1}",
      // Nested positive arms: a negation's window reaches back as far as
      // its whole arm does (plan::Reach), not its child's own scope.
      "EVENT Q WHEN UNLESS(UNLESS(SEQUENCE(A AS x, B AS y, 25), C AS z, 5), "
      "C AS w, 1, 10) WHERE {x.k = w.k}",
      "EVENT Q WHEN NOT(C AS z, SEQUENCE(SEQUENCE(A AS x, B AS y, 10), "
      "B AS u, 20)) WHERE {x.k = z.k}",
      // Contributors sit in declaration order, whichever arrives first:
      // OUTPUT, an enclosing predicate and an UNLESS' anchor read them
      // by position.
      "EVENT Q WHEN ALL(A AS x, B AS y, 20) OUTPUT x.k AS xk, y.v AS yv",
      "EVENT Q WHEN SEQUENCE(ALL(A AS x, B AS y, 10), C AS z, 30) "
      "WHERE {x.k = z.k}",
      "EVENT Q WHEN UNLESS(ATLEAST(2, A AS x, B AS y, 20), C AS z, 2, 10) "
      "WHERE {y.k = z.k}",
      "EVENT Q WHEN UNLESS(UNLESS(SEQUENCE(A AS x, B AS y, C AS u, 30), "
      "C AS z, 5), C AS w, 2, 10) WHERE {y.k = w.k}",
  };
  return templates;
}

}  // namespace

AuditCase GenerateCase(uint64_t seed, uint64_t index) {
  Rng rng(SplitMix64(seed ^ SplitMix64(index + 1)));
  AuditCase c;
  c.name = StrCat("fuzz-", seed, "-", index);

  // Consistency spec: strong / middle / weak(M).
  Duration weak_memory = 0;
  switch (rng.NextBounded(3)) {
    case 0:
      c.spec = ConsistencySpec::Strong();
      break;
    case 1:
      c.spec = ConsistencySpec::Middle();
      break;
    default:
      weak_memory = rng.NextInt(8, 40);
      c.spec = ConsistencySpec::Weak(weak_memory);
      break;
  }

  // Schedule: disorder within bounds; weak specs keep the maximum delay
  // within the memory bound so repairs usually stay possible.
  c.schedule.disorder.disorder_fraction =
      static_cast<double>(rng.NextBounded(5)) / 10.0;  // 0 .. 0.4
  c.schedule.disorder.max_delay = rng.NextInt(0, 12);
  if (c.spec.IsWeak()) {
    c.schedule.disorder.max_delay =
        std::min<Duration>(c.schedule.disorder.max_delay, weak_memory / 2);
  }
  c.schedule.disorder.cti_period = rng.NextInt(5, 20);
  c.schedule.disorder.seed = SplitMix64(seed + index);

  // Target: a registry operator or a query template.
  const bool single_op = rng.NextBool(0.5);
  StreamConfig stream_config;
  stream_config.events = static_cast<int>(rng.NextInt(10, 40));
  stream_config.horizon = rng.NextInt(40, 80);
  stream_config.keys = static_cast<int>(rng.NextInt(2, 5));
  stream_config.retract_fraction =
      static_cast<double>(rng.NextBounded(4)) / 10.0;  // 0 .. 0.3

  if (single_op) {
    const auto& registry = OpRegistry();
    auto it = registry.begin();
    std::advance(it, rng.NextBounded(registry.size()));
    c.op_name = it->first;
    stream_config.double_values = it->second.input_schema == "kvd";
    for (int port = 0; port < it->second.num_inputs; ++port) {
      EventId base = 1 + static_cast<EventId>(port) * 100000;
      c.inputs.push_back({StrCat("in", port),
                          GenerateStream(&rng, stream_config, base)});
    }
    // Engine-level schedules (parallel, switch) have no single-op
    // realization; batched push does.
    switch (rng.NextBounded(4)) {
      case 0:
        c.schedule.mode = ExecMode::kSnapshotRestore;
        break;
      case 1:
      case 2: {
        c.schedule.mode = ExecMode::kBatch;
        static constexpr size_t kBatchSizes[] = {1, 3, 16, 64, 256};
        c.schedule.batch_size = kBatchSizes[rng.NextBounded(5)];
        break;
      }
      default:
        c.schedule.mode = ExecMode::kSerial;
        break;
    }
  } else {
    const auto& templates = QueryTemplates();
    c.query_text = templates[rng.NextBounded(templates.size())];
    c.catalog = {{"A", KvSchema()}, {"B", KvSchema()}, {"C", KvSchema()}};
    EventId base = 1;
    for (const char* type : {"A", "B", "C"}) {
      c.inputs.push_back({type, GenerateStream(&rng, stream_config, base)});
      base += 100000;
    }
    switch (rng.NextBounded(5)) {
      case 0:
        c.schedule.mode = ExecMode::kSerial;
        break;
      case 1:
        c.schedule.mode = ExecMode::kParallel;
        c.schedule.workers = static_cast<int>(rng.NextInt(2, 4));
        break;
      case 2:
        c.schedule.mode = ExecMode::kSnapshotRestore;
        c.schedule.snapshot_at =
            static_cast<double>(rng.NextInt(2, 8)) / 10.0;
        break;
      case 3: {
        c.schedule.mode = ExecMode::kBatch;
        static constexpr size_t kBatchSizes[] = {1, 3, 16, 64, 256};
        c.schedule.batch_size = kBatchSizes[rng.NextBounded(5)];
        break;
      }
      default:
        // Consistency switches require M = inf on every segment so the
        // spliced stream still converges to the ideal.
        c.schedule.mode = ExecMode::kSwitchLevels;
        if (c.spec.IsWeak()) c.spec = ConsistencySpec::Middle();
        c.schedule.switches = {
            {0.3, rng.NextBool(0.5) ? ConsistencySpec::Strong()
                                    : ConsistencySpec::Middle()},
            {0.7, rng.NextBool(0.5) ? ConsistencySpec::Middle()
                                    : ConsistencySpec::Strong()}};
        break;
    }
  }
  return c;
}

}  // namespace audit
}  // namespace cedr
