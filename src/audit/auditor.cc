#include "audit/auditor.h"

#include <algorithm>

#include "audit/denote.h"
#include "audit/generate.h"
#include "common/format.h"
#include "denotation/relational.h"
#include "engine/executor.h"
#include "engine/query.h"
#include "engine/sink.h"
#include "engine/switching.h"
#include "io/serde.h"
#include "ops/alter_lifetime.h"
#include "ops/difference.h"
#include "ops/groupby.h"
#include "ops/join.h"
#include "ops/project.h"
#include "ops/select.h"
#include "ops/union_op.h"

namespace cedr {
namespace audit {

const char* ExecModeToString(ExecMode mode) {
  switch (mode) {
    case ExecMode::kSerial:
      return "serial";
    case ExecMode::kParallel:
      return "parallel";
    case ExecMode::kSnapshotRestore:
      return "snapshot";
    case ExecMode::kSwitchLevels:
      return "switch";
    case ExecMode::kBatch:
      return "batch";
  }
  return "?";
}

namespace {

SchemaPtr JoinSchema() {
  return Schema::Make({{"l_k", ValueType::kInt64},
                       {"l_v", ValueType::kInt64},
                       {"r_k", ValueType::kInt64},
                       {"r_v", ValueType::kInt64}});
}

SchemaPtr GroupBySchema(ValueType total_type) {
  return Schema::Make({{"k", ValueType::kInt64},
                       {"n", ValueType::kInt64},
                       {"total", total_type}});
}

std::map<std::string, OpSpec> BuildRegistry() {
  std::map<std::string, OpSpec> r;

  r["select"] = OpSpec{
      1, "kv",
      [](const ConsistencySpec& spec) {
        return std::make_unique<SelectOp>(
            [](const Row& row) { return row.at(0).AsInt64() % 2 == 0; }, spec);
      },
      [](const std::vector<EventList>& in) {
        return denotation::Select(in[0], [](const Row& row) {
          return row.at(0).AsInt64() % 2 == 0;
        });
      }};

  r["project"] = OpSpec{
      1, "kv",
      [](const ConsistencySpec& spec) {
        SchemaPtr schema = Schema::Make(
            {{"v", ValueType::kInt64}, {"k", ValueType::kInt64}});
        return std::make_unique<ProjectOp>(
            [schema](const Row& row) {
              return Row(schema, {row.at(1), row.at(0)});
            },
            spec);
      },
      [](const std::vector<EventList>& in) {
        SchemaPtr schema = Schema::Make(
            {{"v", ValueType::kInt64}, {"k", ValueType::kInt64}});
        return denotation::Project(in[0], [schema](const Row& row) {
          return Row(schema, {row.at(1), row.at(0)});
        });
      }};

  r["join"] = OpSpec{
      2, "kv",
      [](const ConsistencySpec& spec) {
        auto op = std::make_unique<JoinOp>(
            [](const Row& l, const Row& r2) {
              return l.at(0).AsInt64() == r2.at(0).AsInt64();
            },
            JoinSchema(), spec);
        op->SetEquiKeys([](const Row& row) { return row.at(0); },
                        [](const Row& row) { return row.at(0); });
        return op;
      },
      [](const std::vector<EventList>& in) {
        return denotation::Join(
            in[0], in[1],
            [](const Row& l, const Row& r2) {
              return l.at(0).AsInt64() == r2.at(0).AsInt64();
            },
            JoinSchema());
      }};

  r["union"] = OpSpec{
      2, "kv",
      [](const ConsistencySpec& spec) {
        return std::make_unique<UnionOp>(spec);
      },
      [](const std::vector<EventList>& in) {
        return denotation::Union(in[0], in[1]);
      }};

  r["difference"] = OpSpec{
      2, "kv",
      [](const ConsistencySpec& spec) {
        return std::make_unique<DifferenceOp>(spec);
      },
      [](const std::vector<EventList>& in) {
        return denotation::Difference(in[0], in[1]);
      }};

  auto groupby_aggs = [] {
    return std::vector<AggregateSpec>{
        {AggregateKind::kCount, "", "n"}, {AggregateKind::kSum, "v", "total"}};
  };
  r["groupby"] = OpSpec{
      1, "kv",
      [groupby_aggs](const ConsistencySpec& spec) {
        return std::make_unique<GroupByAggregateOp>(
            std::vector<std::string>{"k"}, groupby_aggs(),
            GroupBySchema(ValueType::kInt64), spec);
      },
      [groupby_aggs](const std::vector<EventList>& in) {
        return denotation::GroupByAggregate(in[0], {"k"}, groupby_aggs(),
                                            GroupBySchema(ValueType::kInt64));
      }};

  // Same aggregation over (int64, double) payloads: exercises sum's
  // type-preserving accumulator seeding on non-integer columns.
  r["groupby_kvd"] = OpSpec{
      1, "kvd",
      [groupby_aggs](const ConsistencySpec& spec) {
        return std::make_unique<GroupByAggregateOp>(
            std::vector<std::string>{"k"}, groupby_aggs(),
            GroupBySchema(ValueType::kDouble), spec);
      },
      [groupby_aggs](const std::vector<EventList>& in) {
        return denotation::GroupByAggregate(in[0], {"k"}, groupby_aggs(),
                                            GroupBySchema(ValueType::kDouble));
      }};

  r["window"] = OpSpec{
      1, "kv",
      [](const ConsistencySpec& spec) {
        return MakeSlidingWindowOp(25, spec);
      },
      [](const std::vector<EventList>& in) {
        return denotation::SlidingWindow(in[0], 25);
      }};

  r["hopping"] = OpSpec{
      1, "kv",
      [](const ConsistencySpec& spec) {
        return MakeHoppingWindowOp(20, 10, spec);
      },
      [](const std::vector<EventList>& in) {
        return denotation::HoppingWindow(in[0], 20, 10);
      }};

  return r;
}

/// Port of an "in<i>" single-op stream label.
int PortOfLabel(const std::string& label) {
  if (label.rfind("in", 0) != 0) return -1;
  return std::atoi(label.c_str() + 2);
}

/// Strong consistency forbids retractions the runtime *introduces*
/// (speculation under disorder), but source-native retractions are
/// data and flow through in order (see StrongInvariantTest
/// UnionWellBehavedUnderHeavyDisorder). The no-retraction assertion is
/// therefore only sound when the inputs carry none.
bool InputsRetractionFree(const AuditCase& c) {
  for (const LabeledStream& s : c.inputs) {
    for (const Message& m : s.messages) {
      if (m.kind == MessageKind::kRetract) return false;
    }
  }
  return true;
}

/// Byte-exact serialization of a sink's recorded output stream: the
/// kBatch equality claim is bit-identity of every field of every
/// message, not just Star-equality of the converged tables.
std::string SerializeSinkMessages(const CollectingSink& sink) {
  io::BinaryWriter w;
  const std::vector<Message>& msgs = sink.messages();
  w.PutU64(msgs.size());
  for (const Message& m : msgs) io::WriteMessage(&w, m);
  return w.Take();
}

Time LastArrival(const std::vector<LabeledStream>& streams) {
  Time last = 0;
  for (const LabeledStream& s : streams) {
    for (const Message& m : s.messages) last = std::max(last, m.cs);
  }
  return last;
}

struct SingleOpRun {
  std::unique_ptr<Operator> op;
  std::unique_ptr<CollectingSink> sink;

  static SingleOpRun Make(const OpSpec& spec, const ConsistencySpec& level) {
    SingleOpRun r;
    r.op = spec.make(level);
    r.sink = std::make_unique<CollectingSink>();
    r.op->ConnectTo(r.sink.get(), 0);
    return r;
  }

  Status Push(int port, const Message& msg) { return op->Push(port, msg); }

  Status Finish(Time last_cs) {
    for (int port = 0; port < op->num_inputs(); ++port) {
      CEDR_RETURN_NOT_OK(
          op->Push(port, CtiOf(kInfinity, TimeAdd(last_cs, 1))));
    }
    return op->Drain();
  }
};

/// Merged arrival sequence annotated with the target port (single-op
/// mode) resolved from the stream labels.
struct PortMessage {
  int port;
  Message msg;
};

Result<std::vector<PortMessage>> MergePorts(
    const std::vector<LabeledStream>& streams) {
  std::vector<PortMessage> out;
  for (const auto& [label, msg] : MergeByArrival(streams)) {
    int port = PortOfLabel(label);
    if (port < 0) {
      return Status::InvalidArgument(
          StrCat("single-op stream label is not a port: ", label));
    }
    out.push_back({port, msg});
  }
  return out;
}

AuditResult RunSingleOp(const AuditCase& c, const OpSpec& spec,
                        const EventList& oracle) {
  AuditResult result;
  std::vector<LabeledStream> arrival = DifferentialAuditor::ArrivalStreams(c);
  auto merged_r = MergePorts(arrival);
  if (!merged_r.ok()) {
    result.status = merged_r.status();
    result.detail = result.status.ToString();
    return result;
  }
  std::vector<PortMessage> merged = std::move(merged_r).ValueUnsafe();
  Time last_cs = LastArrival(arrival);

  SingleOpRun run = SingleOpRun::Make(spec, c.spec);
  Status st;
  /// kBatch: serialized output of the per-event reference run.
  std::string ref_bytes;
  bool have_ref = false;
  if (c.schedule.mode == ExecMode::kBatch) {
    // Reference: the identical schedule, one message at a time.
    SingleOpRun ref = SingleOpRun::Make(spec, c.spec);
    for (const PortMessage& pm : merged) {
      st = ref.Push(pm.port, pm.msg);
      if (!st.ok()) break;
    }
    if (st.ok()) st = ref.Finish(last_cs);
    if (st.ok()) {
      ref_bytes = SerializeSinkMessages(*ref.sink);
      have_ref = true;
    }
    // Batched: same-port chunks of at most batch_size messages.
    const size_t batch_size = std::max<size_t>(1, c.schedule.batch_size);
    std::vector<Message> chunk;
    size_t i = 0;
    while (i < merged.size() && st.ok()) {
      const int port = merged[i].port;
      chunk.clear();
      while (i < merged.size() && merged[i].port == port &&
             chunk.size() < batch_size) {
        chunk.push_back(merged[i].msg);
        ++i;
      }
      st = run.op->PushBatch(port, chunk);
    }
  } else if (c.schedule.mode == ExecMode::kSnapshotRestore) {
    size_t cut = static_cast<size_t>(
        static_cast<double>(merged.size()) *
        std::clamp(c.schedule.snapshot_at, 0.0, 1.0));
    size_t i = 0;
    for (; i < cut && st.ok(); ++i) st = run.Push(merged[i].port,
                                                  merged[i].msg);
    if (st.ok()) {
      io::BinaryWriter w;
      run.op->Snapshot(&w);
      run.sink->Snapshot(&w);
      SingleOpRun fresh = SingleOpRun::Make(spec, c.spec);
      io::BinaryReader r(w.bytes());
      st = fresh.op->Restore(&r);
      if (st.ok()) st = fresh.sink->Restore(&r);
      if (st.ok()) run = std::move(fresh);
    }
    for (; i < merged.size() && st.ok(); ++i) {
      st = run.Push(merged[i].port, merged[i].msg);
    }
  } else {
    // kParallel / kSwitchLevels have no single-op realization (they are
    // engine-level schedules); the serial path is the fallback.
    for (const PortMessage& pm : merged) {
      st = run.Push(pm.port, pm.msg);
      if (!st.ok()) break;
    }
  }
  if (st.ok()) st = run.Finish(last_cs);
  if (!st.ok()) {
    result.status = st;
    result.detail = StrCat("runtime error: ", st.ToString());
    return result;
  }
  if (have_ref && SerializeSinkMessages(*run.sink) != ref_bytes) {
    result.detail = StrCat(
        "batched output is not bit-identical to per-event\n",
        "per-event: ", ref_bytes.size(), " bytes, batch: ",
        SerializeSinkMessages(*run.sink).size(), " bytes");
    return result;
  }

  result.lost_corrections = run.op->stats().lost_corrections;
  result.output_retracts = run.sink->retracts();
  EventList actual = run.sink->Ideal();

  if (c.spec.IsWeak() && result.lost_corrections > 0) {
    result.pass = true;
    result.skipped_equality = true;
    return result;
  }
  if (c.spec.IsStrong() && result.output_retracts > 0 &&
      InputsRetractionFree(c)) {
    result.detail = StrCat("strong run emitted ", result.output_retracts,
                           " retractions on retraction-free input");
    return result;
  }
  if (!denotation::StarEqual(actual, oracle)) {
    result.detail =
        StrCat("converged output diverges from the denotation\nexpected:\n",
               denotation::ToTableString(oracle), "actual:\n",
               denotation::ToTableString(actual));
    return result;
  }
  result.pass = true;
  return result;
}

AuditResult RunWholeQuery(const AuditCase& c, const EventList& oracle) {
  AuditResult result;
  std::vector<LabeledStream> arrival = DifferentialAuditor::ArrivalStreams(c);
  std::vector<TypedMessage> merged = MergeByArrival(arrival);

  EventList actual;
  Status st;

  if (c.schedule.mode == ExecMode::kSwitchLevels) {
    auto sq_r = SwitchableQuery::Create(c.query_text, c.catalog, c.spec);
    if (!sq_r.ok()) {
      result.status = sq_r.status();
      result.detail = result.status.ToString();
      return result;
    }
    auto sq = std::move(sq_r).ValueUnsafe();
    auto switches = c.schedule.switches;
    std::sort(switches.begin(), switches.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    size_t next_switch = 0;
    for (size_t i = 0; i < merged.size() && st.ok(); ++i) {
      while (next_switch < switches.size() &&
             static_cast<double>(i) >=
                 switches[next_switch].first *
                     static_cast<double>(merged.size())) {
        auto t = sq->SwitchTo(switches[next_switch].second);
        if (!t.ok()) {
          st = t.status();
          break;
        }
        ++next_switch;
      }
      if (st.ok()) st = sq->Push(merged[i].first, merged[i].second);
    }
    if (st.ok()) st = sq->Finish();
    if (st.ok()) {
      actual = sq->Ideal();
      result.lost_corrections = sq->Stats().lost_corrections;
      result.output_retracts = sq->active().sink().retracts();
    }
  } else {
    auto make_query = [&] {
      return CompiledQuery::Compile(c.query_text, c.catalog, c.spec);
    };
    auto q_r = make_query();
    if (!q_r.ok()) {
      result.status = q_r.status();
      result.detail = result.status.ToString();
      return result;
    }
    auto query = std::move(q_r).ValueUnsafe();

    if (c.schedule.mode == ExecMode::kParallel) {
      Executor exec({std::max(1, c.schedule.workers), 64});
      exec.Register(query.get());
      st = exec.Run(arrival);
    } else if (c.schedule.mode == ExecMode::kSnapshotRestore) {
      size_t cut = static_cast<size_t>(
          static_cast<double>(merged.size()) *
          std::clamp(c.schedule.snapshot_at, 0.0, 1.0));
      st = query->PushBatch(
          std::span<const TypedMessage>(merged.data(), cut));
      if (st.ok()) {
        // The engine's checkpoint form: plan state, and the output so far.
        io::BinaryWriter w;
        st = query->SnapshotPlan(&w);
        if (st.ok()) {
          auto fresh_r = make_query();
          if (!fresh_r.ok()) {
            st = fresh_r.status();
          } else {
            auto fresh = std::move(fresh_r).ValueUnsafe();
            io::BinaryReader r(w.bytes());
            st = fresh->RestorePlan(&r);
            fresh->SeedOutput(query->sink().messages());
            if (st.ok()) query = std::move(fresh);
          }
        }
      }
      if (st.ok()) {
        st = query->PushBatch(std::span<const TypedMessage>(
            merged.data() + cut, merged.size() - cut));
      }
      if (st.ok()) st = query->Finish();
    } else if (c.schedule.mode == ExecMode::kBatch) {
      // Reference: the identical schedule, one message at a time.
      auto ref_r = make_query();
      if (!ref_r.ok()) {
        st = ref_r.status();
      } else {
        auto ref = std::move(ref_r).ValueUnsafe();
        for (const auto& [type, msg] : merged) {
          st = ref->Push(type, msg);
          if (!st.ok()) break;
        }
        if (st.ok()) st = ref->Finish();
        if (st.ok()) {
          const std::string ref_bytes = SerializeSinkMessages(ref->sink());
          // Batched: the PushBatch ingress over batch_size-message spans.
          const size_t bs = std::max<size_t>(1, c.schedule.batch_size);
          for (size_t i = 0; i < merged.size() && st.ok(); i += bs) {
            st = query->PushBatch(std::span<const TypedMessage>(
                merged.data() + i, std::min(bs, merged.size() - i)));
          }
          if (st.ok()) st = query->Finish();
          if (st.ok() &&
              SerializeSinkMessages(query->sink()) != ref_bytes) {
            result.detail =
                "batched output is not bit-identical to per-event";
            return result;
          }
        }
      }
    } else {
      st = query->PushBatch(merged);
      if (st.ok()) st = query->Finish();
    }
    if (st.ok()) {
      actual = query->sink().Ideal();
      result.lost_corrections = query->Stats().lost_corrections;
      result.output_retracts = query->sink().retracts();
    }
  }

  if (!st.ok()) {
    result.status = st;
    result.detail = StrCat("runtime error: ", st.ToString());
    return result;
  }

  if (c.spec.IsWeak() && result.lost_corrections > 0) {
    result.pass = true;
    result.skipped_equality = true;
    return result;
  }
  if (c.spec.IsStrong() && c.schedule.mode != ExecMode::kSwitchLevels &&
      result.output_retracts > 0 && InputsRetractionFree(c)) {
    result.detail = StrCat("strong run emitted ", result.output_retracts,
                           " retractions on retraction-free input");
    return result;
  }
  if (!denotation::StarEqual(actual, oracle)) {
    result.detail =
        StrCat("converged output diverges from the denotation\nexpected:\n",
               denotation::ToTableString(oracle), "actual:\n",
               denotation::ToTableString(actual));
    return result;
  }
  result.pass = true;
  return result;
}

}  // namespace

const std::map<std::string, OpSpec>& OpRegistry() {
  static const std::map<std::string, OpSpec> registry = BuildRegistry();
  return registry;
}

std::vector<LabeledStream> DifferentialAuditor::ArrivalStreams(
    const AuditCase& c) {
  std::vector<LabeledStream> out;
  out.reserve(c.inputs.size());
  uint64_t salt = 0;
  for (const LabeledStream& in : c.inputs) {
    DisorderConfig config = c.schedule.disorder;
    config.seed += salt++;  // decorrelate the per-stream shuffles
    out.push_back({in.event_type, ApplyDisorder(in.messages, config)});
  }
  return out;
}

Result<EventList> DifferentialAuditor::Oracle(const AuditCase& c) {
  std::map<std::string, EventList> ideals;
  for (const LabeledStream& in : c.inputs) {
    ideals[in.event_type] = denotation::IdealOf(in.messages);
  }
  if (c.single_op()) {
    auto it = OpRegistry().find(c.op_name);
    if (it == OpRegistry().end()) {
      return Status::NotFound(StrCat("unknown audit op: ", c.op_name));
    }
    std::vector<EventList> ports(static_cast<size_t>(it->second.num_inputs));
    for (const LabeledStream& in : c.inputs) {
      int port = PortOfLabel(in.event_type);
      if (port < 0 || port >= it->second.num_inputs) {
        return Status::InvalidArgument(
            StrCat("bad port label for ", c.op_name, ": ", in.event_type));
      }
      ports[static_cast<size_t>(port)] = ideals[in.event_type];
    }
    return it->second.denote(ports);
  }
  // Whole-query: the bound plan is schedule-invariant, so compile once
  // at middle consistency (the spec does not change the denotation).
  CEDR_ASSIGN_OR_RETURN(
      auto query,
      CompiledQuery::Compile(c.query_text, c.catalog,
                             ConsistencySpec::Middle()));
  return DenoteQuery(query->bound(), ideals);
}

AuditResult DifferentialAuditor::Run(const AuditCase& c) {
  AuditResult result;
  if (c.single_op() == !c.query_text.empty()) {
    result.status = Status::InvalidArgument(
        "audit case must set exactly one of op_name / query_text");
    result.detail = result.status.ToString();
    return result;
  }
  auto oracle_r = Oracle(c);
  if (!oracle_r.ok()) {
    result.status = oracle_r.status();
    result.detail = StrCat("oracle error: ", result.status.ToString());
    return result;
  }
  EventList oracle = std::move(oracle_r).ValueUnsafe();
  if (c.single_op()) {
    return RunSingleOp(c, OpRegistry().at(c.op_name), oracle);
  }
  return RunWholeQuery(c, oracle);
}

}  // namespace audit
}  // namespace cedr
