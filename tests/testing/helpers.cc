#include "testing/helpers.h"

#include <algorithm>

namespace cedr {
namespace testing {

Status FeedPort(Operator* op, int port, const std::vector<Message>& messages,
                bool finish) {
  for (const Message& m : messages) {
    CEDR_RETURN_NOT_OK(op->Push(port, m));
  }
  if (finish) {
    Time last = messages.empty() ? 1 : messages.back().cs + 1;
    CEDR_RETURN_NOT_OK(op->Push(port, CtiOf(kInfinity, last)));
  }
  return Status::OK();
}

RunResult RunUnary(Operator* op, const std::vector<Message>& input) {
  RunResult result;
  result.sink = std::make_unique<CollectingSink>();
  op->ConnectTo(result.sink.get(), 0);
  result.status = FeedPort(op, 0, input);
  if (result.status.ok()) result.status = op->Drain();
  return result;
}

RunResult RunBinary(Operator* op, const std::vector<Message>& left,
                    const std::vector<Message>& right) {
  return RunMultiPort(op, {left, right});
}

RunResult RunMultiPort(Operator* op,
                       const std::vector<std::vector<Message>>& inputs) {
  RunResult result;
  result.sink = std::make_unique<CollectingSink>();
  op->ConnectTo(result.sink.get(), 0);

  struct Tagged {
    Message msg;
    int port;
    size_t seq;
  };
  std::vector<Tagged> merged;
  size_t seq = 0;
  for (size_t p = 0; p < inputs.size(); ++p) {
    for (const Message& m : inputs[p]) {
      merged.push_back(Tagged{m, static_cast<int>(p), seq++});
    }
  }
  std::sort(merged.begin(), merged.end(), [](const Tagged& a, const Tagged& b) {
    if (a.msg.cs != b.msg.cs) return a.msg.cs < b.msg.cs;
    return a.seq < b.seq;
  });
  Time last = 1;
  for (const Tagged& t : merged) {
    last = std::max(last, t.msg.cs + 1);
    result.status = op->Push(t.port, t.msg);
    if (!result.status.ok()) return result;
  }
  for (int p = 0; p < op->num_inputs(); ++p) {
    result.status = op->Push(p, CtiOf(kInfinity, last));
    if (!result.status.ok()) return result;
  }
  result.status = op->Drain();
  return result;
}

SchemaPtr KeyValueSchema() {
  static const SchemaPtr kSchema = Schema::Make({
      {"key", ValueType::kInt64},
      {"value", ValueType::kInt64},
  });
  return kSchema;
}

Row KV(int64_t key, int64_t value) {
  return Row(KeyValueSchema(), {Value(key), Value(value)});
}

std::vector<Message> RandomStream(Rng* rng, int n, Time horizon, int keys,
                                  double retract_fraction) {
  // Generate events ordered by vs; cs follows vs (ordered stream).
  std::vector<Message> out;
  Time t = 1;
  for (int i = 0; i < n; ++i) {
    t += rng->NextInt(0, 3);
    Time vs = t;
    Time ve = TimeAdd(vs, rng->NextInt(1, std::max<Time>(2, horizon / 4)));
    Event e = MakeEvent(static_cast<EventId>(i + 1), vs, ve,
                        KV(rng->NextInt(0, keys - 1), rng->NextInt(0, 100)));
    out.push_back(InsertOf(e, vs));
    if (rng->NextBool(retract_fraction)) {
      // Shorten (or fully remove) some time later.
      Time new_ve = rng->NextBool(0.3) ? vs : TimeAdd(vs, (ve - vs) / 2);
      Message r = RetractOf(e, new_ve, vs);
      out.push_back(std::move(r));
    }
  }
  // Re-stamp cs by sync order so the stream is well formed and ordered.
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

EventList RechopLifetimes(const EventList& events, Rng* rng) {
  EventList out;
  EventId next_id = 1'000'000;
  for (const Event& e : events) {
    if (e.ve == kInfinity || e.ve - e.vs <= 1 || rng->NextBool(0.4)) {
      out.push_back(e);
      continue;
    }
    Time cut = e.vs + rng->NextInt(1, e.ve - e.vs - 1);
    Event a = e;
    a.ve = cut;
    Event b = e;
    b.vs = cut;
    b.id = next_id++;
    b.k = b.id;
    b.rt = cut;
    out.push_back(a);
    out.push_back(b);
  }
  return out;
}

std::string Describe(const EventList& events) {
  return denotation::ToTableString(events);
}

::testing::AssertionResult IdenticalEvents(const Event& a, const Event& b) {
  auto differ = [&](const char* field) {
    return ::testing::AssertionFailure()
           << field << " differs: " << a.ToString() << " vs " << b.ToString();
  };
  if (a.id != b.id) return differ("id");
  if (a.valid() != b.valid()) return differ("valid time");
  if (a.occurrence() != b.occurrence()) return differ("occurrence time");
  if (a.cedr() != b.cedr()) return differ("CEDR time");
  if (a.k != b.k) return differ("k");
  if (a.rt != b.rt) return differ("rt");
  if (!(a.payload == b.payload)) return differ("payload");
  const SchemaPtr& sa = a.payload.schema();
  const SchemaPtr& sb = b.payload.schema();
  if ((sa == nullptr) != (sb == nullptr) ||
      (sa != nullptr && !sa->Equals(*sb))) {
    return differ("payload schema");
  }
  if (a.cbt.size() != b.cbt.size()) return differ("lineage size");
  for (size_t i = 0; i < a.cbt.size(); ++i) {
    ::testing::AssertionResult inner = IdenticalEvents(*a.cbt[i], *b.cbt[i]);
    if (!inner) return inner << " (contributor " << i << ")";
  }
  return ::testing::AssertionSuccess();
}

}  // namespace testing
}  // namespace cedr
