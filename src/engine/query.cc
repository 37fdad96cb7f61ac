#include "engine/query.h"

#include "common/format.h"
#include "lang/parser.h"

namespace cedr {

Result<std::unique_ptr<CompiledQuery>> CompiledQuery::Compile(
    const std::string& text, const Catalog& catalog,
    std::optional<ConsistencySpec> spec_override) {
  CEDR_ASSIGN_OR_RETURN(ast::Query ast, ParseQuery(text));
  CEDR_ASSIGN_OR_RETURN(plan::BoundQuery bound, Bind(ast, catalog));
  if (spec_override.has_value()) bound.spec = *spec_override;
  auto query = std::unique_ptr<CompiledQuery>(new CompiledQuery());
  query->text_ = text;
  query->bound_ = std::move(bound);
  CEDR_ASSIGN_OR_RETURN(query->physical_,
                        plan::BuildPhysicalPlan(query->bound_));
  query->sink_ = std::make_unique<CollectingSink>(
      StrCat("sink:", query->bound_.name));
  query->physical_->output->ConnectTo(query->sink_.get(), 0);
  return query;
}

Status CompiledQuery::Push(const std::string& event_type, const Message& msg) {
  if (finished_) {
    return Status::ExecutionError("query already finished");
  }
  last_cs_ = std::max(last_cs_, msg.cs);
  auto it = physical_->inputs.find(event_type);
  if (it == physical_->inputs.end()) {
    // Not an input of this query: ignore (pub/sub style routing).
    return Status::OK();
  }
  if (fault_hook_) CEDR_RETURN_NOT_OK(fault_hook_(event_type, msg));
  for (auto& [op, port] : it->second) {
    CEDR_RETURN_NOT_OK(op->Push(port, msg));
  }
  return Status::OK();
}

Status CompiledQuery::PushBatch(std::span<const TypedMessage> batch) {
  if (finished_) {
    return Status::ExecutionError("query already finished");
  }
  const size_t n = batch.size();
  size_t i = 0;
  while (i < n) {
    // Maximal run of one event type: the port lookup amortizes over it.
    const std::string& type = batch[i].first;
    size_t run_end = i + 1;
    while (run_end < n && batch[run_end].first == type) ++run_end;
    auto it = physical_->inputs.find(type);
    if (it == physical_->inputs.end()) {  // not an input: pub/sub routing
      for (; i < run_end; ++i) {
        last_cs_ = std::max(last_cs_, batch[i].second.cs);
      }
      continue;
    }
    const std::vector<std::pair<Operator*, int>>& entries = it->second;
    for (; i < run_end; ++i) {
      const Message& msg = batch[i].second;
      last_cs_ = std::max(last_cs_, msg.cs);
      if (fault_hook_) CEDR_RETURN_NOT_OK(fault_hook_(type, msg));
      for (const auto& [op, port] : entries) {
        CEDR_RETURN_NOT_OK(op->Push(port, msg));
      }
    }
  }
  return Status::OK();
}

Status CompiledQuery::Finish() {
  if (finished_) return Status::OK();
  finished_ = true;
  Message end = CtiOf(kInfinity, last_cs_ + 1);
  for (auto& [type, entries] : physical_->inputs) {
    for (auto& [op, port] : entries) {
      CEDR_RETURN_NOT_OK(op->Push(port, end));
    }
  }
  // The CTI(inf) pushed above already releases every alignment buffer on
  // its way to the sink, so the drain rounds below are a backstop. They
  // run in construction order, which is not children first: BuildNode
  // appends a pattern node before the children it consumes from
  // (plan/physical.cc), so a child drained after its parent can still
  // hand the parent messages. The second round settles those, then the
  // sink drains last.
  for (int round = 0; round < 2; ++round) {
    for (auto& op : physical_->operators) {
      CEDR_RETURN_NOT_OK(op->Drain());
    }
  }
  return sink_->Drain();
}

QueryStats CompiledQuery::Stats() const {
  std::vector<const Operator*> ops;
  ops.reserve(physical_->operators.size());
  for (const auto& op : physical_->operators) ops.push_back(op.get());
  return CollectStats(ops);
}

Status CompiledQuery::Snapshot(io::BinaryWriter* w) const {
  CEDR_RETURN_NOT_OK(SnapshotPlan(w));
  sink_->SnapshotLog(w);
  return Status::OK();
}

Status CompiledQuery::Restore(io::BinaryReader* r) {
  CEDR_RETURN_NOT_OK(RestorePlan(r));
  return sink_->RestoreLog(r);
}

Status CompiledQuery::SnapshotPlan(io::BinaryWriter* w) const {
  w->PutTime(last_cs_);
  w->PutBool(finished_);
  w->PutU64(physical_->operators.size());
  for (const auto& op : physical_->operators) {
    io::BinaryWriter frame;
    op->Snapshot(&frame);
    w->PutString(frame.Take());
  }
  sink_->SnapshotHead(w);
  return Status::OK();
}

Status CompiledQuery::RestorePlan(io::BinaryReader* r) {
  CEDR_ASSIGN_OR_RETURN(last_cs_, r->GetTime());
  CEDR_ASSIGN_OR_RETURN(finished_, r->GetBool());
  CEDR_ASSIGN_OR_RETURN(uint64_t num_ops, r->GetU64());
  if (num_ops != physical_->operators.size()) {
    return Status::Corruption(
        StrCat("query snapshot has ", num_ops, " operators, plan has ",
               physical_->operators.size()));
  }
  for (auto& op : physical_->operators) {
    CEDR_ASSIGN_OR_RETURN(std::string frame, r->GetString());
    io::BinaryReader frame_reader(frame);
    CEDR_RETURN_NOT_OK(op->Restore(&frame_reader));
    CEDR_RETURN_NOT_OK(frame_reader.ExpectEnd());
  }
  return sink_->RestoreHead(r);
}

std::vector<std::string> CompiledQuery::InputTypes() const {
  std::vector<std::string> out;
  out.reserve(physical_->inputs.size());
  for (const auto& [type, entries] : physical_->inputs) out.push_back(type);
  return out;
}

}  // namespace cedr
