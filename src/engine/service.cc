#include "engine/service.h"

#include "common/format.h"
#include "io/snapshot.h"

namespace cedr {

CedrService::CedrService() {
  // The empty service is trivially checkpointable: recovery always has
  // a snapshot to start from, even before the first sync point.
  Seal().ok();
}

Status CedrService::RegisterEventType(const std::string& name,
                                      SchemaPtr schema) {
  io::JournalRecord call;
  call.op = io::JournalOp::kRegisterType;
  call.name = name;
  call.schema = std::move(schema);
  return Apply(call);
}

Result<std::string> CedrService::RegisterQuery(
    const std::string& text, std::optional<ConsistencySpec> spec_override) {
  if (finished_) return Status::ExecutionError("service already finished");
  CEDR_ASSIGN_OR_RETURN(std::unique_ptr<CompiledQuery> query,
                        CompiledQuery::Compile(text, ingress_.catalog(),
                                               spec_override));
  std::string name = query->bound().name;
  if (queries_.count(name) > 0) {
    return Status::AlreadyExists(
        StrCat("a query named '", name, "' is already registered"));
  }
  queries_.emplace(name, std::move(query));
  io::JournalRecord call;
  call.op = io::JournalOp::kRegisterQuery;
  call.name = name;
  call.text = text;
  call.has_spec = spec_override.has_value();
  if (call.has_spec) call.spec = *spec_override;
  CEDR_RETURN_NOT_OK(Log(call));
  return name;
}

Status CedrService::UnregisterQuery(const std::string& name) {
  io::JournalRecord call;
  call.op = io::JournalOp::kUnregisterQuery;
  call.name = name;
  return Apply(call);
}

Status CedrService::Publish(const std::string& type, Event event) {
  return Apply(io::PublishCall(type, std::move(event)));
}

Status CedrService::PublishRetraction(const std::string& type,
                                      const Event& original, Time new_end) {
  return Apply(io::RetractCall(type, original, new_end));
}

Status CedrService::PublishSyncPoint(const std::string& type, Time t) {
  return Apply(io::SyncCall(type, t));
}

Status CedrService::Finish() {
  io::JournalRecord call;
  call.op = io::JournalOp::kFinish;
  return Apply(call);
}

Status CedrService::Apply(const io::JournalRecord& call) {
  switch (call.op) {
    case io::JournalOp::kRegisterType: {
      CEDR_ASSIGN_OR_RETURN(bool added,
                            ingress_.RegisterType(call.name, call.schema));
      if (!added) return Status::OK();
      break;
    }
    case io::JournalOp::kRegisterQuery: {
      std::optional<ConsistencySpec> spec;
      if (call.has_spec) spec = call.spec;
      return RegisterQuery(call.text, spec).status();
    }
    case io::JournalOp::kUnregisterQuery:
      if (queries_.erase(call.name) == 0) {
        return Status::NotFound(StrCat("no query named '", call.name, "'"));
      }
      break;
    case io::JournalOp::kPublish:
    case io::JournalOp::kRetract:
    case io::JournalOp::kSyncPoint: {
      if (finished_) return Status::ExecutionError("service already finished");
      CEDR_RETURN_NOT_OK(ingress_.Validate(call));
      CEDR_ASSIGN_OR_RETURN(Message msg, ingress_.Stamp(call));
      for (auto& [name, query] : queries_) {
        CEDR_RETURN_NOT_OK(query->Push(call.name, msg));
      }
      break;
    }
    case io::JournalOp::kFinish:
      if (finished_) return Status::OK();
      finished_ = true;
      for (auto& [name, query] : queries_) {
        CEDR_RETURN_NOT_OK(query->Finish());
      }
      break;
    case io::JournalOp::kEpoch:
      // Session epochs are supervisor state (engine/supervisor.h); the
      // service has no sessions to fence.
      return Status::OK();
    default:
      return Status::InvalidArgument("call has an unknown op");
  }
  return Log(call);
}

Status CedrService::Log(const io::JournalRecord& call) {
  journal_.Append(call);
  const bool due = call.op == io::JournalOp::kSyncPoint &&
                   CheckpointDue(journal_.bytes().size(), snapshot_.size());
  return due ? Seal() : Status::OK();
}

Status CedrService::Seal() {
  io::BinaryWriter payload;
  payload.PutU64(journal_.next_index());
  CEDR_RETURN_NOT_OK(Checkpoint(&payload));
  // Commit point: only after the new snapshot is fully sealed does the
  // journal truncate. A crash mid-checkpoint leaves the old pair.
  snapshot_ = io::SealSnapshot(payload.Take());
  journal_.Reset(journal_.next_index());
  return Status::OK();
}

Result<const CompiledQuery*> CedrService::GetQuery(
    const std::string& name) const {
  auto it = queries_.find(name);
  if (it == queries_.end()) {
    return Status::NotFound(StrCat("no query named '", name, "'"));
  }
  return static_cast<const CompiledQuery*>(it->second.get());
}

std::vector<std::string> CedrService::QueryNames() const {
  std::vector<std::string> names;
  names.reserve(queries_.size());
  for (const auto& [name, query] : queries_) names.push_back(name);
  return names;
}

Status CedrService::Checkpoint(io::BinaryWriter* w) const {
  ingress_.Checkpoint(w);
  w->PutBool(finished_);
  w->PutU64(queries_.size());
  for (const auto& [name, query] : queries_) {
    w->PutString(name);
    w->PutString(query->text());
    io::WriteSpec(w, query->bound().spec);
    io::BinaryWriter frame;
    CEDR_RETURN_NOT_OK(query->SnapshotPlan(&frame));
    w->PutString(frame.Take());
  }
  return Status::OK();
}

Result<std::unique_ptr<CedrService>> CedrService::Restore(
    io::BinaryReader* r) {
  auto service = std::make_unique<CedrService>();
  CEDR_ASSIGN_OR_RETURN(service->ingress_, IngressCore::Restore(r));
  CEDR_ASSIGN_OR_RETURN(service->finished_, r->GetBool());
  CEDR_ASSIGN_OR_RETURN(uint64_t num_queries, r->GetU64());
  for (uint64_t i = 0; i < num_queries; ++i) {
    CEDR_ASSIGN_OR_RETURN(std::string name, r->GetString());
    CEDR_ASSIGN_OR_RETURN(std::string text, r->GetString());
    CEDR_ASSIGN_OR_RETURN(ConsistencySpec spec, io::ReadSpec(r));
    CEDR_ASSIGN_OR_RETURN(std::string frame, r->GetString());
    CEDR_ASSIGN_OR_RETURN(
        std::unique_ptr<CompiledQuery> query,
        CompiledQuery::Compile(text, service->catalog(), spec));
    if (query->bound().name != name) {
      return Status::Corruption(
          StrCat("checkpointed query '", name, "' recompiled as '",
                 query->bound().name, "'"));
    }
    io::BinaryReader frame_reader(frame);
    CEDR_RETURN_NOT_OK(query->RestorePlan(&frame_reader));
    CEDR_RETURN_NOT_OK(frame_reader.ExpectEnd());
    service->queries_.emplace(std::move(name), std::move(query));
  }
  CEDR_RETURN_NOT_OK(service->Seal());
  return service;
}

Result<std::unique_ptr<CedrService>> CedrService::Recover(
    const std::string& snapshot_bytes, const std::string& journal_bytes) {
  CEDR_ASSIGN_OR_RETURN(std::string payload,
                        io::OpenSnapshot(snapshot_bytes));
  io::BinaryReader reader(payload);
  CEDR_ASSIGN_OR_RETURN(uint64_t base_index, reader.GetU64());
  CEDR_ASSIGN_OR_RETURN(std::unique_ptr<CedrService> service,
                        Restore(&reader));
  CEDR_RETURN_NOT_OK(reader.ExpectEnd());

  CEDR_ASSIGN_OR_RETURN(io::JournalContents journal,
                        io::ReadJournal(journal_bytes));
  if (journal.base_index != base_index) {
    return Status::DataLoss(
        StrCat("journal starts at record ", journal.base_index,
               " but the snapshot was taken at record ", base_index,
               " (mismatched snapshot/journal pair)"));
  }
  service->snapshot_ = snapshot_bytes;
  service->journal_.Reset(base_index);
  uint64_t index = base_index;
  for (const io::JournalRecord& call : journal.records) {
    // Journaled calls were accepted before the crash, so a replay
    // failure means the durable state lies about history. Replay
    // re-journals each call, so a second crash also recovers.
    Status applied = service->Apply(call);
    if (!applied.ok()) {
      return Status::Corruption(
          StrCat("journal record ", index, " no longer replays: ",
                 applied.ToString()));
    }
    ++index;
  }
  return service;
}

}  // namespace cedr
