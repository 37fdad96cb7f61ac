#include "engine/ingress.h"

#include "common/format.h"

namespace cedr {

Result<bool> IngressCore::RegisterType(const std::string& name,
                                       SchemaPtr schema) {
  if (name.empty() || name.find(' ') != std::string::npos) {
    return Status::InvalidArgument(
        StrCat("event type name '", name,
               "' must be non-empty and contain no space"));
  }
  if (schema == nullptr) {
    return Status::InvalidArgument("event type needs a schema");
  }
  auto it = catalog_.find(name);
  if (it != catalog_.end()) {
    if (it->second->Equals(*schema)) return false;
    return Status::AlreadyExists(
        StrCat("event type '", name, "' already registered with schema ",
               it->second->ToString()));
  }
  catalog_.emplace(name, std::move(schema));
  return true;
}

Status IngressCore::Validate(const io::JournalRecord& call) const {
  auto type = catalog_.find(call.name);
  if (type == catalog_.end()) {
    return Status::NotFound(StrCat("unknown event type '", call.name, "'"));
  }
  const Event& e = call.event;
  switch (call.op) {
    case io::JournalOp::kPublish:
      if (e.payload.schema() != nullptr &&
          !e.payload.schema()->Equals(*type->second)) {
        return Status::InvalidArgument(StrCat(
            "payload schema does not match event type '", call.name, "'"));
      }
      if (e.ve <= e.vs) {
        return Status::InvalidArgument(
            StrCat("event ", e.id, " has an empty lifetime [", e.vs, ", ",
                   e.ve, ")"));
      }
      return Status::OK();
    case io::JournalOp::kRetract:
      if (call.new_ve >= e.ve) {
        return Status::InvalidArgument(
            "retractions only shrink lifetimes (new end must be smaller)");
      }
      if (call.new_ve < e.vs) {
        return Status::InvalidArgument(
            StrCat("retraction of event ", e.id, " ends at ", call.new_ve,
                   ", before its start ", e.vs));
      }
      return Status::OK();
    case io::JournalOp::kSyncPoint:
      return Status::OK();
    default:
      return Status::InvalidArgument("unsupported ingress op");
  }
}

Status IngressCore::CheckSyncAdvance(const std::string& type, Time t,
                                     const std::map<std::string, Time>& last) {
  auto it = last.find(type);
  if (it != last.end() && t <= it->second) {
    return Status::InvalidArgument(
        StrCat("sync point ", t, " on '", type,
               "' does not advance past the previous sync point ",
               it->second));
  }
  return Status::OK();
}

Result<Message> IngressCore::Stamp(const io::JournalRecord& call) {
  switch (call.op) {
    case io::JournalOp::kPublish: {
      published_[call.name].insert(call.event.id);
      // A primitive's root time is its Vs (stream/event.h), whatever the
      // provider sent: negation windows are bounded on that.
      Event e = call.event;
      e.rt = e.vs;
      return InsertOf(std::move(e), next_cs_++);
    }
    case io::JournalOp::kRetract: {
      auto pub = published_.find(call.name);
      if (pub == published_.end() || pub->second.count(call.event.id) == 0) {
        return Status::NotFound(
            StrCat("retraction references event ", call.event.id,
                   " never published on '", call.name, "'"));
      }
      return RetractOf(call.event, call.new_ve, next_cs_++);
    }
    case io::JournalOp::kSyncPoint:
      CEDR_RETURN_NOT_OK(CheckSyncAdvance(call.name, call.time, last_sync_));
      last_sync_[call.name] = call.time;
      return CtiOf(call.time, next_cs_++);
    default:
      return Status::Internal("not an ingress call");
  }
}

void IngressCore::Checkpoint(io::BinaryWriter* w) const {
  w->PutTime(next_cs_);
  w->PutU64(catalog_.size());
  for (const auto& [name, schema] : catalog_) {
    w->PutString(name);
    io::WriteSchema(w, schema);
  }
  w->PutU64(published_.size());
  for (const auto& [type, ids] : published_) {
    w->PutString(type);
    w->PutU64(ids.size());
    for (EventId id : ids) w->PutU64(id);
  }
  w->PutU64(last_sync_.size());
  for (const auto& [type, t] : last_sync_) {
    w->PutString(type);
    w->PutTime(t);
  }
}

Result<IngressCore> IngressCore::Restore(io::BinaryReader* r) {
  IngressCore core;
  CEDR_ASSIGN_OR_RETURN(core.next_cs_, r->GetTime());
  CEDR_ASSIGN_OR_RETURN(uint64_t num_types, r->GetU64());
  for (uint64_t i = 0; i < num_types; ++i) {
    CEDR_ASSIGN_OR_RETURN(std::string name, r->GetString());
    CEDR_ASSIGN_OR_RETURN(SchemaPtr schema, io::ReadSchema(r));
    if (schema == nullptr) {
      return Status::Corruption(
          StrCat("checkpointed event type '", name, "' has no schema"));
    }
    core.catalog_.emplace(std::move(name), std::move(schema));
  }
  CEDR_ASSIGN_OR_RETURN(uint64_t num_published, r->GetU64());
  for (uint64_t i = 0; i < num_published; ++i) {
    CEDR_ASSIGN_OR_RETURN(std::string type, r->GetString());
    CEDR_ASSIGN_OR_RETURN(uint64_t num_ids, r->GetU64());
    std::set<EventId>& ids = core.published_[type];
    for (uint64_t j = 0; j < num_ids; ++j) {
      CEDR_ASSIGN_OR_RETURN(EventId id, r->GetU64());
      ids.insert(id);
    }
  }
  CEDR_ASSIGN_OR_RETURN(uint64_t num_syncs, r->GetU64());
  for (uint64_t i = 0; i < num_syncs; ++i) {
    CEDR_ASSIGN_OR_RETURN(std::string type, r->GetString());
    CEDR_ASSIGN_OR_RETURN(Time t, r->GetTime());
    core.last_sync_[type] = t;
  }
  return core;
}

}  // namespace cedr
