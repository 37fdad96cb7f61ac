#include "engine/service.h"

#include "common/format.h"
#include "io/serde.h"

namespace cedr {

Status CedrService::RegisterEventType(const std::string& name,
                                      SchemaPtr schema) {
  if (schema == nullptr) {
    return Status::InvalidArgument("event type needs a schema");
  }
  auto it = catalog_.find(name);
  if (it != catalog_.end()) {
    if (it->second->Equals(*schema)) return Status::OK();
    return Status::AlreadyExists(
        StrCat("event type '", name, "' already registered with schema ",
               it->second->ToString()));
  }
  catalog_.emplace(name, std::move(schema));
  return Status::OK();
}

Result<std::string> CedrService::RegisterQuery(
    const std::string& text, std::optional<ConsistencySpec> spec_override) {
  if (finished_) return Status::ExecutionError("service already finished");
  CEDR_ASSIGN_OR_RETURN(std::unique_ptr<CompiledQuery> query,
                        CompiledQuery::Compile(text, catalog_,
                                               spec_override));
  std::string name = query->bound().name;
  if (queries_.count(name) > 0) {
    return Status::AlreadyExists(
        StrCat("a query named '", name, "' is already registered"));
  }
  queries_.emplace(name, std::move(query));
  return name;
}

Status CedrService::UnregisterQuery(const std::string& name) {
  if (queries_.erase(name) == 0) {
    return Status::NotFound(StrCat("no query named '", name, "'"));
  }
  return Status::OK();
}

Status CedrService::CheckIngress(const std::string& type) const {
  if (finished_) return Status::ExecutionError("service already finished");
  if (catalog_.count(type) == 0) {
    return Status::NotFound(StrCat("unknown event type '", type, "'"));
  }
  return Status::OK();
}

Status CedrService::Route(const std::string& type, const Message& msg) {
  for (auto& [name, query] : queries_) {
    CEDR_RETURN_NOT_OK(query->Push(type, msg));
  }
  return Status::OK();
}

Status CedrService::Publish(const std::string& type, Event event) {
  CEDR_RETURN_NOT_OK(CheckIngress(type));
  if (event.payload.schema() != nullptr &&
      !event.payload.schema()->Equals(*catalog_.at(type))) {
    return Status::InvalidArgument(
        StrCat("payload schema does not match event type '", type, "'"));
  }
  if (event.ve <= event.vs) {
    return Status::InvalidArgument(
        StrCat("event ", event.id, " has an empty lifetime [", event.vs,
               ", ", event.ve, ")"));
  }
  // Validation precedes the cs stamp so a rejected publish burns no
  // arrival timestamp: journal replay then reproduces the exact cs
  // sequence of the original run.
  EventId id = event.id;
  CEDR_RETURN_NOT_OK(Route(type, InsertOf(std::move(event), next_cs_++)));
  published_[type].insert(id);
  return Status::OK();
}

Status CedrService::PublishRetraction(const std::string& type,
                                      const Event& original, Time new_end) {
  CEDR_RETURN_NOT_OK(CheckIngress(type));
  auto pub = published_.find(type);
  if (pub == published_.end() || pub->second.count(original.id) == 0) {
    return Status::NotFound(
        StrCat("retraction references event ", original.id,
               " never published on '", type, "'"));
  }
  if (new_end >= original.ve) {
    return Status::InvalidArgument(
        "retractions only shrink lifetimes (new end must be smaller)");
  }
  if (new_end < original.vs) {
    return Status::InvalidArgument(
        StrCat("retraction of event ", original.id, " ends at ", new_end,
               ", before its start ", original.vs));
  }
  return Route(type, RetractOf(original, new_end, next_cs_++));
}

Status CedrService::PublishSyncPoint(const std::string& type, Time t) {
  CEDR_RETURN_NOT_OK(CheckIngress(type));
  auto it = last_sync_.find(type);
  if (it != last_sync_.end() && t <= it->second) {
    return Status::InvalidArgument(
        StrCat("sync point ", t, " on '", type,
               "' does not advance past the previous sync point ",
               it->second));
  }
  CEDR_RETURN_NOT_OK(Route(type, CtiOf(t, next_cs_++)));
  last_sync_[type] = t;
  return Status::OK();
}

Status CedrService::Finish() {
  if (finished_) return Status::OK();
  finished_ = true;
  for (auto& [name, query] : queries_) {
    CEDR_RETURN_NOT_OK(query->Finish());
  }
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
  w->PutTime(next_cs_);
  w->PutBool(finished_);
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
  w->PutU64(queries_.size());
  for (const auto& [name, query] : queries_) {
    if (query->text().empty()) {
      return Status::ExecutionError(
          StrCat("query '", name,
                 "' was built programmatically and cannot be checkpointed "
                 "(no text to recompile on restore)"));
    }
    w->PutString(name);
    w->PutString(query->text());
    io::WriteSpec(w, query->bound().spec);
    io::BinaryWriter frame;
    CEDR_RETURN_NOT_OK(query->Snapshot(&frame));
    w->PutString(frame.Take());
  }
  return Status::OK();
}

Result<std::unique_ptr<CedrService>> CedrService::Restore(
    io::BinaryReader* r) {
  auto service = std::make_unique<CedrService>();
  CEDR_ASSIGN_OR_RETURN(service->next_cs_, r->GetTime());
  CEDR_ASSIGN_OR_RETURN(service->finished_, r->GetBool());
  CEDR_ASSIGN_OR_RETURN(uint64_t num_types, r->GetU64());
  for (uint64_t i = 0; i < num_types; ++i) {
    CEDR_ASSIGN_OR_RETURN(std::string name, r->GetString());
    CEDR_ASSIGN_OR_RETURN(SchemaPtr schema, io::ReadSchema(r));
    if (schema == nullptr) {
      return Status::Corruption(
          StrCat("checkpointed event type '", name, "' has no schema"));
    }
    service->catalog_.emplace(std::move(name), std::move(schema));
  }
  CEDR_ASSIGN_OR_RETURN(uint64_t num_published, r->GetU64());
  for (uint64_t i = 0; i < num_published; ++i) {
    CEDR_ASSIGN_OR_RETURN(std::string type, r->GetString());
    CEDR_ASSIGN_OR_RETURN(uint64_t num_ids, r->GetU64());
    std::set<EventId>& ids = service->published_[type];
    for (uint64_t j = 0; j < num_ids; ++j) {
      CEDR_ASSIGN_OR_RETURN(EventId id, r->GetU64());
      ids.insert(id);
    }
  }
  CEDR_ASSIGN_OR_RETURN(uint64_t num_syncs, r->GetU64());
  for (uint64_t i = 0; i < num_syncs; ++i) {
    CEDR_ASSIGN_OR_RETURN(std::string type, r->GetString());
    CEDR_ASSIGN_OR_RETURN(Time t, r->GetTime());
    service->last_sync_[type] = t;
  }
  CEDR_ASSIGN_OR_RETURN(uint64_t num_queries, r->GetU64());
  for (uint64_t i = 0; i < num_queries; ++i) {
    CEDR_ASSIGN_OR_RETURN(std::string name, r->GetString());
    CEDR_ASSIGN_OR_RETURN(std::string text, r->GetString());
    CEDR_ASSIGN_OR_RETURN(ConsistencySpec spec, io::ReadSpec(r));
    CEDR_ASSIGN_OR_RETURN(std::string frame, r->GetString());
    CEDR_ASSIGN_OR_RETURN(
        std::unique_ptr<CompiledQuery> query,
        CompiledQuery::Compile(text, service->catalog_, spec));
    if (query->bound().name != name) {
      return Status::Corruption(
          StrCat("checkpointed query '", name, "' recompiled as '",
                 query->bound().name, "'"));
    }
    io::BinaryReader frame_reader(frame);
    CEDR_RETURN_NOT_OK(query->Restore(&frame_reader));
    CEDR_RETURN_NOT_OK(frame_reader.ExpectEnd());
    service->queries_.emplace(std::move(name), std::move(query));
  }
  return service;
}

}  // namespace cedr
