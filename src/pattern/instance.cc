#include "pattern/instance.h"

#include <algorithm>
#include <map>

namespace cedr {

Event MakeCompositeEvent(Lineage tuple, Duration w, const SchemaPtr& schema) {
  const Event* first = tuple.front().get();
  const Event* last = first;
  Event out;
  IdGenMix id;
  size_t width = 0;
  out.rt = kInfinity;
  for (const EventRef& e : tuple) {
    id.Add(e->id);
    width += e->payload.size();
    out.rt = std::min(out.rt, e->rt);
    if (e->vs < first->vs) first = e.get();
    if (e->vs > last->vs) last = e.get();
  }
  out.id = id.id();
  out.k = out.id;
  out.os = last->os;
  out.oe = last->oe;
  out.vs = last->vs;
  out.ve = TimeAdd(first->vs, w);
  std::vector<Value> values;
  values.reserve(width);
  for (const EventRef& e : tuple) {
    values.insert(values.end(), e->payload.values().begin(),
                  e->payload.values().end());
  }
  out.payload = Row(schema, std::move(values));
  out.cbt = std::move(tuple);
  return out;
}

void CompositeIndex::Record(const Event& composite) {
  composites_[composite.id] = Recorded{composite.ve, composite.cbt};
  for (const EventRef& c : composite.cbt) {
    by_contributor_[c->id].push_back(composite.id);
  }
}

std::vector<Event> CompositeIndex::TakeByContributor(EventId contributor) {
  std::vector<Event> out;
  auto it = by_contributor_.find(contributor);
  if (it == by_contributor_.end()) return out;
  for (EventId id : it->second) {
    auto cit = composites_.find(id);
    if (cit == composites_.end()) continue;
    out.push_back(Rebuild(cit->second));
    composites_.erase(cit);
  }
  by_contributor_.erase(it);
  return out;
}

void CompositeIndex::Trim(Time horizon) {
  for (auto it = composites_.begin(); it != composites_.end();) {
    if (it->second.ve <= horizon) {
      it = composites_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = by_contributor_.begin(); it != by_contributor_.end();) {
    auto& ids = it->second;
    ids.erase(std::remove_if(ids.begin(), ids.end(),
                             [this](EventId id) {
                               return composites_.count(id) == 0;
                             }),
              ids.end());
    if (ids.empty()) {
      it = by_contributor_.erase(it);
    } else {
      ++it;
    }
  }
}

void CompositeIndex::Snapshot(io::BinaryWriter* w) const {
  // Sorted by id for deterministic snapshot bytes; lookups are by key so
  // map order does not affect behavior.
  std::map<EventId, const Recorded*> sorted;
  for (const auto& [id, c] : composites_) sorted.emplace(id, &c);
  w->PutU64(sorted.size());
  for (const auto& [id, c] : sorted) io::WriteEvent(w, Rebuild(*c));

  std::map<EventId, const std::vector<EventId>*> index;
  for (const auto& [id, ids] : by_contributor_) index.emplace(id, &ids);
  w->PutU64(index.size());
  for (const auto& [contributor, ids] : index) {
    w->PutU64(contributor);
    w->PutU64(ids->size());
    for (EventId id : *ids) w->PutU64(id);
  }
}

Status CompositeIndex::Restore(io::BinaryReader* r) {
  composites_.clear();
  by_contributor_.clear();
  CEDR_ASSIGN_OR_RETURN(uint64_t num_composites, r->GetU64());
  for (uint64_t i = 0; i < num_composites; ++i) {
    CEDR_ASSIGN_OR_RETURN(Event e, io::ReadEvent(r));
    Recorded c{e.ve, std::move(e.cbt)};
    if (c.cbt.empty() || Rebuild(c).id != e.id) {
      return Status::Corruption("pattern snapshot: composite id mismatch");
    }
    composites_.emplace(e.id, std::move(c));
  }
  CEDR_ASSIGN_OR_RETURN(uint64_t num_contributors, r->GetU64());
  for (uint64_t i = 0; i < num_contributors; ++i) {
    CEDR_ASSIGN_OR_RETURN(EventId contributor, r->GetU64());
    CEDR_ASSIGN_OR_RETURN(uint64_t num_ids, r->GetU64());
    std::vector<EventId> ids;
    ids.reserve(num_ids);
    for (uint64_t j = 0; j < num_ids; ++j) {
      CEDR_ASSIGN_OR_RETURN(EventId id, r->GetU64());
      ids.push_back(id);
    }
    by_contributor_.emplace(contributor, std::move(ids));
  }
  return Status::OK();
}

}  // namespace cedr
