#include "pattern/sequence.h"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "common/flat_order.h"
#include "io/serde.h"

namespace cedr {

namespace {

// A correlation value as a partition key: keys are equal wherever
// Value::Compare finds the values equal (NaN aside, see StoreKey), so
// numbers key by their double value (int64 1 and double 1.0 share a
// partition) and a null or missing value keys as null.
Value PartitionKey(const Value* v) {
  if (v == nullptr) return Value();
  switch (v->type()) {
    case ValueType::kInt64:
      return Value(static_cast<double>(v->AsInt64()));
    case ValueType::kDouble:
      return Value(v->AsDouble() == 0 ? 0.0 : v->AsDouble());  // -0 == 0
    default:
      return *v;
  }
}

bool IsNaN(const Value& key) {
  return key.type() == ValueType::kDouble && std::isnan(key.AsDouble());
}

// Whether two lineages hold the same contributor ids in the same order,
// which gives their composites the same id.
bool SameContributors(const Lineage& a, const Lineage& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i]->id != b[i]->id) return false;
  }
  return true;
}

}  // namespace

CandidateStore::iterator CandidateStore::Position(Time vs, EventId id) {
  return LowerPlace(entries_.begin(), entries_.end(), std::make_pair(vs, id),
                    [](const Entry& a) { return std::make_pair(a.vs, a.id); });
}

std::pair<CandidateStore::iterator, bool> CandidateStore::Emplace(EventRef e) {
  const Time vs = e->vs;
  const EventId id = e->id;
  auto it = Position(vs, id);
  if (it != entries_.end() && it->vs == vs && it->id == id) return {it, false};
  return {entries_.insert(it, Entry{vs, id, std::move(e), false, {}}), true};
}

void CandidateStore::Merge(CandidateStore&& other) {
  for (Entry& entry : other.entries_) {
    auto [it, inserted] = Emplace(entry.event);
    if (!inserted && it->consumed && !entry.consumed) {
      it->event = std::move(entry.event);
      it->consumed = false;
    } else if (inserted) {
      it->consumed = entry.consumed;
    }
    it->composites.insert(it->composites.end(), entry.composites.begin(),
                          entry.composites.end());
  }
  other.entries_.clear();
}

CandidateStore::iterator CandidateStore::lower_bound(Time vs) {
  return std::partition_point(entries_.begin(), entries_.end(),
                              [vs](const Entry& a) { return a.vs < vs; });
}

CandidateStore::iterator CandidateStore::find(Time vs, EventId id) {
  auto it = Position(vs, id);
  return it != entries_.end() && it->vs == vs && it->id == id ? it
                                                              : entries_.end();
}

PatternOp::PatternOp(size_t n, bool ordered, int num_inputs, Duration scope,
                     PatternTuplePredicate predicate, ScModes sc_modes,
                     SchemaPtr output_schema, ConsistencySpec spec,
                     std::vector<FieldSlot> partition_key)
    : Operator(ordered ? "sequence" : "atleast", spec, num_inputs),
      n_(n),
      ordered_(ordered),
      scope_(scope),
      predicate_(predicate ? std::move(predicate) : TruePatternPredicate()),
      sc_modes_(std::move(sc_modes)),
      output_schema_(std::move(output_schema)),
      stores_(num_inputs),
      partition_key_(std::move(partition_key)),
      scan_(num_inputs),
      used_(num_inputs, false) {
  sc_modes_.resize(num_inputs);
  if (partition_key_.size() != static_cast<size_t>(num_inputs)) {
    partition_key_.clear();
  }
  tuple_.reserve(n);
  owners_.reserve(n);
  ports_.reserve(n);
}

size_t PatternOp::StateSize() const {
  return stored_ + live_composites_ - consumed_;
}

Value PatternOp::KeyOf(const Event& e, int port) const {
  if (partition_key_.empty()) return Value();
  return PartitionKey(partition_key_[port].Fetch(e.payload));
}

Value PatternOp::StoreKey(const Event& e, int port) {
  Value key = KeyOf(e, port);
  if (!IsNaN(key)) return key;
  partition_key_.clear();
  stored_ = 0;
  consumed_ = 0;
  for (Partitions& parts : stores_) {
    Store merged;
    for (auto& [k, s] : parts) merged.Merge(std::move(s));
    parts.clear();
    stored_ += merged.size();
    for (const Entry& entry : merged) consumed_ += entry.consumed;
    if (!merged.empty()) parts.emplace(Value(), std::move(merged));
  }
  return Value();
}

PatternOp::Store* PatternOp::Find(const Event& e, int port,
                                  Store::iterator* it) {
  Partitions& parts = stores_[port];
  auto home = parts.find(KeyOf(e, port));
  if (home != parts.end()) {
    *it = home->second.find(e.vs, e.id);
    if (*it != home->second.end()) return &home->second;
  }
  for (auto& [key, s] : parts) {
    *it = s.find(e.vs, e.id);
    if (*it != s.end()) return &s;
  }
  return nullptr;
}

PatternOp::Entry* PatternOp::Stored(const Event& e, int port) {
  Partitions& parts = stores_[port];
  auto home = parts.find(KeyOf(e, port));
  if (home == parts.end()) return nullptr;
  auto it = home->second.find(e.vs, e.id);
  return it == home->second.end() ? nullptr : &*it;
}

Status PatternOp::ProcessInsert(const Event& e, int port) {
  if (e.valid().empty()) return Status::OK();
  Value key = StoreKey(e, port);
  // On a duplicate (Vs, id) the stored event stays and the arrival is
  // still enumerated as it came.
  EventRef ref = std::make_shared<const Event>(e);
  auto [entry, inserted] = stores_[port][key].Emplace(ref);
  stored_ += inserted;
  if (entry->consumed) {
    // A consumed entry is no candidate any more: the arrival replaces it.
    entry->event = ref;
    entry->consumed = false;
    --consumed_;
  }
  anchor_entry_ = &*entry;
  arrival_entries_.clear();
  for (int p = 0; p < num_inputs(); ++p) {
    if (p == port) continue;
    if (Entry* other = Stored(e, p)) arrival_entries_.push_back(other);
  }
  shared_events_ |= !arrival_entries_.empty();
  if (shared_events_ || !inserted) arrival_entries_.push_back(anchor_entry_);
  for (int p = 0; p < num_inputs(); ++p) {
    auto it = stores_[p].find(key);
    scan_[p] = it == stores_[p].end() ? &no_candidates_ : &it->second;
  }
  Extend(ref, port);
  // Consumption is applied after enumeration so one arrival sees a
  // consistent candidate snapshot.
  for (Entry* consumed : pending_consumption_) {
    if (consumed->consumed) continue;
    consumed->consumed = true;
    ++consumed_;
  }
  pending_consumption_.clear();
  return Status::OK();
}

Status PatternOp::ProcessRetract(const Event& e, Time new_ve, int port) {
  Store::iterator it;
  Store* s = Find(e, port, &it);
  if (new_ve > e.vs) {
    // A partial shrink does not affect sequencing (a contributor occurs
    // at its Vs). Copy on write: composites already emitted keep the
    // contributor as it was when they were built.
    if (s != nullptr && new_ve < it->event->ve) {
      auto shrunk = std::make_shared<Event>(*it->event);
      shrunk->ve = new_ve;
      it->event = std::move(shrunk);
    }
    return Status::OK();
  }
  // A full removal invalidates every composite the contributor is part
  // of. A self-join stores it on several ports, each entry holding the
  // composites that bound it there; they are retracted in recording
  // order.
  std::vector<CompositeRecord*> invalidated;
  const Event& stored = s != nullptr ? *it->event : e;
  for (int p = 0; p < num_inputs(); ++p) {
    const Entry* entry =
        p == port ? (s != nullptr ? &*it : nullptr) : Stored(stored, p);
    if (entry == nullptr) continue;
    for (const CompositeRecordRef& c : entry->composites) {
      if (c->live()) invalidated.push_back(c.get());
    }
  }
  std::sort(invalidated.begin(), invalidated.end(),
            [](const CompositeRecord* a, const CompositeRecord* b) {
              return a->seq < b->seq;
            });
  if ((s == nullptr || it->consumed) && invalidated.empty()) {
    CountLostCorrection();
  }
  for (CompositeRecord* c : invalidated) {
    Event composite =
        MakeCompositeEvent(std::move(c->cbt), scope_, output_schema_);
    --live_composites_;
    EmitRetract(composite, composite.vs);
  }
  if (s != nullptr) {
    // An emptied partition goes at the next trim.
    consumed_ -= it->consumed;
    --stored_;
    s->erase(it);
  }
  return Status::OK();
}

void PatternOp::TrimState(Time horizon) {
  for (Partitions& parts : stores_) {
    for (auto pit = parts.begin(); pit != parts.end();) {
      // A candidate can still combine with future events (sync >=
      // horizon) only while its Vs + scope reaches the horizon; the
      // partition is ordered by Vs. A composite's Ve is its earliest
      // contributor's Vs + scope, so it expires with that entry.
      Store& s = pit->second;
      s.ErasePrefixWhile([&](const Entry& entry) {
        if (TimeAdd(entry.vs, scope_) > horizon) return false;
        for (const CompositeRecordRef& c : entry.composites) {
          live_composites_ -= c->live();
          c->cbt = Lineage();
        }
        consumed_ -= entry.consumed;
        --stored_;
        return true;
      });
      pit = s.empty() ? parts.erase(pit) : std::next(pit);
    }
  }
}

void PatternOp::Extend(const EventRef& anchor, int anchor_port) {
  const size_t depth = tuple_.size();
  const bool anchor_placed = used_[anchor_port];
  if (depth == n_) {
    if (anchor_placed) EmitComposite(anchor, anchor_port);
    return;
  }
  // The candidate range [lo, hi): [anchor.Vs - w, anchor.Vs) while the
  // anchor is unplaced, (prev.Vs, first.Vs + w] once it is placed.
  Time lo = depth == 0 ? kMinTime : TimeAdd(tuple_.back()->vs, 1);
  Time hi = anchor->vs;
  if (anchor_placed) {
    hi = TimeAdd(TimeAdd(tuple_.front()->vs, scope_), 1);
  } else if (scope_ != kInfinity) {
    lo = std::max(lo, TimeSub(anchor->vs, scope_));
  }
  // An unplaced anchor must take the last free position.
  const bool anchor_only = !anchor_placed && depth + 1 == n_;
  const int first = ordered_ ? static_cast<int>(depth) : 0;
  const int last = ordered_ ? first + 1 : num_inputs();
  for (int p = first; p < last; ++p) {
    if (used_[p]) continue;
    if (p == anchor_port) {
      Try(anchor_entry_, p, anchor, anchor_port);
      continue;
    }
    if (anchor_only) continue;
    // Consumed entries are no candidates.
    Store& s = *scan_[p];
    auto it = s.lower_bound(lo);
    switch (sc_modes_[p].selection) {
      case SelectionMode::kFirst:
        while (it != s.end() && it->consumed) ++it;
        if (it != s.end() && it->vs < hi) {
          Try(&*it, p, anchor, anchor_port);
        }
        break;
      case SelectionMode::kLast: {
        auto end = s.lower_bound(hi);
        while (end != it && std::prev(end)->consumed) --end;
        if (end != it) {
          Try(&*std::prev(end), p, anchor, anchor_port);
        }
        break;
      }
      case SelectionMode::kEach:
        for (; it != s.end() && it->vs < hi; ++it) {
          if (!it->consumed) Try(&*it, p, anchor, anchor_port);
        }
        break;
    }
  }
}

void PatternOp::Try(Entry* owner, int port, const EventRef& anchor,
                    int anchor_port) {
  tuple_.push_back(port == anchor_port ? anchor.get() : owner->event.get());
  owners_.push_back(owner);
  ports_.push_back(port);
  used_[port] = true;
  if (predicate_(tuple_, ports_)) Extend(anchor, anchor_port);
  used_[port] = false;
  ports_.pop_back();
  owners_.pop_back();
  tuple_.pop_back();
}

void PatternOp::EmitComposite(const EventRef& anchor, int anchor_port) {
  // Contributors sit in port (declaration) order, whatever order the
  // enumeration bound them in. The anchor is bound as it arrived.
  Lineage::List contributors;
  contributors.reserve(owners_.size());
  for (int p = 0; p < num_inputs(); ++p) {
    if (!used_[p]) continue;
    if (p == anchor_port) {
      contributors.push_back(anchor);
      continue;
    }
    auto i = std::find(ports_.begin(), ports_.end(), p) - ports_.begin();
    contributors.push_back(owners_[i]->event);
  }
  Event composite =
      MakeCompositeEvent(std::move(contributors), scope_, output_schema_);
  // A tuple spanning exactly the scope has an empty lifetime: no match.
  if (composite.valid().empty()) return;
  // A match that rebuilds a live composite (same contributors, so the
  // same id) gives its record the new lineage; the record keeps its
  // place.
  CompositeRecord* same = nullptr;
  for (Entry* entry : arrival_entries_) {
    for (const CompositeRecordRef& c : entry->composites) {
      if (c->live() && SameContributors(c->cbt, composite.cbt)) same = c.get();
    }
  }
  if (same != nullptr) {
    same->cbt = composite.cbt;
  } else {
    auto record = std::make_shared<CompositeRecord>(composite.cbt, next_seq_++);
    for (Entry* owner : owners_) owner->composites.push_back(record);
    ++live_composites_;
  }
  for (size_t i = 0; i < owners_.size(); ++i) {
    if (sc_modes_[ports_[i]].consumption == ConsumptionMode::kConsume) {
      pending_consumption_.push_back(owners_[i]);
    }
  }
  EmitInsert(std::move(composite));
}

void PatternOp::SnapshotState(io::BinaryWriter* w) const {
  // The live composites, each once, in recording order; an entry names
  // its composites by their position in this list.
  std::vector<const CompositeRecord*> live;
  for (const Partitions& parts : stores_) {
    for (const auto& [key, s] : parts) {
      for (const Entry& entry : s) {
        for (const CompositeRecordRef& c : entry.composites) {
          if (c->live()) live.push_back(c.get());
        }
      }
    }
  }
  auto by_seq = [](const CompositeRecord* a, const CompositeRecord* b) {
    return a->seq < b->seq;
  };
  std::sort(live.begin(), live.end(), by_seq);
  live.erase(std::unique(live.begin(), live.end()), live.end());
  w->PutU64(live.size());
  for (const CompositeRecord* c : live) {
    io::WriteEvent(w, MakeCompositeEvent(c->cbt, scope_, output_schema_));
  }

  w->PutBool(shared_events_);
  w->PutU64(stores_.size());
  std::vector<const Entry*> merged;
  for (const Partitions& parts : stores_) {
    merged.clear();
    for (const auto& [key, s] : parts) {
      for (const Entry& entry : s) merged.push_back(&entry);
    }
    std::sort(merged.begin(), merged.end(), [](const auto* a, const auto* b) {
      return std::make_pair(a->vs, a->id) < std::make_pair(b->vs, b->id);
    });
    w->PutU64(merged.size());
    for (const Entry* entry : merged) {
      io::WriteEvent(w, *entry->event);
      w->PutBool(entry->consumed);
      uint64_t num_live = 0;
      for (const CompositeRecordRef& c : entry->composites) {
        num_live += c->live();
      }
      w->PutU64(num_live);
      for (const CompositeRecordRef& c : entry->composites) {
        if (!c->live()) continue;
        w->PutU64(std::lower_bound(live.begin(), live.end(), c.get(), by_seq) -
                  live.begin());
      }
    }
  }
}

Status PatternOp::RestoreState(io::BinaryReader* r) {
  for (Partitions& parts : stores_) parts.clear();
  stored_ = 0;
  consumed_ = 0;
  CEDR_ASSIGN_OR_RETURN(uint64_t num_composites, r->GetU64());
  std::vector<CompositeRecordRef> composites;
  for (uint64_t i = 0; i < num_composites; ++i) {
    CEDR_ASSIGN_OR_RETURN(Event e, io::ReadEvent(r));
    if (e.cbt.empty() ||
        MakeCompositeEvent(e.cbt, scope_, output_schema_).id != e.id) {
      return Status::Corruption("pattern snapshot: composite id mismatch");
    }
    composites.push_back(
        std::make_shared<CompositeRecord>(std::move(e.cbt), i));
  }
  live_composites_ = composites.size();
  next_seq_ = composites.size();

  CEDR_ASSIGN_OR_RETURN(shared_events_, r->GetBool());
  CEDR_ASSIGN_OR_RETURN(uint64_t num_stores, r->GetU64());
  if (num_stores != stores_.size()) {
    return Status::Corruption("pattern snapshot: store count mismatch");
  }
  for (int port = 0; port < num_inputs(); ++port) {
    CEDR_ASSIGN_OR_RETURN(uint64_t n, r->GetU64());
    for (uint64_t i = 0; i < n; ++i) {
      CEDR_ASSIGN_OR_RETURN(Event e, io::ReadEvent(r));
      Value key = StoreKey(e, port);
      auto [it, inserted] = stores_[port][key].Emplace(
          std::make_shared<const Event>(std::move(e)));
      stored_ += inserted;
      Entry* entry = &*it;
      CEDR_ASSIGN_OR_RETURN(entry->consumed, r->GetBool());
      consumed_ += entry->consumed;
      CEDR_ASSIGN_OR_RETURN(uint64_t num_owned, r->GetU64());
      for (uint64_t j = 0; j < num_owned; ++j) {
        CEDR_ASSIGN_OR_RETURN(uint64_t pos, r->GetU64());
        if (pos >= composites.size()) {
          return Status::Corruption("pattern snapshot: unknown composite");
        }
        entry->composites.push_back(composites[pos]);
      }
    }
  }
  return Status::OK();
}

}  // namespace cedr
