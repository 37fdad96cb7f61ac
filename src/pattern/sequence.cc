#include "pattern/sequence.h"

#include <algorithm>
#include <cmath>

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

}  // namespace

bool CandidateStore::Before(const Entry& a, Time vs, EventId id) {
  return a.vs < vs || (a.vs == vs && a.id < id);
}

CandidateStore::iterator CandidateStore::Position(Time vs, EventId id) {
  return std::partition_point(
      entries_.begin(), entries_.end(),
      [vs, id](const Entry& a) { return Before(a, vs, id); });
}

bool CandidateStore::Insert(EventRef e) {
  const Time vs = e->vs;
  const EventId id = e->id;
  // In-order arrivals append; anything else goes through binary search.
  auto it = entries_.empty() || Before(entries_.back(), vs, id)
                ? entries_.end()
                : Position(vs, id);
  if (it != entries_.end() && it->vs == vs && it->id == id) return false;
  entries_.insert(it, Entry{vs, id, std::move(e)});
  return true;
}

void CandidateStore::Merge(CandidateStore&& other) {
  for (Entry& entry : other.entries_) Insert(std::move(entry.event));
  other.entries_.clear();
}

CandidateStore::const_iterator CandidateStore::lower_bound(Time vs) const {
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
      emitted_(scope_, output_schema_),
      stores_(num_inputs),
      partition_key_(std::move(partition_key)),
      scan_(num_inputs),
      used_(num_inputs, false) {
  sc_modes_.resize(num_inputs);
  if (partition_key_.size() != static_cast<size_t>(num_inputs)) {
    partition_key_.clear();
  }
  tuple_.reserve(n);
  refs_.reserve(n);
  ports_.reserve(n);
  // TrimState here is a pure trim keyed on (Vs + scope, horizon): safe
  // to run only when the horizon advances.
  trim_on_advance_ = true;
}

size_t PatternOp::StateSize() const {
  size_t n = emitted_.size();
  for (const Partitions& parts : stores_) {
    for (const auto& [key, s] : parts) n += s.size();
  }
  return n;
}

Value PatternOp::KeyOf(const Event& e, int port) const {
  if (partition_key_.empty()) return Value();
  return PartitionKey(partition_key_[port].Fetch(e.payload));
}

Value PatternOp::StoreKey(const Event& e, int port) {
  Value key = KeyOf(e, port);
  if (!IsNaN(key)) return key;
  partition_key_.clear();
  for (Partitions& parts : stores_) {
    Store merged;
    for (auto& [k, s] : parts) merged.Merge(std::move(s));
    parts.clear();
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

void PatternOp::Erase(int port, Store* s, Store::iterator it) {
  s->erase(it);
  if (!s->empty()) return;
  Partitions& parts = stores_[port];
  for (auto pit = parts.begin(); pit != parts.end(); ++pit) {
    if (&pit->second == s) {
      parts.erase(pit);
      return;
    }
  }
}

Status PatternOp::ProcessInsert(const Event& e, int port) {
  if (e.valid().empty()) return Status::OK();
  Value key = StoreKey(e, port);
  // On a duplicate (Vs, id) the stored event stays and the arrival is
  // still enumerated as it came.
  EventRef ref = std::make_shared<const Event>(e);
  stores_[port][key].Insert(ref);
  static const Store kEmpty;
  for (int p = 0; p < num_inputs(); ++p) {
    auto it = stores_[p].find(key);
    scan_[p] = it == stores_[p].end() ? &kEmpty : &it->second;
  }
  Extend(ref, port);
  // Consumption is applied after enumeration so one arrival sees a
  // consistent candidate snapshot.
  for (const auto& [p, consumed] : pending_consumption_) {
    Store::iterator it;
    Store* s = Find(*consumed, p, &it);
    if (s != nullptr) Erase(p, s, it);
  }
  pending_consumption_.clear();
  return Status::OK();
}

Status PatternOp::ProcessRetract(const Event& e, Time new_ve, int port) {
  const bool full_removal = new_ve <= e.vs;
  Store::iterator it;
  Store* s = Find(e, port, &it);
  if (s != nullptr) {
    if (full_removal) {
      Erase(port, s, it);
    } else if (new_ve < it->event->ve) {
      // Copy on write: composites already emitted keep the contributor
      // as it was when they were built.
      auto shrunk = std::make_shared<Event>(*it->event);
      shrunk->ve = new_ve;
      it->event = std::move(shrunk);
    }
  }
  if (full_removal) {
    // Every composite this contributor participated in is invalidated.
    std::vector<Event> invalidated = emitted_.TakeByContributor(e.id);
    for (const Event& composite : invalidated) {
      EmitRetract(composite, composite.vs);
    }
    if (s == nullptr && invalidated.empty()) CountLostCorrection();
  }
  // Partial lifetime shrink does not affect sequencing (contributor
  // occurrence is its Vs), so nothing else to repair.
  return Status::OK();
}

void PatternOp::TrimState(Time horizon) {
  for (Partitions& parts : stores_) {
    for (auto pit = parts.begin(); pit != parts.end();) {
      // A candidate can still combine with future events (sync >=
      // horizon) only while its Vs + scope reaches the horizon; the
      // partition is ordered by Vs.
      Store& s = pit->second;
      s.ErasePrefixWhile([&](const Store::Entry& entry) {
        return TimeAdd(entry.vs, scope_) <= horizon;
      });
      pit = s.empty() ? parts.erase(pit) : std::next(pit);
    }
  }
  emitted_.Trim(horizon);
}

void PatternOp::Extend(const EventRef& anchor, int anchor_port) {
  const size_t depth = tuple_.size();
  const bool anchor_placed = used_[anchor_port];
  if (depth == n_) {
    if (anchor_placed) EmitComposite();
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
      Try(anchor, p, anchor, anchor_port);
      continue;
    }
    if (anchor_only) continue;
    const Store& s = *scan_[p];
    auto it = s.lower_bound(lo);
    switch (sc_modes_[p].selection) {
      case SelectionMode::kFirst:
        if (it != s.end() && it->vs < hi) {
          Try(it->event, p, anchor, anchor_port);
        }
        break;
      case SelectionMode::kLast: {
        auto end = s.lower_bound(hi);
        if (end != it) Try(std::prev(end)->event, p, anchor, anchor_port);
        break;
      }
      case SelectionMode::kEach:
        for (; it != s.end() && it->vs < hi; ++it) {
          Try(it->event, p, anchor, anchor_port);
        }
        break;
    }
  }
}

void PatternOp::Try(const EventRef& e, int port, const EventRef& anchor,
                    int anchor_port) {
  tuple_.push_back(e.get());
  refs_.push_back(&e);
  ports_.push_back(port);
  used_[port] = true;
  if (predicate_(tuple_, ports_)) Extend(anchor, anchor_port);
  used_[port] = false;
  ports_.pop_back();
  refs_.pop_back();
  tuple_.pop_back();
}

void PatternOp::EmitComposite() {
  // Contributors sit in port (declaration) order, whatever order the
  // enumeration bound them in.
  Lineage::List contributors;
  contributors.reserve(refs_.size());
  for (int p = 0; p < num_inputs(); ++p) {
    if (!used_[p]) continue;
    auto i = std::find(ports_.begin(), ports_.end(), p) - ports_.begin();
    contributors.push_back(*refs_[i]);
  }
  Event composite =
      MakeCompositeEvent(std::move(contributors), scope_, output_schema_);
  // A tuple spanning exactly the scope has an empty lifetime: no match.
  if (composite.valid().empty()) return;
  emitted_.Record(composite);
  for (size_t i = 0; i < refs_.size(); ++i) {
    if (sc_modes_[ports_[i]].consumption == ConsumptionMode::kConsume) {
      pending_consumption_.emplace_back(ports_[i], *refs_[i]);
    }
  }
  EmitInsert(std::move(composite));
}

void PatternOp::SnapshotState(io::BinaryWriter* w) const {
  w->PutU64(stores_.size());
  std::vector<const Store::Entry*> merged;
  for (const Partitions& parts : stores_) {
    merged.clear();
    for (const auto& [key, s] : parts) {
      for (const auto& entry : s) merged.push_back(&entry);
    }
    std::sort(merged.begin(), merged.end(), [](const auto* a, const auto* b) {
      return std::make_pair(a->vs, a->id) < std::make_pair(b->vs, b->id);
    });
    w->PutU64(merged.size());
    for (const auto* entry : merged) io::WriteEvent(w, *entry->event);
  }
  // Consumption is applied before ProcessInsert returns, so none is
  // pending between pushes; the count keeps the format.
  w->PutU64(0);
  emitted_.Snapshot(w);
}

Status PatternOp::RestoreState(io::BinaryReader* r) {
  CEDR_ASSIGN_OR_RETURN(uint64_t num_stores, r->GetU64());
  if (num_stores != stores_.size()) {
    return Status::Corruption("pattern snapshot: store count mismatch");
  }
  for (Partitions& parts : stores_) parts.clear();
  for (int port = 0; port < num_inputs(); ++port) {
    CEDR_ASSIGN_OR_RETURN(uint64_t n, r->GetU64());
    for (uint64_t i = 0; i < n; ++i) {
      CEDR_ASSIGN_OR_RETURN(Event e, io::ReadEvent(r));
      Value key = StoreKey(e, port);
      stores_[port][key].Insert(std::make_shared<const Event>(std::move(e)));
    }
  }
  CEDR_ASSIGN_OR_RETURN(uint64_t num_pending, r->GetU64());
  if (num_pending != 0) {
    return Status::Corruption("pattern snapshot: consumption left pending");
  }
  return emitted_.Restore(r);
}

}  // namespace cedr
