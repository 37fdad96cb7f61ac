#include "pattern/counting.h"

#include <algorithm>

namespace cedr {

AtLeastOp::AtLeastOp(size_t n, int num_inputs, Duration scope,
                     PatternTuplePredicate predicate, ScModes sc_modes,
                     SchemaPtr output_schema, ConsistencySpec spec,
                     std::vector<FieldSlot> partition_key, std::string name)
    : PatternOpBase(num_inputs, scope, std::move(predicate),
                    std::move(sc_modes), std::move(output_schema), spec,
                    std::move(name), std::move(partition_key)),
      n_(n),
      used_(num_inputs, false) {}

Status AtLeastOp::OnNewCandidate(const EventRef& e, int port) {
  if (n_ == 0 || n_ > static_cast<size_t>(num_inputs())) return Status::OK();
  Extend(/*anchor_used=*/false, e, port);
  return Status::OK();
}

void AtLeastOp::Extend(bool anchor_used, const EventRef& anchor,
                       int anchor_port) {
  const std::vector<const Event*>& tuple = this->tuple();
  if (tuple.size() == n_) {
    if (anchor_used) EmitComposite();
    return;
  }
  // Pruning: if the anchor has not been placed yet, it must still fit
  // after the current prefix (strictly increasing Vs).
  const Time prev_vs = tuple.empty() ? kMinTime : tuple.back()->vs;
  if (!anchor_used && !used_[anchor_port] && anchor->vs <= prev_vs) {
    return;  // the anchor can no longer be placed
  }

  auto try_candidate = [&](const EventRef& candidate, int port,
                           bool is_anchor) -> bool {
    if (!tuple.empty()) {
      if (candidate->vs <= tuple.back()->vs) return false;
      if (candidate->vs - tuple.front()->vs > scope_) return false;
    }
    used_[port] = true;
    Bind(candidate, port);
    if (MatchSoFar()) Extend(anchor_used || is_anchor, anchor, anchor_port);
    Unbind();
    used_[port] = false;
    return true;
  };

  for (int p = 0; p < num_inputs(); ++p) {
    if (used_[p]) continue;
    if (p == anchor_port && !anchor_used) {
      // New matches must involve the anchor, and each chosen port
      // contributes one event, so the anchor's port contributes exactly
      // the anchor.
      try_candidate(anchor, p, /*is_anchor=*/true);
      continue;
    }
    Time lo = tuple.empty() ? kMinTime : TimeAdd(tuple.back()->vs, 1);
    const Store& s = scan(p);
    const SelectionMode mode = ModeOf(p).selection;
    auto begin = s.lower_bound(lo);
    if (mode == SelectionMode::kLast) {
      Time hi = tuple.empty()
                    ? kInfinity
                    : TimeAdd(TimeAdd(tuple.front()->vs, scope_), 1);
      auto end = hi == kInfinity ? s.end() : s.lower_bound(hi);
      while (end != begin) {
        --end;
        if (end->id == anchor->id) continue;
        if (try_candidate(end->event, p, false)) break;
      }
      continue;
    }
    for (auto it = begin; it != s.end(); ++it) {
      if (!tuple.empty() && it->vs - tuple.front()->vs > scope_) break;
      if (it->id == anchor->id) continue;
      bool admissible = try_candidate(it->event, p, false);
      if (admissible && mode == SelectionMode::kFirst) break;
    }
  }
}

AtMostOp::AtMostOp(size_t n, int num_inputs, Duration scope,
                   PatternTuplePredicate predicate, ConsistencySpec spec,
                   std::string name)
    : Operator(std::move(name), spec, num_inputs),
      n_(n),
      scope_(scope),
      predicate_(predicate ? std::move(predicate) : TruePatternPredicate()) {
  trim_on_advance_ = true;  // pure trim keyed on (Vs + scope, horizon)
}

size_t AtMostOp::StateSize() const {
  return pool_.size() + tracked_.size();
}

size_t AtMostOp::CountWindow(Time vs) const {
  // Events with Vs in (vs - scope, vs].
  auto begin = pool_.lower_bound(
      std::make_pair(TimeAdd(TimeSub(vs, scope_), 1), EventId{0}));
  size_t count = 0;
  for (auto it = begin; it != pool_.end(); ++it) {
    if (it->first.first > vs) break;
    ++count;
  }
  return count;
}

void AtMostOp::Evaluate(Tracked* t) {
  const bool want =
      t->eligible && CountWindow(t->source.vs) <= n_;
  if (want == t->emitted) return;
  if (want) {
    Event composite = MakeCompositeEvent(
        {std::make_shared<const Event>(t->source)}, scope_, nullptr);
    if (t->generation > 0) {
      composite.id = IdGen({composite.id, t->generation});
      composite.k = composite.id;
    }
    ++t->generation;
    t->composite = composite;
    t->emitted = true;
    EmitInsert(std::move(composite));
  } else {
    EmitRetract(t->composite, t->composite.vs);
    t->emitted = false;
  }
}

void AtMostOp::Reevaluate(Time vs) {
  // Tracked events g with vs in (g.Vs - scope, g.Vs], i.e. g.Vs in
  // [vs, vs + scope).
  auto begin = pool_.lower_bound(std::make_pair(vs, EventId{0}));
  for (auto it = begin; it != pool_.end(); ++it) {
    if (it->first.first >= TimeAdd(vs, scope_)) break;
    auto tit = tracked_.find(it->second);
    if (tit != tracked_.end()) Evaluate(&tit->second);
  }
}

Status AtMostOp::ProcessInsert(const Event& e, int port) {
  if (e.valid().empty()) return Status::OK();
  pool_.emplace(std::make_pair(e.vs, e.id), e.id);
  Tracked t;
  t.source = e;
  std::vector<const Event*> tuple = {&t.source};
  t.eligible = predicate_(tuple, {port});
  tracked_.emplace(e.id, std::move(t));
  Reevaluate(e.vs);
  return Status::OK();
}

Status AtMostOp::ProcessRetract(const Event& e, Time new_ve, int /*port*/) {
  if (new_ve > e.vs) return Status::OK();  // partial shrink: Vs intact
  auto pit = pool_.find(std::make_pair(e.vs, e.id));
  if (pit == pool_.end()) {
    CountLostCorrection();
    return Status::OK();
  }
  pool_.erase(pit);
  auto tit = tracked_.find(e.id);
  if (tit != tracked_.end()) {
    if (tit->second.emitted) {
      EmitRetract(tit->second.composite, tit->second.composite.vs);
    }
    tracked_.erase(tit);
  }
  Reevaluate(e.vs);
  return Status::OK();
}

void AtMostOp::TrimState(Time horizon) {
  while (!pool_.empty()) {
    Time vs = pool_.begin()->first.first;
    // An event can still affect (or be affected by) arrivals with sync
    // >= horizon while vs + scope > horizon.
    if (TimeAdd(vs, scope_) > horizon) break;
    tracked_.erase(pool_.begin()->second);
    pool_.erase(pool_.begin());
  }
}

void AtMostOp::SnapshotState(io::BinaryWriter* w) const {
  w->PutU64(pool_.size());
  for (const auto& [key, id] : pool_) {
    w->PutTime(key.first);
    w->PutU64(key.second);
    w->PutU64(id);
  }
  // Tracked entries sorted by source id for deterministic bytes (all
  // access goes through pool_, which is ordered).
  std::map<EventId, const Tracked*> sorted;
  for (const auto& [id, t] : tracked_) sorted.emplace(id, &t);
  w->PutU64(sorted.size());
  for (const auto& [id, t] : sorted) {
    w->PutU64(id);
    io::WriteEvent(w, t->source);
    io::WriteEvent(w, t->composite);
    w->PutBool(t->emitted);
    w->PutBool(t->eligible);
    w->PutU64(t->generation);
  }
}

Status AtMostOp::RestoreState(io::BinaryReader* r) {
  pool_.clear();
  tracked_.clear();
  CEDR_ASSIGN_OR_RETURN(uint64_t pool_size, r->GetU64());
  for (uint64_t i = 0; i < pool_size; ++i) {
    std::pair<Time, EventId> key;
    CEDR_ASSIGN_OR_RETURN(key.first, r->GetTime());
    CEDR_ASSIGN_OR_RETURN(key.second, r->GetU64());
    CEDR_ASSIGN_OR_RETURN(EventId id, r->GetU64());
    pool_.emplace(key, id);
  }
  CEDR_ASSIGN_OR_RETURN(uint64_t num_tracked, r->GetU64());
  for (uint64_t i = 0; i < num_tracked; ++i) {
    CEDR_ASSIGN_OR_RETURN(EventId id, r->GetU64());
    Tracked t;
    CEDR_ASSIGN_OR_RETURN(t.source, io::ReadEvent(r));
    CEDR_ASSIGN_OR_RETURN(t.composite, io::ReadEvent(r));
    CEDR_ASSIGN_OR_RETURN(t.emitted, r->GetBool());
    CEDR_ASSIGN_OR_RETURN(t.eligible, r->GetBool());
    CEDR_ASSIGN_OR_RETURN(t.generation, r->GetU64());
    tracked_.emplace(id, std::move(t));
  }
  return Status::OK();
}

}  // namespace cedr
