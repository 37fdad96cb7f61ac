#include "pattern/negation.h"

#include <algorithm>
#include <map>

#include "common/flat_order.h"
#include "pattern/instance.h"

namespace cedr {

namespace {

using BlockLoIndex = std::vector<std::pair<Time, EventId>>;

Time BlockLo(const std::pair<Time, EventId>& entry) { return entry.first; }

std::pair<Time, EventId> BlockerKey(const Event& e) { return {e.vs, e.id}; }

void WriteIndex(io::BinaryWriter* w, const BlockLoIndex& index) {
  w->PutU64(index.size());
  for (const auto& [t, id] : index) {
    w->PutTime(t);
    w->PutU64(id);
  }
}

Status ReadIndex(io::BinaryReader* r, BlockLoIndex* index) {
  index->clear();
  CEDR_ASSIGN_OR_RETURN(uint64_t n, r->GetU64());
  for (uint64_t i = 0; i < n; ++i) {
    CEDR_ASSIGN_OR_RETURN(Time t, r->GetTime());
    CEDR_ASSIGN_OR_RETURN(EventId id, r->GetU64());
    // Placing after equal keys preserves the serialized equal-key order.
    index->emplace(UpperPlace(index->begin(), index->end(), t, BlockLo), t,
                   id);
  }
  return Status::OK();
}

}  // namespace

void DueQueue::Push(Time t, EventId key) {
  heap_.push_back(Entry{t, next_seq_++, key});
  std::push_heap(heap_.begin(), heap_.end(), Later);
}

EventId DueQueue::Pop() {
  std::pop_heap(heap_.begin(), heap_.end(), Later);
  EventId key = heap_.back().key;
  heap_.pop_back();
  return key;
}

void DueQueue::Write(io::BinaryWriter* w) const {
  std::vector<Entry> sorted = heap_;
  std::sort(sorted.begin(), sorted.end(),
            [](const Entry& a, const Entry& b) { return Later(b, a); });
  w->PutU64(sorted.size());
  for (const Entry& e : sorted) {
    w->PutTime(e.t);
    w->PutU64(e.key);
  }
}

Status DueQueue::Read(io::BinaryReader* r) {
  heap_.clear();
  next_seq_ = 0;
  CEDR_ASSIGN_OR_RETURN(uint64_t n, r->GetU64());
  for (uint64_t i = 0; i < n; ++i) {
    CEDR_ASSIGN_OR_RETURN(Time t, r->GetTime());
    CEDR_ASSIGN_OR_RETURN(EventId key, r->GetU64());
    Push(t, key);
  }
  return Status::OK();
}

const char* NegationWindow::name() const {
  switch (kind) {
    case Kind::kUnless:
      return "unless";
    case Kind::kUnlessPrime:
      return "unless_prime";
    case Kind::kNot:
      return "not";
    case Kind::kCancelWhen:
      return "cancel_when";
    case Kind::kAtMost:
      return "atmost";
  }
  return "negation";
}

NegationOp::NegationOp(NegationWindow window, NegationPredicate predicate,
                       ConsistencySpec spec, int num_inputs, int depth)
    : Operator(window.name(), spec, num_inputs),
      window_(window),
      predicate_(predicate ? std::move(predicate) : TrueNegationPredicate()),
      depth_(depth) {}

bool NegationOp::Draw(const Event& e, Candidate* c) const {
  const Duration w = window_.w;
  const Duration blocking = spec().max_blocking;
  c->key = e.id;
  c->output = e;
  c->resolve_at = TimeAdd(e.vs, blocking);
  switch (window_.kind) {
    case NegationWindow::Kind::kUnless:
      // The UNLESS output row of the operator table: e's identity and
      // payload with lifetime [e.Vs, e.Vs + w).
      c->output.ve = TimeAdd(e.vs, w);
      if (c->output.cbt.empty()) {
        c->output.cbt = {std::make_shared<const Event>(e)};
      }
      c->block_lo = e.vs;
      c->block_hi = TimeAdd(e.vs, w);
      c->resolve_at = TimeAdd(e.vs, std::min(w, blocking));
      break;
    case NegationWindow::Kind::kUnlessPrime: {
      const Event* anchor = nullptr;
      if (e.cbt.empty()) {
        if (window_.n == 1) anchor = &e;
      } else if (window_.n >= 1 && window_.n <= e.cbt.size()) {
        anchor = e.cbt[window_.n - 1].get();
      }
      if (anchor == nullptr) return false;  // lineage too short
      c->output.vs = std::max(e.vs, TimeAdd(anchor->vs, w));
      c->output.ve = TimeAdd(e.vs, w);
      if (c->output.valid().empty()) return false;
      c->block_lo = anchor->vs;
      c->block_hi = TimeAdd(anchor->vs, w);
      c->resolve_at = TimeAdd(e.vs, std::min(w, blocking));
      break;
    }
    case NegationWindow::Kind::kNot:
      // Strictly between the earliest and latest contributor.
      c->block_lo = c->block_hi = e.vs;
      if (!e.cbt.empty()) {
        auto [earliest, latest] = std::minmax_element(
            e.cbt.begin(), e.cbt.end(),
            [](const EventRef& a, const EventRef& b) { return a->vs < b->vs; });
        c->block_lo = (*earliest)->vs;
        c->block_hi = (*latest)->vs;
      }
      break;
    case NegationWindow::Kind::kCancelWhen:
      // Between the start of the partial detection and its completion.
      c->block_lo = e.rt;
      c->block_hi = e.vs;
      break;
    case NegationWindow::Kind::kAtMost:
      // The pool (e.Vs - w, e.Vs], e included.
      c->output = MakeCompositeEvent({std::make_shared<const Event>(e)}, w,
                                     nullptr);
      c->block_lo = TimeSub(e.vs, w);
      c->block_hi = TimeAdd(e.vs, 1);
      break;
  }
  // The window can end at or before e.Vs, but e itself can still be
  // fully retracted (sync time e.Vs) until the guarantee passes e.Vs.
  c->certain_at = std::max(c->block_hi, TimeAdd(e.vs, 1));
  // The predicate tuple exposes e's contributors so injected WHERE
  // predicates can correlate them with the negated event. The output
  // carries them (or e itself) whenever it has a lineage, and snapshots
  // rely on sharing it.
  c->tuple = c->output.cbt.empty()
                 ? Lineage{std::make_shared<const Event>(e)}
                 : c->output.cbt;
  return true;
}

Status NegationOp::ProcessInsert(const Event& e, int port) {
  bool positive = port == 0;
  if (window_.pooled()) {
    // The pool, like the ideal, holds no empty lifetime. An arrival is a
    // blocker first, so its candidate counts itself; one dropped behind
    // the trim frontier has no candidate either.
    positive = !e.valid().empty() && AddBlocker(e);
  } else if (!positive) {
    AddBlocker(e);
  }
  Candidate c;
  if (positive && Draw(e, &c)) AddCandidate(std::move(c));
  // Every arrival moves the watermark: resolve what it made due.
  Advance(max_watermark(), input_guarantee());
  return Status::OK();
}

Status NegationOp::ProcessRetract(const Event& e, Time new_ve, int port) {
  if (new_ve <= e.vs) {  // a partial shrink leaves Vs intact
    if (window_.pooled()) {
      // Retract e's own output before freeing its slot in the pool, so
      // the removal cannot resurrect it; a final or dropped e has no
      // candidate.
      if (candidates_.count(e.id) > 0) CancelCandidate(e.id);
      RemoveBlocker(e);
    } else if (port == 1) {
      RemoveBlocker(e);
    } else {
      CancelCandidate(e.id);
    }
  }
  Advance(max_watermark(), input_guarantee());
  return Status::OK();
}

Status NegationOp::ProcessCti(Time t, int port) {
  Advance(max_watermark(), input_guarantee());
  return Operator::ProcessCti(t, port);
}

Time NegationOp::OutputGuarantee(Time input_guarantee) const {
  // UNLESS output corrections can reach back w behind the guarantee.
  bool lags = window_.kind == NegationWindow::Kind::kUnless ||
              window_.kind == NegationWindow::Kind::kUnlessPrime;
  return lags ? TimeSub(input_guarantee, window_.w) : input_guarantee;
}

const std::vector<const Event*>& NegationOp::View(const Candidate& c) const {
  view_.clear();
  for (const EventRef& contributor : c.tuple) view_.push_back(contributor.get());
  return view_;
}

std::vector<Event>::iterator NegationOp::BlockerPlace(const Event& e) {
  return LowerPlace(blockers_.begin(), blockers_.end(), BlockerKey(e),
                    BlockerKey);
}

void NegationOp::StoreBlocker(Event e) {
  auto at = BlockerPlace(e);
  if (at == blockers_.end() || BlockerKey(*at) != BlockerKey(e)) {
    blockers_.insert(at, std::move(e));
  }
}

bool NegationOp::IsBlocked(const Candidate& c) const {
  if (c.block_lo >= c.block_hi) return false;
  auto begin = std::partition_point(
      blockers_.begin(), blockers_.end(),
      [lo = c.block_lo](const Event& b) { return b.vs <= lo; });
  const std::vector<const Event*>& tuple = View(c);
  size_t matches = 0;
  for (auto it = begin; it != blockers_.end(); ++it) {
    if (it->vs >= c.block_hi) break;
    if (predicate_(tuple, *it) && ++matches > window_.bound()) {
      return true;
    }
  }
  return false;
}

void NegationOp::AddCandidate(Candidate c) {
  Duration window = c.block_hi == kInfinity || c.block_lo == kMinTime
                        ? kInfinity
                        : c.block_hi - c.block_lo;
  max_window_ = max_window_ == kInfinity ? kInfinity
                                         : std::max(max_window_, window);

  EventId key = c.key;
  auto [it, inserted] = candidates_.emplace(key, std::move(c));
  if (!inserted) return;  // duplicate key: first wins
  const Time block_lo = it->second.block_lo;
  by_block_lo_.emplace(
      UpperPlace(by_block_lo_.begin(), by_block_lo_.end(), block_lo, BlockLo),
      block_lo, key);
  by_resolve_at_.Push(it->second.resolve_at, key);
  by_certain_at_.Push(it->second.certain_at, key);
  // It may already be due.
  Advance(last_watermark_, last_guarantee_);
}

void NegationOp::Resolve(Candidate* c) {
  if (c->state != State::kPending) return;
  if (IsBlocked(*c)) {
    c->state = State::kSuppressed;
    return;
  }
  EmitCandidate(c);
}

void NegationOp::EmitCandidate(Candidate* c) {
  if (c->generation > 0) {
    // Re-emission after a full retraction: fresh identity (Section 4's
    // remove-and-reinsert protocol). The output remembers the identity
    // actually emitted. A negation over another one's output mixes in
    // its depth: the one below may re-emit this candidate's positive
    // under the identity this one gave it, which is dead by then.
    c->output.id = depth_ == 0
                       ? IdGen({c->output.id, c->generation})
                       : IdGen({c->output.id, c->generation,
                                static_cast<EventId>(depth_)});
    c->output.k = c->output.id;
  }
  ++c->generation;
  c->state = State::kEmitted;
  EmitInsert(c->output);
}

bool NegationOp::AddBlocker(const Event& e) {
  if (e.vs < trim_frontier_) {
    // The region this blocker falls in is frozen: any output it should
    // have suppressed is beyond repair (weak consistency).
    CountLostCorrection();
    return false;
  }
  StoreBlocker(e);
  // With bound 0 one match blocks; a larger bound needs a recount.
  const bool counted = window_.bound() > 0;
  ForEachAffected(e.vs, [&](Candidate* c) {
    if (c->state != State::kEmitted) return;
    if (counted ? !IsBlocked(*c) : !predicate_(View(*c), e)) return;
    EmitRetract(c->output, c->output.vs);
    c->state = State::kRetracted;
  });
  return true;
}

void NegationOp::RemoveBlocker(const Event& e) {
  auto it = BlockerPlace(e);
  if (it == blockers_.end() || BlockerKey(*it) != BlockerKey(e)) {
    // Possibly already trimmed: the blocker (and any suppression it
    // caused) is beyond repair.
    if (e.vs <= trim_frontier_) CountLostCorrection();
    return;
  }
  blockers_.erase(it);
  ForEachAffected(e.vs, [&](Candidate* c) {
    if (c->state != State::kSuppressed && c->state != State::kRetracted) {
      return;
    }
    if (IsBlocked(*c)) return;  // another blocker still applies
    // Resurrect: emit now if due, otherwise go back to pending. (It is
    // not certain yet: Advance forgets a candidate once it is.)
    if (spec().max_blocking != kInfinity &&
        last_watermark_ >= c->resolve_at) {
      EmitCandidate(c);
    } else {
      // Back to pending; its resolution index entries may already have
      // been consumed, so re-register.
      c->state = State::kPending;
      by_resolve_at_.Push(c->resolve_at, c->key);
      by_certain_at_.Push(c->certain_at, c->key);
    }
  });
}

void NegationOp::CancelCandidate(EventId key) {
  auto it = candidates_.find(key);
  if (it == candidates_.end()) {
    CountLostCorrection();
    return;
  }
  if (it->second.state == State::kEmitted) {
    EmitRetract(it->second.output, it->second.output.vs);
  }
  // Erase all index entries lazily: indices may hold stale keys; they are
  // skipped when the candidate no longer exists.
  candidates_.erase(it);
}

template <typename Fn>
void NegationOp::ForEachAffected(Time vs, Fn fn) {
  // Candidates whose (block_lo, block_hi) contains vs have
  // block_lo < vs and block_hi > vs. block_lo ranges over
  // [vs - max_window, vs).
  auto begin = by_block_lo_.begin();
  if (max_window_ != kInfinity) {
    begin = std::partition_point(
        begin, by_block_lo_.end(),
        [lo = TimeSub(vs, max_window_)](const auto& entry) {
          return entry.first < lo;
        });
  }
  // Live entries slide down over stale ones; the gap is erased once.
  auto kept = begin;
  auto it = begin;
  for (; it != by_block_lo_.end() && it->first < vs; ++it) {
    auto cit = candidates_.find(it->second);
    if (cit == candidates_.end()) continue;  // stale index entry
    *kept++ = *it;
    Candidate& c = cit->second;
    if (c.block_lo < vs && vs < c.block_hi) fn(&c);
  }
  by_block_lo_.erase(kept, it);
}

void NegationOp::Advance(Time watermark, Time guarantee) {
  last_watermark_ = std::max(last_watermark_, watermark);
  last_guarantee_ = std::max(last_guarantee_, guarantee);

  // Certainty-based resolution (the only path when B = inf).
  while (!by_certain_at_.empty() &&
         by_certain_at_.top_time() <= last_guarantee_) {
    auto it = candidates_.find(by_certain_at_.Pop());
    if (it == candidates_.end()) continue;
    Resolve(&it->second);
    // Certain: final. (The key of a cancelled candidate's entry may name
    // a later, uncertain one.)
    if (it->second.certain_at <= last_guarantee_) candidates_.erase(it);
  }
  if (spec().max_blocking != kInfinity) {
    // Optimistic resolution after at most B application-time units.
    while (!by_resolve_at_.empty() &&
           by_resolve_at_.top_time() <= last_watermark_) {
      auto it = candidates_.find(by_resolve_at_.Pop());
      if (it != candidates_.end()) Resolve(&it->second);
    }
  }
  CompactIndexes();
}

void NegationOp::CompactIndexes() {
  auto live = [this](EventId key) { return candidates_.count(key) > 0; };
  if (by_block_lo_.size() > 2 * candidates_.size() + 16) {
    std::erase_if(by_block_lo_,
                  [&](const auto& entry) { return !live(entry.second); });
  }
  if (by_resolve_at_.size() > 2 * candidates_.size() + 16) {
    by_resolve_at_.Filter(live);
  }
  if (by_certain_at_.size() > 2 * candidates_.size() + 16) {
    by_certain_at_.Filter(live);
  }
}

void NegationOp::TrimState(Time horizon) {
  trim_frontier_ = std::max(trim_frontier_, horizon);

  // A candidate whose window and output the horizon passed is frozen:
  // decide a pending one from what is known, then forget it.
  for (auto it = candidates_.begin(); it != candidates_.end();) {
    Candidate& c = it->second;
    if (c.block_hi > horizon || c.output.ve > horizon) {
      ++it;
      continue;
    }
    Resolve(&c);
    it = candidates_.erase(it);
  }

  // Blockers can affect candidates whose windows reach back at most the
  // window's blocker retention behind the horizon.
  auto kept = std::partition_point(
      blockers_.begin(), blockers_.end(), [&](const Event& b) {
        return TimeAdd(b.vs, window_.BlockerRetention()) <= horizon;
      });
  blockers_.erase(blockers_.begin(), kept);
  CompactIndexes();
}

size_t NegationOp::StateSize() const {
  return candidates_.size() + blockers_.size();
}

void NegationOp::SnapshotState(io::BinaryWriter* w) const {
  // Candidates sorted by key for deterministic snapshot bytes (lookups
  // go through the indexes, which are serialized verbatim below).
  std::map<EventId, const Candidate*> sorted;
  for (const auto& [key, c] : candidates_) sorted.emplace(key, &c);
  w->PutU64(sorted.size());
  for (const auto& [key, c] : sorted) {
    w->PutU64(c->key);
    // The tuple is the output's lineage when it has one (Draw).
    io::WriteEvent(w, c->output);
    if (c->output.cbt.empty()) io::WriteEvent(w, *c->tuple.front());
    w->PutTime(c->block_lo);
    w->PutTime(c->block_hi);
    w->PutTime(c->certain_at);
    w->PutTime(c->resolve_at);
    w->PutU8(static_cast<uint8_t>(c->state));
    w->PutU64(c->generation);
  }
  WriteIndex(w, by_block_lo_);
  by_resolve_at_.Write(w);
  by_certain_at_.Write(w);
  w->PutU64(blockers_.size());
  for (const Event& e : blockers_) io::WriteEvent(w, e);
  w->PutI64(max_window_);
  w->PutTime(last_watermark_);
  w->PutTime(last_guarantee_);
  w->PutTime(trim_frontier_);
}

Status NegationOp::RestoreState(io::BinaryReader* r) {
  candidates_.clear();
  CEDR_ASSIGN_OR_RETURN(uint64_t num_candidates, r->GetU64());
  for (uint64_t i = 0; i < num_candidates; ++i) {
    Candidate c;
    CEDR_ASSIGN_OR_RETURN(c.key, r->GetU64());
    CEDR_ASSIGN_OR_RETURN(c.output, io::ReadEvent(r));
    if (c.output.cbt.empty()) {
      CEDR_ASSIGN_OR_RETURN(Event positive, io::ReadEvent(r));
      c.tuple = {std::make_shared<const Event>(std::move(positive))};
    } else {
      c.tuple = c.output.cbt;
    }
    CEDR_ASSIGN_OR_RETURN(c.block_lo, r->GetTime());
    CEDR_ASSIGN_OR_RETURN(c.block_hi, r->GetTime());
    CEDR_ASSIGN_OR_RETURN(c.certain_at, r->GetTime());
    CEDR_ASSIGN_OR_RETURN(c.resolve_at, r->GetTime());
    CEDR_ASSIGN_OR_RETURN(uint8_t state, r->GetU8());
    if (state > static_cast<uint8_t>(State::kRetracted)) {
      return Status::Corruption("negation snapshot: invalid candidate state");
    }
    c.state = static_cast<State>(state);
    CEDR_ASSIGN_OR_RETURN(c.generation, r->GetU64());
    EventId key = c.key;
    candidates_.emplace(key, std::move(c));
  }
  CEDR_RETURN_NOT_OK(ReadIndex(r, &by_block_lo_));
  CEDR_RETURN_NOT_OK(by_resolve_at_.Read(r));
  CEDR_RETURN_NOT_OK(by_certain_at_.Read(r));
  blockers_.clear();
  CEDR_ASSIGN_OR_RETURN(uint64_t num_blockers, r->GetU64());
  for (uint64_t i = 0; i < num_blockers; ++i) {
    CEDR_ASSIGN_OR_RETURN(Event e, io::ReadEvent(r));
    StoreBlocker(std::move(e));
  }
  CEDR_ASSIGN_OR_RETURN(max_window_, r->GetI64());
  CEDR_ASSIGN_OR_RETURN(last_watermark_, r->GetTime());
  CEDR_ASSIGN_OR_RETURN(last_guarantee_, r->GetTime());
  CEDR_ASSIGN_OR_RETURN(trim_frontier_, r->GetTime());
  return Status::OK();
}

}  // namespace cedr
