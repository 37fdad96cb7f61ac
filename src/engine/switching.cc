#include "engine/switching.h"

#include <algorithm>
#include <map>

namespace cedr {

void SwitchableQuery::SpliceState::Append(const std::vector<Message>& more) {
  for (const Message& m : more) {
    switch (m.kind) {
      case MessageKind::kInsert:
        if (!inserted.insert(m.event.id).second) continue;  // duplicate
        break;
      case MessageKind::kRetract:
        if (!retracted.insert({m.event.id, m.new_ve}).second) continue;
        break;
      case MessageKind::kCti:
        if (m.time <= last_cti) continue;
        last_cti = m.time;
        break;
    }
    messages.push_back(m);
  }
}

Result<std::unique_ptr<SwitchableQuery>> SwitchableQuery::Create(
    const std::string& text, const Catalog& catalog,
    std::optional<ConsistencySpec> initial_spec) {
  auto query = std::unique_ptr<SwitchableQuery>(new SwitchableQuery());
  query->text_ = text;
  query->catalog_ = catalog;
  CEDR_ASSIGN_OR_RETURN(query->active_,
                        CompiledQuery::Compile(text, catalog, initial_spec));
  query->spec_ = query->active_->bound().spec;
  for (std::string& type : query->active_->InputTypes()) {
    query->input_types_.insert(std::move(type));
  }
  return query;
}

Status SwitchableQuery::Push(const std::string& event_type,
                             const Message& msg) {
  if (finished_) return Status::ExecutionError("query already finished");
  if (fault_hook_ && input_types_.count(event_type) > 0) {
    CEDR_RETURN_NOT_OK(fault_hook_(event_type, msg));
  }
  last_cs_ = std::max(last_cs_, msg.cs);
  input_.emplace_back(event_type, msg);
  CEDR_RETURN_NOT_OK(active_->Push(event_type, msg));
  if (msg.kind == MessageKind::kCti) {
    Time& known = input_ctis_[event_type];
    known = std::max(known, msg.time);
    MaybeAdvanceBarrier();
  }
  return Status::OK();
}

Status SwitchableQuery::PushBatch(std::span<const TypedMessage> batch) {
  if (finished_) return Status::ExecutionError("query already finished");
  for (const auto& [type, msg] : batch) {
    if (input_types_.count(type) == 0) continue;  // not routed to us
    CEDR_RETURN_NOT_OK(Push(type, msg));
  }
  return Status::OK();
}

void SwitchableQuery::MaybeAdvanceBarrier() {
  // The common sync point: the minimum sync point over every input
  // type. Section 5's switching argument holds exactly at these
  // barriers, and the plan snapshot there makes the input before it
  // redundant.
  Time frontier = kInfinity;
  for (const std::string& type : input_types_) {
    auto it = input_ctis_.find(type);
    if (it == input_ctis_.end()) return;  // a type has no sync point yet
    frontier = std::min(frontier, it->second);
  }
  if (frontier <= sync_frontier_) return;
  sync_frontier_ = frontier;
  sync_pos_ = input_.size();
  if (!CheckpointDue(input_.size() * sizeof(TypedMessage),
                     barrier_state_.size())) {
    return;  // SwitchTo rolls the barrier forward to here if it must
  }
  io::BinaryWriter w;
  if (!active_->SnapshotPlan(&w).ok()) return;  // keep replaying input_
  SetBarrier(w.Take());
}

void SwitchableQuery::SetBarrier(std::string plan_state) {
  barrier_state_ = std::move(plan_state);
  input_.erase(input_.begin(),
               input_.begin() + static_cast<std::ptrdiff_t>(sync_pos_));
  sync_pos_ = 0;
  ++barriers_;
}

Result<std::unique_ptr<CompiledQuery>> SwitchableQuery::RestoreBarrier(
    ConsistencySpec spec, size_t replay_end) const {
  CEDR_ASSIGN_OR_RETURN(auto plan,
                        CompiledQuery::Compile(text_, catalog_, spec));
  if (!barrier_state_.empty()) {
    io::BinaryReader reader(barrier_state_);
    CEDR_RETURN_NOT_OK(plan->RestorePlan(&reader));
    CEDR_RETURN_NOT_OK(reader.ExpectEnd());
    // Every plan since the barrier began its log with the barrier's,
    // whose length the restored sink counters hold.
    std::span<const Message> log = active_->sink().messages();
    if (log.size() < plan->sink().emitted()) {
      return Status::Internal("switch: the active log is shorter than the "
                              "barrier's");
    }
    plan->SeedOutput(log.first(plan->sink().emitted()));
  }
  for (size_t i = 0; i < replay_end; ++i) {
    CEDR_RETURN_NOT_OK(plan->Push(input_[i].first, input_[i].second));
  }
  return plan;
}

Result<Time> SwitchableQuery::SwitchTo(ConsistencySpec spec) {
  if (finished_) return Status::ExecutionError("query already finished");
  if (spec == spec_) return last_cs_;

  // Retire the active plan: everything it has emitted becomes part of
  // the spliced prefix (identity-level deduplication absorbs what a
  // replayed predecessor already produced).
  spliced_.Append(active_->sink().messages());

  // The new level starts from the state at the last common sync point.
  // If no barrier was taken there, roll the barrier forward to it: by
  // determinism, replaying the input up to it at the retiring level
  // reproduces the retiring plan's state there.
  if (sync_pos_ > 0) {
    CEDR_ASSIGN_OR_RETURN(auto at_sync, RestoreBarrier(spec_, sync_pos_));
    io::BinaryWriter w;
    CEDR_RETURN_NOT_OK(at_sync->SnapshotPlan(&w));
    SetBarrier(w.Take());
  }
  // Restore the barrier into the new level and replay the retained
  // suffix; determinism lines its identities up with the retired plan's.
  CEDR_ASSIGN_OR_RETURN(active_, RestoreBarrier(spec, input_.size()));
  spec_ = spec;
  ++switches_;
  return last_cs_ + 1;
}

Status SwitchableQuery::Finish() {
  if (finished_) return Status::OK();
  finished_ = true;
  return active_->Finish();
}

std::vector<Message> SwitchableQuery::OutputMessages() const {
  SpliceState out = spliced_;
  out.Append(active_->sink().messages());
  if (!finished_) return std::move(out.messages);

  // Finish-time reconciliation: output emitted by a retired level that
  // the final level would never confirm (e.g. optimistic inserts whose
  // blocker arrived only after a switch to strong) is repaired with
  // synthesized retractions - the corrections a real state transfer
  // would emit when aligning the levels. After this, the spliced
  // stream's converged state equals the active plan's.
  EventList target = active_->sink().Ideal();
  std::map<EventId, const Event*> target_by_id;
  for (const Event& e : target) target_by_id[e.id] = &e;
  EventList current = denotation::IdealOf(out.messages);
  Time cs = last_cs_ + 1;
  for (const Event& e : current) {
    auto it = target_by_id.find(e.id);
    if (it == target_by_id.end()) {
      out.messages.push_back(RetractOf(e, e.vs, cs));  // stale: remove
      continue;
    }
    const Event& t = *it->second;
    if (t.vs == e.vs && t.ve == e.ve) {
      target_by_id.erase(it);
      continue;
    }
    if (t.vs == e.vs && t.ve < e.ve) {
      out.messages.push_back(RetractOf(e, t.ve, cs));  // shrink
    } else {
      // Lifetimes disagree in a way retraction cannot express:
      // remove-and-reinsert under a fresh identity (Section 4).
      out.messages.push_back(RetractOf(e, e.vs, cs));
      Event fresh = t;
      fresh.id = IdGen({t.id, 0xC0FFEE});
      fresh.k = fresh.id;
      out.messages.push_back(InsertOf(fresh, cs));
    }
    target_by_id.erase(it);
  }
  for (const auto& [id, t] : target_by_id) {
    if (out.inserted.count(id) > 0) {
      // The spliced stream already used this identity and retracted it
      // to an empty lifetime (e.g. a retired optimistic level whose
      // blocker arrived before the switch). A dead identity cannot be
      // revived, so confirm it under a fresh one (Section 4's
      // remove-and-reinsert protocol).
      Event fresh = *t;
      fresh.id = IdGen({t->id, 0xC0FFEE});
      fresh.k = fresh.id;
      out.messages.push_back(InsertOf(fresh, cs));
      continue;
    }
    out.messages.push_back(InsertOf(*t, cs));  // confirmed but unspliced
  }
  return std::move(out.messages);
}

EventList SwitchableQuery::Ideal() const {
  return denotation::IdealOf(OutputMessages());
}

}  // namespace cedr
