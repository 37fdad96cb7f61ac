#include "ops/alter_lifetime.h"

#include <algorithm>
#include <map>

namespace cedr {

AlterLifetimeOp::AlterLifetimeOp(LifetimeStartFn fvs,
                                 LifetimeDurationFn fdelta,
                                 ConsistencySpec spec, std::string name,
                                 GuaranteeMapFn guarantee_map)
    : Operator(std::move(name), spec, /*num_inputs=*/1),
      fvs_(std::move(fvs)),
      fdelta_(std::move(fdelta)),
      guarantee_map_(std::move(guarantee_map)) {}

std::optional<Event> AlterLifetimeOp::Apply(const Event& e) const {
  if (e.valid().empty()) return std::nullopt;
  Time start = fvs_(e);
  if (start != kInfinity && start < 0) start = -start;  // the paper's |.|
  Duration delta = fdelta_(e);
  if (delta != kInfinity && delta < 0) delta = -delta;
  Event out = e;
  out.vs = start;
  out.ve = TimeAdd(start, delta);
  if (out.valid().empty()) return std::nullopt;
  return out;
}

Status AlterLifetimeOp::ProcessInsert(const Event& e, int /*port*/) {
  std::optional<Event> out = Apply(e);
  if (!out.has_value()) return Status::OK();
  Track(e.id, *out);
  EmitInsert(*out);
  return Status::OK();
}

Status AlterLifetimeOp::ProcessRetract(const Event& e, Time new_ve,
                                       int /*port*/) {
  Event shrunk = e;
  shrunk.ve = new_ve;
  std::optional<Event> new_out = Apply(shrunk);

  auto it = emitted_.find(e.id);
  if (it == emitted_.end()) {
    std::optional<Event> old_out = Apply(e);
    if (!old_out.has_value()) {
      if (new_out.has_value()) {
        // The output only now came into existence (e.g. Deletes once the
        // end time became known). Use the input id: there was no prior
        // output under it.
        Track(e.id, *new_out);
        EmitInsert(*new_out);
      }
      return Status::OK();
    }
    // There was an output but it is no longer tracked: it was finalized
    // or forgotten. If the correction would have changed it, it is lost.
    bool changed = !new_out.has_value() ||
                   new_out->vs != old_out->vs || new_out->ve != old_out->ve;
    if (changed) CountLostCorrection();
    return Status::OK();
  }

  Event old = it->second;
  if (!new_out.has_value()) {
    EmitRetract(old, old.vs);  // full removal
    emitted_.erase(it);
    return Status::OK();
  }
  if (new_out->vs == old.vs && new_out->ve <= old.ve) {
    if (new_out->ve < old.ve) {
      EmitRetract(old, new_out->ve);
      old.ve = new_out->ve;
      Track(e.id, old);
    }
    return Status::OK();
  }
  // The output moved or grew: retractions cannot express that in place,
  // so remove the old event completely and reinsert with a fresh id
  // (Section 4's protocol).
  EmitRetract(old, old.vs);
  Event fresh = *new_out;
  fresh.id = IdGen({e.id, ++reissue_counter_});
  fresh.k = fresh.id;
  Track(e.id, fresh);
  EmitInsert(fresh);
  return Status::OK();
}

void AlterLifetimeOp::Track(EventId id, const Event& out) {
  if (out.ve <= repair_horizon()) {
    emitted_.erase(id);
  } else {
    emitted_[id] = out;
  }
}

void AlterLifetimeOp::TrimState(Time horizon) {
  for (auto it = emitted_.begin(); it != emitted_.end();) {
    if (it->second.ve <= horizon) {
      it = emitted_.erase(it);
    } else {
      ++it;
    }
  }
}

Time AlterLifetimeOp::OutputGuarantee(Time input_guarantee) const {
  if (guarantee_map_) return guarantee_map_(input_guarantee);
  return input_guarantee;
}

std::unique_ptr<AlterLifetimeOp> MakeSlidingWindowOp(Duration wl,
                                                     ConsistencySpec spec) {
  return std::make_unique<AlterLifetimeOp>(
      [](const Event& e) { return e.vs; },
      [wl](const Event& e) {
        Duration life = e.ve == kInfinity ? kInfinity : e.ve - e.vs;
        return std::min(life, wl);
      },
      spec, "window");
}

std::unique_ptr<AlterLifetimeOp> MakeHoppingWindowOp(Duration wl,
                                                     Duration period,
                                                     ConsistencySpec spec) {
  auto snap = [period](Time t) {
    if (t == kInfinity || t == kMinTime) return t;
    Time q = t / period;
    if (t < 0 && q * period != t) --q;  // floor division
    return q * period;
  };
  return std::make_unique<AlterLifetimeOp>(
      [snap](const Event& e) { return snap(e.vs); },
      [wl](const Event&) { return wl; }, spec, "hopping_window",
      [snap](Time g) { return snap(g); });
}

void AlterLifetimeOp::SnapshotState(io::BinaryWriter* w) const {
  w->PutU64(reissue_counter_);
  // Sorted by input id: emitted_ is lookup-only, so only the contents
  // matter, but sorting keeps snapshot bytes deterministic.
  std::map<EventId, const Event*> sorted;
  for (const auto& [id, e] : emitted_) sorted.emplace(id, &e);
  w->PutU64(sorted.size());
  for (const auto& [id, e] : sorted) {
    w->PutU64(id);
    io::WriteEvent(w, *e);
  }
}

Status AlterLifetimeOp::RestoreState(io::BinaryReader* r) {
  CEDR_ASSIGN_OR_RETURN(reissue_counter_, r->GetU64());
  CEDR_ASSIGN_OR_RETURN(uint64_t n, r->GetU64());
  emitted_.clear();
  for (uint64_t i = 0; i < n; ++i) {
    CEDR_ASSIGN_OR_RETURN(EventId id, r->GetU64());
    CEDR_ASSIGN_OR_RETURN(Event e, io::ReadEvent(r));
    emitted_.emplace(id, std::move(e));
  }
  return Status::OK();
}

std::unique_ptr<AlterLifetimeOp> MakeInsertsOp(ConsistencySpec spec) {
  return std::make_unique<AlterLifetimeOp>(
      [](const Event& e) { return e.vs; },
      [](const Event&) { return kInfinity; }, spec, "inserts");
}

std::unique_ptr<AlterLifetimeOp> MakeDeletesOp(ConsistencySpec spec) {
  return std::make_unique<AlterLifetimeOp>(
      [](const Event& e) { return e.ve; },
      [](const Event&) { return kInfinity; }, spec, "deletes");
}

}  // namespace cedr
