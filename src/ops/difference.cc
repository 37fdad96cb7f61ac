#include "ops/difference.h"

#include <algorithm>

#include "consistency/frontier.h"

namespace cedr {

DifferenceOp::DifferenceOp(ConsistencySpec spec, std::string name)
    : Operator(std::move(name), spec, /*num_inputs=*/2) {
  conservative_ = this->spec().max_blocking == kInfinity;
}

Status DifferenceOp::ProcessCti(Time t, int port) {
  if (conservative_) {
    // The ceiling advanced: release newly-final output regions.
    std::vector<Row> payloads;
    payloads.reserve(state_.size());
    for (const auto& [payload, ps] : state_) payloads.push_back(payload);
    for (const Row& payload : payloads) {
      CEDR_RETURN_NOT_OK(Recompute(payload));
    }
  }
  // Output before the new guarantee is final from here on; the release
  // above still reconciled from the previous one.
  frontier_ = std::max(frontier_, input_guarantee());
  return Operator::ProcessCti(t, port);
}

size_t DifferenceOp::StateSize() const {
  size_t n = output_.StateSize();
  for (const auto& [payload, ps] : state_) {
    n += ps.left.size() + ps.right.size();
  }
  return n;
}

Status DifferenceOp::ProcessInsert(const Event& e, int port) {
  if (e.valid().empty()) return Status::OK();
  PayloadState& ps = state_[e.payload];
  (port == 0 ? ps.left : ps.right)[e.id] = e.valid();
  return Recompute(e.payload);
}

Status DifferenceOp::ProcessRetract(const Event& e, Time new_ve, int port) {
  // A retract whose target is no longer stored was trimmed at the repair
  // horizon: its (possibly already shrunk) interval ended at or before
  // the horizon. That is a *lost* correction only if the retract would
  // still have changed something - i.e. it shrinks below both the
  // original end and the horizon. A no-op retract (new_ve >= the
  // original ve, or >= the horizon every trimmed interval ended under)
  // affects only the trimmed, final region and must not inflate the
  // lost-correction count.
  auto lost_if_effective = [&]() {
    if (new_ve < e.ve && new_ve < repair_horizon()) CountLostCorrection();
  };
  auto it = state_.find(e.payload);
  if (it == state_.end()) {
    lost_if_effective();
    return Status::OK();
  }
  auto& side = port == 0 ? it->second.left : it->second.right;
  auto eit = side.find(e.id);
  if (eit == side.end()) {
    lost_if_effective();
    return Status::OK();
  }
  if (new_ve >= eit->second.end) return Status::OK();
  eit->second.end = new_ve;
  if (eit->second.empty()) side.erase(eit);
  return Recompute(e.payload);
}

Status DifferenceOp::Recompute(const Row& payload) {
  auto it = state_.find(payload);
  IntervalSet result;
  if (it != state_.end()) {
    for (const auto& [id, iv] : it->second.left) result.Add(iv);
    for (const auto& [id, iv] : it->second.right) result.Subtract(iv);
  }
  if (conservative_) {
    // Strong consistency: output beyond the guarantee is provisional
    // (a future right-side insert could shrink it); withhold it.
    Time ceiling = input_guarantee();
    result.Subtract(Interval{ceiling, kInfinity});
  }
  std::vector<Event> correct;
  for (const Interval& iv : result.intervals()) {
    Event e;
    e.vs = iv.start;
    e.ve = iv.end;
    e.payload = payload;
    correct.push_back(std::move(e));
  }
  // Output before the previous guarantee is final; weak consistency
  // additionally freezes anything beyond its memory.
  Time frontier =
      ClampFrontierToMemory(frontier_, spec().max_memory, watermark());
  output_.Reconcile(payload.values(), correct, frontier,
                    [this](Event e) { EmitInsert(std::move(e)); },
                    [this](const Event& e, Time t) { EmitRetract(e, t); });
  return Status::OK();
}

void DifferenceOp::TrimState(Time horizon) {
  output_.Trim(horizon);
  for (auto it = state_.begin(); it != state_.end();) {
    auto trim_side = [horizon](std::map<EventId, Interval>* side) {
      for (auto sit = side->begin(); sit != side->end();) {
        if (sit->second.end <= horizon) {
          sit = side->erase(sit);
        } else {
          ++sit;
        }
      }
    };
    trim_side(&it->second.left);
    trim_side(&it->second.right);
    if (it->second.left.empty() && it->second.right.empty()) {
      it = state_.erase(it);
    } else {
      ++it;
    }
  }
}

namespace {

void WriteIntervalMap(io::BinaryWriter* w,
                      const std::map<EventId, Interval>& side) {
  w->PutU64(side.size());
  for (const auto& [id, interval] : side) {
    w->PutU64(id);
    w->PutTime(interval.start);
    w->PutTime(interval.end);
  }
}

Status ReadIntervalMap(io::BinaryReader* r,
                       std::map<EventId, Interval>* side) {
  side->clear();
  CEDR_ASSIGN_OR_RETURN(uint64_t n, r->GetU64());
  for (uint64_t i = 0; i < n; ++i) {
    CEDR_ASSIGN_OR_RETURN(EventId id, r->GetU64());
    Interval interval;
    CEDR_ASSIGN_OR_RETURN(interval.start, r->GetTime());
    CEDR_ASSIGN_OR_RETURN(interval.end, r->GetTime());
    side->emplace(id, interval);
  }
  return Status::OK();
}

}  // namespace

void DifferenceOp::SnapshotState(io::BinaryWriter* w) const {
  w->PutTime(frontier_);
  w->PutU64(state_.size());
  for (const auto& [payload, ps] : state_) {
    io::WriteRow(w, payload);
    WriteIntervalMap(w, ps.left);
    WriteIntervalMap(w, ps.right);
  }
  output_.Snapshot(w);
}

Status DifferenceOp::RestoreState(io::BinaryReader* r) {
  CEDR_ASSIGN_OR_RETURN(frontier_, r->GetTime());
  CEDR_ASSIGN_OR_RETURN(uint64_t n, r->GetU64());
  state_.clear();
  for (uint64_t i = 0; i < n; ++i) {
    CEDR_ASSIGN_OR_RETURN(Row payload, io::ReadRow(r));
    PayloadState ps;
    CEDR_RETURN_NOT_OK(ReadIntervalMap(r, &ps.left));
    CEDR_RETURN_NOT_OK(ReadIntervalMap(r, &ps.right));
    state_.emplace(std::move(payload), std::move(ps));
  }
  return output_.Restore(r);
}

}  // namespace cedr
