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

}  // namespace cedr
