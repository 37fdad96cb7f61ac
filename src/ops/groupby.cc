#include "ops/groupby.h"

#include <algorithm>

#include "consistency/frontier.h"

namespace cedr {

GroupByAggregateOp::GroupByAggregateOp(std::vector<std::string> key_fields,
                                       std::vector<AggregateSpec> aggregates,
                                       SchemaPtr output_schema,
                                       ConsistencySpec spec, std::string name)
    : Operator(std::move(name), spec, /*num_inputs=*/1),
      key_fields_(std::move(key_fields)),
      aggregates_(std::move(aggregates)),
      output_schema_(std::move(output_schema)) {
  conservative_ = this->spec().max_blocking == kInfinity;
}

size_t GroupByAggregateOp::StateSize() const {
  size_t n = output_.StateSize();
  for (const auto& [key, members] : groups_) n += members.size();
  return n;
}

std::vector<Value> GroupByAggregateOp::KeyOf(const Row& payload) const {
  std::vector<Value> key;
  key.reserve(key_fields_.size());
  for (const std::string& field : key_fields_) {
    key.push_back(payload.Get(field).ValueOr(Value::Null()));
  }
  return key;
}

Status GroupByAggregateOp::ProcessInsert(const Event& e, int /*port*/) {
  if (e.valid().empty()) return Status::OK();
  std::vector<Value> key = KeyOf(e.payload);
  Contributor c;
  c.lifetime = e.valid();
  c.agg_inputs.reserve(aggregates_.size());
  for (const AggregateSpec& spec : aggregates_) {
    c.agg_inputs.push_back(spec.kind == AggregateKind::kCount
                               ? Value::Null()
                               : e.payload.Get(spec.input_field)
                                     .ValueOr(Value::Null()));
  }
  groups_[key][e.id] = std::move(c);
  return Recompute(key);
}

Status GroupByAggregateOp::ProcessRetract(const Event& e, Time new_ve,
                                          int /*port*/) {
  std::vector<Value> key = KeyOf(e.payload);
  auto git = groups_.find(key);
  if (git == groups_.end()) {
    CountLostCorrection();
    return Status::OK();
  }
  auto cit = git->second.find(e.id);
  if (cit == git->second.end()) {
    CountLostCorrection();
    return Status::OK();
  }
  if (new_ve >= cit->second.lifetime.end) return Status::OK();
  cit->second.lifetime.end = new_ve;
  if (cit->second.lifetime.empty()) git->second.erase(cit);
  return Recompute(key);
}

Status GroupByAggregateOp::Recompute(const std::vector<Value>& key) {
  std::vector<Event> correct;
  auto git = groups_.find(key);
  if (git != groups_.end() && !git->second.empty()) {
    // Endpoint sweep: aggregate values are constant between endpoints.
    // Sorted/uniqued scratch vector — same endpoint sequence a std::set
    // would produce, without per-call node allocations.
    std::vector<Time>& endpoints = scratch_endpoints_;
    endpoints.clear();
    for (const auto& [id, c] : git->second) {
      endpoints.push_back(c.lifetime.start);
      endpoints.push_back(c.lifetime.end);
    }
    std::sort(endpoints.begin(), endpoints.end());
    endpoints.erase(std::unique(endpoints.begin(), endpoints.end()),
                    endpoints.end());
    std::vector<std::vector<Value>>& columns = scratch_columns_;
    columns.resize(aggregates_.size());
    for (size_t i = 0; i + 1 < endpoints.size(); ++i) {
      Interval segment{endpoints[i], endpoints[i + 1]};
      size_t alive = 0;
      for (auto& col : columns) col.clear();
      for (const auto& [id, c] : git->second) {
        if (!c.lifetime.Contains(segment.start)) continue;
        ++alive;
        for (size_t a = 0; a < aggregates_.size(); ++a) {
          if (aggregates_[a].kind == AggregateKind::kCount) continue;
          columns[a].push_back(c.agg_inputs[a]);
        }
      }
      if (alive == 0) continue;
      std::vector<Value> values = key;
      bool failed = false;
      for (size_t a = 0; a < aggregates_.size(); ++a) {
        if (aggregates_[a].kind == AggregateKind::kCount) {
          values.push_back(Value(static_cast<int64_t>(alive)));
          continue;
        }
        auto agg = ComputeAggregate(aggregates_[a].kind, columns[a]);
        if (!agg.ok()) {
          failed = true;
          break;
        }
        values.push_back(std::move(agg).ValueOrDie());
      }
      if (failed) continue;
      Event frag;
      frag.vs = segment.start;
      frag.ve = segment.end;
      frag.payload = Row(output_schema_, std::move(values));
      correct.push_back(std::move(frag));
    }
  }
  if (conservative_) {
    // Clip provisional output at the emission ceiling.
    Time ceiling = input_guarantee();
    std::vector<Event> clipped;
    for (Event& frag : correct) {
      if (frag.vs >= ceiling) continue;
      frag.ve = std::min(frag.ve, ceiling);
      clipped.push_back(std::move(frag));
    }
    correct = std::move(clipped);
  }
  // Output before the *previous* guarantee is final; regions between it
  // and the current guarantee may still need to be emitted this batch.
  // Weak consistency additionally freezes anything beyond its memory.
  Time frontier =
      ClampFrontierToMemory(frontier_, spec().max_memory, watermark());
  output_.Reconcile(key, correct, frontier,
                    [this](Event e) { EmitInsert(std::move(e)); },
                    [this](const Event& e, Time t) { EmitRetract(e, t); });
  return Status::OK();
}

Status GroupByAggregateOp::ProcessCti(Time t, int port) {
  if (conservative_) {
    // The ceiling advanced: release the newly-final output regions.
    std::vector<std::vector<Value>> keys;
    keys.reserve(groups_.size());
    for (const auto& [key, members] : groups_) keys.push_back(key);
    for (const auto& key : keys) {
      CEDR_RETURN_NOT_OK(Recompute(key));
    }
  }
  // Output before the new guarantee is final from here on; the release
  // above still reconciled from the previous one.
  frontier_ = std::max(frontier_, input_guarantee());
  return Operator::ProcessCti(t, port);
}

void GroupByAggregateOp::TrimState(Time horizon) {
  output_.Trim(horizon);
  for (auto git = groups_.begin(); git != groups_.end();) {
    auto& members = git->second;
    for (auto it = members.begin(); it != members.end();) {
      if (it->second.lifetime.end <= horizon) {
        it = members.erase(it);
      } else {
        ++it;
      }
    }
    if (members.empty()) {
      git = groups_.erase(git);
    } else {
      ++git;
    }
  }
}

void GroupByAggregateOp::SnapshotState(io::BinaryWriter* w) const {
  w->PutTime(frontier_);
  w->PutU64(groups_.size());
  for (const auto& [key, members] : groups_) {
    io::WriteValues(w, key);
    w->PutU64(members.size());
    for (const auto& [id, contributor] : members) {
      w->PutU64(id);
      w->PutTime(contributor.lifetime.start);
      w->PutTime(contributor.lifetime.end);
      io::WriteValues(w, contributor.agg_inputs);
    }
  }
  output_.Snapshot(w);
}

Status GroupByAggregateOp::RestoreState(io::BinaryReader* r) {
  CEDR_ASSIGN_OR_RETURN(frontier_, r->GetTime());
  CEDR_ASSIGN_OR_RETURN(uint64_t num_groups, r->GetU64());
  groups_.clear();
  for (uint64_t i = 0; i < num_groups; ++i) {
    CEDR_ASSIGN_OR_RETURN(std::vector<Value> key, io::ReadValues(r));
    CEDR_ASSIGN_OR_RETURN(uint64_t num_members, r->GetU64());
    std::map<EventId, Contributor> members;
    for (uint64_t j = 0; j < num_members; ++j) {
      CEDR_ASSIGN_OR_RETURN(EventId id, r->GetU64());
      Contributor contributor;
      CEDR_ASSIGN_OR_RETURN(contributor.lifetime.start, r->GetTime());
      CEDR_ASSIGN_OR_RETURN(contributor.lifetime.end, r->GetTime());
      CEDR_ASSIGN_OR_RETURN(contributor.agg_inputs, io::ReadValues(r));
      members.emplace(id, std::move(contributor));
    }
    groups_.emplace(std::move(key), std::move(members));
  }
  return output_.Restore(r);
}

}  // namespace cedr
