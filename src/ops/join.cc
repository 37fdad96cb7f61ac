#include "ops/join.h"

#include <algorithm>
#include <cmath>

namespace cedr {

namespace {

// A total order on bucket keys for snapshot bytes: Value's own order,
// except that a NaN key (which equals nothing, so each lands in its own
// bucket) sorts after every other double.
bool KeyBefore(const Value& a, const Value& b) {
  if (a.type() == ValueType::kDouble && b.type() == ValueType::kDouble) {
    const bool a_nan = std::isnan(a.AsDouble());
    const bool b_nan = std::isnan(b.AsDouble());
    if (a_nan || b_nan) return a_nan < b_nan;
  }
  return a < b;
}

}  // namespace

JoinOp::JoinOp(JoinPredicate theta, SchemaPtr output_schema,
               ConsistencySpec spec, std::string name)
    : Operator(std::move(name), spec, /*num_inputs=*/2),
      theta_(std::move(theta)),
      output_schema_(std::move(output_schema)) {}

void JoinOp::SetEquiKeys(KeyExtractor left, KeyExtractor right) {
  sides_[0].key = std::move(left);
  sides_[1].key = std::move(right);
  equi_ = true;
}

size_t JoinOp::StateSize() const {
  return sides_[0].events.size() + sides_[1].events.size();
}

Event JoinOp::MakeOutput(const Event& l, const Event& r, Time ve_l,
                         Time ve_r) const {
  Event out;
  out.id = IdGen({l.id, r.id});
  out.k = out.id;
  out.vs = std::max(l.vs, r.vs);
  out.ve = std::min(ve_l, ve_r);
  out.os = std::max(l.os, r.os);
  out.rt = std::min(l.rt, r.rt);
  out.payload = l.payload.Concat(r.payload, output_schema_);
  return out;
}

void JoinOp::Store(Side* side, const Event& e) {
  side->events[e.id] = e;
  if (equi_) {
    std::vector<EventId>& bucket = side->buckets[side->key(e.payload)];
    if (bucket.empty()) bucket.reserve(4);
    bucket.push_back(e.id);
  }
}

Status JoinOp::ProcessInsert(const Event& e, int port) {
  const int other = 1 - port;
  Store(&sides_[port], e);

  auto probe = [&](const Event& stored) {
    const Event& l = port == 0 ? e : stored;
    const Event& r = port == 0 ? stored : e;
    if (l.valid().Intersect(r.valid()).empty()) return;
    if (!theta_(l.payload, r.payload)) return;
    EmitInsert(MakeOutput(l, r, l.ve, r.ve));
  };

  if (equi_ && sides_[other].key) {
    Value key = sides_[port].key(e.payload);
    auto it = sides_[other].buckets.find(key);
    if (it != sides_[other].buckets.end()) {
      for (EventId id : it->second) {
        auto sit = sides_[other].events.find(id);
        if (sit != sides_[other].events.end()) probe(sit->second);
      }
    }
  } else {
    for (const auto& [id, stored] : sides_[other].events) probe(stored);
  }
  return Status::OK();
}

Status JoinOp::ProcessRetract(const Event& e, Time new_ve, int port) {
  const int other = 1 - port;
  auto it = sides_[port].events.find(e.id);
  if (it == sides_[port].events.end()) {
    // The event is no longer stored: it was beyond the repair horizon.
    CountLostCorrection();
    return Status::OK();
  }
  Event& stored = it->second;
  const Time old_ve = stored.ve;
  if (new_ve >= old_ve) return Status::OK();  // not a reduction
  stored.ve = new_ve;

  auto repair = [&](const Event& partner) {
    const Event& l = port == 0 ? stored : partner;
    const Event& r = port == 0 ? partner : stored;
    const Time old_self_ve = old_ve;
    // Output as originally emitted (with the pre-retraction lifetime).
    Event old_out = port == 0 ? MakeOutput(l, r, old_self_ve, r.ve)
                              : MakeOutput(l, r, l.ve, old_self_ve);
    if (old_out.valid().empty()) return;  // never emitted
    if (!theta_(l.payload, r.payload)) return;
    Time new_out_ve = std::min(new_ve, partner.ve);
    EmitRetract(old_out, new_out_ve);  // clamps at vs, skips no-ops
  };

  if (equi_ && sides_[port].key) {
    Value key = sides_[port].key(stored.payload);
    auto bit = sides_[other].buckets.find(key);
    if (bit != sides_[other].buckets.end()) {
      for (EventId id : bit->second) {
        auto sit = sides_[other].events.find(id);
        if (sit != sides_[other].events.end()) repair(sit->second);
      }
    }
  } else {
    for (const auto& [id, partner] : sides_[other].events) repair(partner);
  }

  if (stored.valid().empty()) sides_[port].events.erase(it);
  return Status::OK();
}

void JoinOp::SnapshotState(io::BinaryWriter* w) const {
  for (const Side& side : sides_) {
    w->PutU64(side.events.size());
    for (const auto& [id, e] : side.events) io::WriteEvent(w, e);
    // Buckets are serialized verbatim (not rebuilt) so the per-bucket
    // probe order survives recovery, in key order (then id order, for NaN
    // keys) so the bytes do not depend on the table's history.
    using Bucket = std::pair<const Value, std::vector<EventId>>;
    std::vector<const Bucket*> sorted;
    sorted.reserve(side.buckets.size());
    for (const Bucket& bucket : side.buckets) sorted.push_back(&bucket);
    std::sort(sorted.begin(), sorted.end(),
              [](const Bucket* a, const Bucket* b) {
                if (KeyBefore(a->first, b->first)) return true;
                if (KeyBefore(b->first, a->first)) return false;
                return a->second < b->second;
              });
    w->PutU64(sorted.size());
    for (const Bucket* bucket : sorted) {
      io::WriteValue(w, bucket->first);
      w->PutU64(bucket->second.size());
      for (EventId id : bucket->second) w->PutU64(id);
    }
  }
}

Status JoinOp::RestoreState(io::BinaryReader* r) {
  for (Side& side : sides_) {
    side.events.clear();
    side.buckets.clear();
    CEDR_ASSIGN_OR_RETURN(uint64_t num_events, r->GetU64());
    for (uint64_t i = 0; i < num_events; ++i) {
      CEDR_ASSIGN_OR_RETURN(Event e, io::ReadEvent(r));
      EventId id = e.id;
      side.events.emplace(id, std::move(e));
    }
    CEDR_ASSIGN_OR_RETURN(uint64_t num_buckets, r->GetU64());
    for (uint64_t i = 0; i < num_buckets; ++i) {
      CEDR_ASSIGN_OR_RETURN(Value key, io::ReadValue(r));
      CEDR_ASSIGN_OR_RETURN(uint64_t num_ids, r->GetU64());
      std::vector<EventId> ids;
      ids.reserve(num_ids);
      for (uint64_t j = 0; j < num_ids; ++j) {
        CEDR_ASSIGN_OR_RETURN(EventId id, r->GetU64());
        ids.push_back(id);
      }
      side.buckets.emplace(std::move(key), std::move(ids));
    }
  }
  return Status::OK();
}

void JoinOp::TrimState(Time horizon) {
  for (Side& side : sides_) {
    for (auto it = side.events.begin(); it != side.events.end();) {
      if (it->second.ve <= horizon) {
        it = side.events.erase(it);
      } else {
        ++it;
      }
    }
    if (equi_) {
      for (auto bit = side.buckets.begin(); bit != side.buckets.end();) {
        auto& ids = bit->second;
        ids.erase(std::remove_if(ids.begin(), ids.end(),
                                 [&](EventId id) {
                                   return side.events.count(id) == 0;
                                 }),
                  ids.end());
        if (ids.empty()) {
          bit = side.buckets.erase(bit);
        } else {
          ++bit;
        }
      }
    }
  }
}

}  // namespace cedr
