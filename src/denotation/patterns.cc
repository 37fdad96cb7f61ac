#include "denotation/patterns.h"

#include <algorithm>

namespace cedr {
namespace denotation {

namespace {

/// Builds the composite event of the Section 3.3.2 tables from a
/// contributor tuple in declaration order: id = idgen(...), Os/Oe/Vs from
/// the latest contributor, Ve = earliest.Vs + w, rt = min root time,
/// lineage [e1..en], payload = concatenation of contributor payloads.
Event MakeComposite(const std::vector<const Event*>& tuple, Duration w,
                    const SchemaPtr& output_schema) {
  auto by_vs = [](const Event* a, const Event* b) { return a->vs < b->vs; };
  const Event& first = **std::min_element(tuple.begin(), tuple.end(), by_vs);
  const Event& last = **std::max_element(tuple.begin(), tuple.end(), by_vs);
  Event out;
  IdGenMix id;
  for (const Event* e : tuple) id.Add(e->id);
  out.id = id.id();
  out.k = out.id;
  out.os = last.os;
  out.oe = last.oe;
  out.vs = last.vs;
  out.ve = TimeAdd(first.vs, w);
  out.rt = kInfinity;
  Lineage::List cbt;
  for (const Event* e : tuple) {
    out.rt = std::min(out.rt, e->rt);
    cbt.push_back(std::make_shared<const Event>(*e));
  }
  out.cbt = std::move(cbt);
  // Concatenate payload values; schema (if provided) describes the
  // concatenation.
  std::vector<Value> values;
  for (const Event* e : tuple) {
    values.insert(values.end(), e->payload.values().begin(),
                  e->payload.values().end());
  }
  out.payload = Row(output_schema, std::move(values));
  return out;
}

EventList SortedByVs(EventList events) {
  std::sort(events.begin(), events.end(),
            [](const Event& a, const Event& b) {
              if (a.vs != b.vs) return a.vs < b.vs;
              return a.id < b.id;
            });
  return events;
}

}  // namespace

EventList Sequence(const std::vector<EventList>& inputs, Duration w,
                   const TuplePredicate& pred, SchemaPtr output_schema) {
  EventList out;
  if (inputs.empty()) return out;
  std::vector<const Event*> tuple;

  // Depth-first enumeration over input positions with the scope and the
  // strict Vs ordering pruning the search.
  std::function<void(size_t)> extend = [&](size_t stage) {
    if (stage == inputs.size()) {
      Event composite = MakeComposite(tuple, w, output_schema);
      // A tuple spanning exactly w has lifetime [Vs, Vs): an event that
      // is valid nowhere does not exist (consistent with the runtime).
      if (!composite.valid().empty()) out.push_back(std::move(composite));
      return;
    }
    for (const Event& e : inputs[stage]) {
      if (!tuple.empty()) {
        const Event& prev = *tuple.back();
        if (e.vs <= prev.vs) continue;  // strictly increasing Vs
        if (e.vs - tuple.front()->vs > w) continue;  // scope
      }
      tuple.push_back(&e);
      if (pred(tuple)) extend(stage + 1);
      tuple.pop_back();
    }
  };
  extend(0);
  return SortedByVs(std::move(out));
}

EventList AtLeast(size_t n, const std::vector<EventList>& inputs, Duration w,
                  const TuplePredicate& pred, SchemaPtr output_schema) {
  EventList out;
  const size_t k = inputs.size();
  if (n == 0 || n > k) return out;

  // Enumerate ordered tuples of n events drawn from n distinct inputs
  // with strictly increasing Vs within the scope. `chosen` holds each
  // input's event, or null while the input is unused.
  std::vector<const Event*> tuple;
  std::vector<const Event*> chosen(k, nullptr);

  std::function<void()> extend = [&]() {
    if (tuple.size() == n) {
      // The composite lists its contributors in input order.
      std::vector<const Event*> by_input;
      for (const Event* e : chosen) {
        if (e != nullptr) by_input.push_back(e);
      }
      Event composite = MakeComposite(by_input, w, output_schema);
      if (!composite.valid().empty()) out.push_back(std::move(composite));
      return;
    }
    for (size_t i = 0; i < k; ++i) {
      if (chosen[i] != nullptr) continue;
      for (const Event& e : inputs[i]) {
        if (!tuple.empty()) {
          if (e.vs <= tuple.back()->vs) continue;
          if (e.vs - tuple.front()->vs > w) continue;
        }
        chosen[i] = &e;
        tuple.push_back(&e);
        if (pred(tuple)) extend();
        tuple.pop_back();
        chosen[i] = nullptr;
      }
    }
  };
  extend();

  // The enumeration above can reach the same event set via different
  // input orders only if Vs ties were allowed; strict ordering makes
  // tuples unique, but dedupe defensively by id.
  std::sort(out.begin(), out.end(),
            [](const Event& a, const Event& b) { return a.id < b.id; });
  out.erase(std::unique(out.begin(), out.end(),
                        [](const Event& a, const Event& b) {
                          return a.id == b.id;
                        }),
            out.end());
  return SortedByVs(std::move(out));
}

EventList All(const std::vector<EventList>& inputs, Duration w,
              const TuplePredicate& pred, SchemaPtr output_schema) {
  return AtLeast(inputs.size(), inputs, w, pred, std::move(output_schema));
}

EventList Any(const std::vector<EventList>& inputs,
              const TuplePredicate& pred, SchemaPtr output_schema) {
  return AtLeast(1, inputs, /*w=*/1, pred, std::move(output_schema));
}

EventList AtMost(size_t n, const std::vector<EventList>& inputs, Duration w,
                 const TuplePredicate& pred) {
  // Pool all input events; for each, count the events in (Vs - w, Vs].
  EventList pool;
  for (const EventList& input : inputs) {
    pool.insert(pool.end(), input.begin(), input.end());
  }
  pool = SortedByVs(std::move(pool));
  EventList out;
  for (size_t i = 0; i < pool.size(); ++i) {
    const Event& e = pool[i];
    std::vector<const Event*> tuple = {&e};
    if (!pred(tuple)) continue;
    size_t count = 0;
    for (const Event& other : pool) {
      if (other.vs > e.vs - w && other.vs <= e.vs) ++count;
    }
    if (count <= n) {
      out.push_back(MakeComposite(tuple, w, nullptr));
    }
  }
  return out;
}

EventList Unless(const EventList& e1s, const EventList& e2s, Duration w,
                 const NegationPredicate& neg) {
  EventList out;
  for (const Event& e1 : e1s) {
    std::vector<const Event*> tuple = {&e1};
    bool blocked = false;
    for (const Event& e2 : e2s) {
      if (e1.vs < e2.vs && e2.vs < TimeAdd(e1.vs, w) && neg(tuple, e2)) {
        blocked = true;
        break;
      }
    }
    if (blocked) continue;
    // Output fields per the UNLESS row of the operator table: identity,
    // times and payload of e1, lifetime extended to e1.Vs + w. Like
    // UNLESS', it keeps e1's lineage (e1 itself when primitive), which an
    // enclosing UNLESS' anchors on and NOT draws its window from.
    Event o = e1;
    o.ve = TimeAdd(e1.vs, w);
    if (o.cbt.empty()) o.cbt = {std::make_shared<const Event>(e1)};
    out.push_back(std::move(o));
  }
  return SortedByVs(std::move(out));
}

EventList UnlessPrime(const EventList& e1s, const EventList& e2s, size_t n,
                      Duration w, const NegationPredicate& neg) {
  EventList out;
  for (const Event& e1 : e1s) {
    const Event* anchor = nullptr;
    if (e1.cbt.empty()) {
      if (n == 1) anchor = &e1;
    } else if (n >= 1 && n <= e1.cbt.size()) {
      anchor = e1.cbt[n - 1].get();
    }
    if (anchor == nullptr) continue;
    std::vector<const Event*> tuple = {&e1};
    bool blocked = false;
    for (const Event& e2 : e2s) {
      if (anchor->vs < e2.vs && e2.vs < TimeAdd(anchor->vs, w) &&
          neg(tuple, e2)) {
        blocked = true;
        break;
      }
    }
    if (blocked) continue;
    Event o = e1;
    o.vs = std::max(e1.vs, TimeAdd(anchor->vs, w));
    o.ve = TimeAdd(e1.vs, w);
    if (o.valid().empty()) continue;
    if (o.cbt.empty()) o.cbt = {std::make_shared<const Event>(e1)};
    out.push_back(std::move(o));
  }
  return SortedByVs(std::move(out));
}

EventList NotSequence(const EventList& negated,
                      const EventList& sequence_outputs,
                      const NegationPredicate& neg) {
  EventList out;
  for (const Event& es : sequence_outputs) {
    if (es.cbt.empty()) continue;
    std::vector<const Event*> tuple;
    tuple.reserve(es.cbt.size());
    for (const EventRef& c : es.cbt) tuple.push_back(c.get());
    // The window lies between the earliest and latest contributor.
    Time first_vs = kInfinity;
    Time last_vs = kMinTime;
    for (const Event* c : tuple) {
      first_vs = std::min(first_vs, c->vs);
      last_vs = std::max(last_vs, c->vs);
    }
    bool blocked = false;
    for (const Event& e : negated) {
      if (first_vs < e.vs && e.vs < last_vs && neg(tuple, e)) {
        blocked = true;
        break;
      }
    }
    if (!blocked) out.push_back(es);
  }
  return SortedByVs(std::move(out));
}

EventList CancelWhen(const EventList& e1s, const EventList& e2s,
                     const NegationPredicate& neg) {
  EventList out;
  for (const Event& e1 : e1s) {
    std::vector<const Event*> tuple = {&e1};
    bool canceled = false;
    for (const Event& e2 : e2s) {
      if (e1.rt < e2.vs && e2.vs < e1.vs && neg(tuple, e2)) {
        canceled = true;
        break;
      }
    }
    if (!canceled) out.push_back(e1);
  }
  return SortedByVs(std::move(out));
}

}  // namespace denotation
}  // namespace cedr
