#include "pattern/instance.h"

#include <algorithm>
#include <vector>

namespace cedr {

Event MakeCompositeEvent(Lineage tuple, Duration w, const SchemaPtr& schema) {
  const Event* first = tuple.front().get();
  const Event* last = first;
  Event out;
  IdGenMix id;
  size_t width = 0;
  out.rt = kInfinity;
  for (const EventRef& e : tuple) {
    id.Add(e->id);
    width += e->payload.size();
    out.rt = std::min(out.rt, e->rt);
    if (e->vs < first->vs) first = e.get();
    if (e->vs > last->vs) last = e.get();
  }
  out.id = id.id();
  out.k = out.id;
  out.os = last->os;
  out.oe = last->oe;
  out.vs = last->vs;
  out.ve = TimeAdd(first->vs, w);
  std::vector<Value> values;
  values.reserve(width);
  for (const EventRef& e : tuple) {
    values.insert(values.end(), e->payload.values().begin(),
                  e->payload.values().end());
  }
  out.payload = Row(schema, std::move(values));
  out.cbt = std::move(tuple);
  return out;
}

}  // namespace cedr
