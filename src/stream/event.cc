#include "stream/event.h"

#include "common/format.h"
#include "common/hash.h"

namespace cedr {

std::string Event::ToString() const {
  std::string out = StrCat("e", id, " V", valid().ToString(), " O",
                           occurrence().ToString(), " C", cedr().ToString());
  if (!payload.empty()) out += " " + payload.ToString();
  return out;
}

void IdGenMix::Add(EventId input) {
  h_ = SplitMix64(h_ ^ SplitMix64(input + 0x1234));
}

EventId IdGenMix::id() const {
  // Keep the top bit set so generated ids never collide with small
  // hand-assigned primitive ids.
  return h_ | (1ULL << 63);
}

Event MakeEvent(EventId id, Time vs, Time ve, Row payload) {
  Event e;
  e.id = id;
  e.vs = vs;
  e.ve = ve;
  e.os = vs;
  e.oe = kInfinity;
  e.k = id;
  e.rt = vs;
  e.payload = std::move(payload);
  return e;
}

Event MakeBitemporalEvent(EventId id, Time vs, Time ve, Time os, Time oe,
                          Row payload) {
  Event e = MakeEvent(id, vs, ve, std::move(payload));
  e.os = os;
  e.oe = oe;
  e.rt = vs;
  return e;
}

}  // namespace cedr
