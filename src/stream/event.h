// Event: a tuple of the CEDR tritemporal stream model (Sections 2 and 4).
//
// Conceptually a stream is a time-varying relation whose rows carry three
// temporal dimensions:
//   * valid time      [Vs, Ve)  - when the fact holds, per the provider;
//   * occurrence time [Os, Oe)  - when this version of the fact was the
//                                 current one, per the provider's logical
//                                 clock (modifications produce new rows
//                                 with the same ID and later Os);
//   * CEDR time       [Cs, Ce)  - when this physical row was current at
//                                 the CEDR server (retractions close Ce of
//                                 the row they correct).
// K groups an initial insert with all its retractions (Section 4,
// Figure 2). Rt and cbt[] are the composite-event header fields of
// Section 3.3.1: root time and contributor lineage.
#ifndef CEDR_STREAM_EVENT_H_
#define CEDR_STREAM_EVENT_H_

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <vector>

#include "common/row.h"
#include "common/time.h"

namespace cedr {

using EventId = uint64_t;

struct Event;
using EventRef = std::shared_ptr<const Event>;

/// A composite's contributor lineage ([e1, ..., en]): one immutable list
/// that every copy of the event shares, so copying an Event copies one
/// pointer. Reads mirror std::vector; it is built whole from a vector or
/// a braced list and never mutated. An empty lineage holds no list.
class Lineage {
 public:
  using List = std::vector<EventRef>;
  using const_iterator = const EventRef*;

  Lineage() = default;
  Lineage(List refs)  // NOLINT implicit
      : list_(refs.empty() ? nullptr
                           : std::make_shared<const List>(std::move(refs))) {}
  Lineage(std::initializer_list<EventRef> refs)
      : list_(refs.size() == 0 ? nullptr
                               : std::make_shared<const List>(refs)) {}

  size_t size() const { return list_ ? list_->size() : 0; }
  bool empty() const { return size() == 0; }
  const EventRef& operator[](size_t i) const { return (*list_)[i]; }
  const EventRef& front() const { return list_->front(); }
  const EventRef& back() const { return list_->back(); }
  /// The first element; copies of one lineage return the same address.
  const EventRef* data() const { return list_ ? list_->data() : nullptr; }
  const_iterator begin() const { return data(); }
  const_iterator end() const { return data() + size(); }

 private:
  std::shared_ptr<const List> list_;
};

struct Event {
  EventId id = 0;

  // Valid time.
  Time vs = 0;
  Time ve = kInfinity;
  // Occurrence time.
  Time os = 0;
  Time oe = kInfinity;
  // CEDR (system) time.
  Time cs = 0;
  Time ce = kInfinity;

  /// Retraction-group key (Figure 2's K column).
  uint64_t k = 0;

  /// Root time: minimum root time among contributors; equals vs for
  /// primitive events. Used by CANCEL-WHEN (Section 3.3.2).
  Time rt = 0;

  /// Contributor lineage for composite events ([e1, ..., en]); empty for
  /// primitive events (the paper's NULL).
  Lineage cbt;

  Row payload;

  Interval valid() const { return Interval{vs, ve}; }
  Interval occurrence() const { return Interval{os, oe}; }
  Interval cedr() const { return Interval{cs, ce}; }

  bool is_primitive() const { return cbt.empty(); }

  /// Header + payload rendering, e.g. "e3 V[1, 10) O[2, inf) C[4, inf)".
  std::string ToString() const;
};

/// The paper's idgen pairing function: maps any list of contributor IDs to
/// an output ID such that different input sets give different outputs
/// (realized as an order-sensitive 64-bit mix; collisions are negligible
/// for the id spaces used here). Add each input in order, then read id().
class IdGenMix {
 public:
  void Add(EventId input);
  EventId id() const;

 private:
  uint64_t h_ = 0x5EED5EEDULL;
};

/// IdGenMix over a fixed list of ids, without allocating.
inline EventId IdGen(std::initializer_list<EventId> inputs) {
  IdGenMix mix;
  for (EventId id : inputs) mix.Add(id);
  return mix.id();
}

/// Convenience builders used pervasively in tests and benches.
Event MakeEvent(EventId id, Time vs, Time ve, Row payload = Row());
Event MakeBitemporalEvent(EventId id, Time vs, Time ve, Time os, Time oe,
                          Row payload = Row());

}  // namespace cedr

#endif  // CEDR_STREAM_EVENT_H_
