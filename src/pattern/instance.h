// Composite-instance construction and bookkeeping shared by the runtime
// pattern detectors.
#ifndef CEDR_PATTERN_INSTANCE_H_
#define CEDR_PATTERN_INSTANCE_H_

#include <unordered_map>
#include <vector>

#include "io/serde.h"
#include "stream/event.h"

namespace cedr {

/// Builds the composite event of the Section 3.3.2 operator tables from
/// an ordered contributor tuple: id = idgen(contributor ids),
/// Os/Oe/Vs from the last contributor, Ve = first.Vs + w, rt = min root
/// time, lineage [e1..en], payload = concatenated contributor payloads
/// under `schema` (may be null). The lineage shares the contributors:
/// `tuple` becomes the composite's cbt.
Event MakeCompositeEvent(std::vector<EventRef> tuple, Duration w,
                         const SchemaPtr& schema);

/// Index from contributor event id to the composite outputs it
/// participates in, used to retract composites when a contributor is
/// removed by a full retraction.
class CompositeIndex {
 public:
  void Record(const Event& composite);

  /// Removes and returns the live composites involving `contributor`.
  std::vector<Event> TakeByContributor(EventId contributor);

  /// Forgets composites whose lifetime ended at or before `horizon`.
  void Trim(Time horizon);

  size_t size() const { return composites_.size(); }

  /// Serializes the live composites and the contributor index (the
  /// index's vector order matters: it is the retraction emission order).
  void Snapshot(io::BinaryWriter* w) const;
  Status Restore(io::BinaryReader* r);

 private:
  std::unordered_map<EventId, Event> composites_;
  std::unordered_map<EventId, std::vector<EventId>> by_contributor_;
};

}  // namespace cedr

#endif  // CEDR_PATTERN_INSTANCE_H_
