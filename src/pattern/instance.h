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
/// a contributor tuple in declaration order: id = idgen(contributor
/// ids), Os/Oe/Vs from the latest contributor, Ve = earliest.Vs + w,
/// rt = min root time, lineage [e1..en], payload = concatenated
/// contributor payloads under `schema` (may be null). `tuple` becomes
/// the composite's cbt, so every copy of the composite shares it.
Event MakeCompositeEvent(Lineage tuple, Duration w, const SchemaPtr& schema);

/// Index from contributor event id to the composite outputs it
/// participates in, used to retract composites when a contributor is
/// removed by a full retraction.
///
/// A composite is kept as its lineage (and Ve, for trimming), not as an
/// event: it is a function of its contributors, the operator's scope and
/// its output schema, and contributors are immutable shared refs (a
/// partial shrink replaces the ref in the store, while the lineage keeps
/// the old one), so the rebuild equals the composite recorded.
class CompositeIndex {
 public:
  CompositeIndex(Duration scope, SchemaPtr schema)
      : scope_(scope), schema_(std::move(schema)) {}

  void Record(const Event& composite);

  /// Removes and returns the live composites involving `contributor`.
  std::vector<Event> TakeByContributor(EventId contributor);

  /// Forgets composites whose lifetime ended at or before `horizon`.
  void Trim(Time horizon);

  size_t size() const { return composites_.size(); }

  /// Serializes the live composites and the contributor index (the
  /// index's vector order matters: it is the retraction emission order).
  void Snapshot(io::BinaryWriter* w) const;
  /// kCorruption if a composite's lineage does not rebuild its id.
  Status Restore(io::BinaryReader* r);

 private:
  struct Recorded {
    Time ve = 0;
    Lineage cbt;
  };

  Event Rebuild(const Recorded& c) const {
    return MakeCompositeEvent(c.cbt, scope_, schema_);
  }

  Duration scope_;
  SchemaPtr schema_;
  std::unordered_map<EventId, Recorded> composites_;
  std::unordered_map<EventId, std::vector<EventId>> by_contributor_;
};

}  // namespace cedr

#endif  // CEDR_PATTERN_INSTANCE_H_
