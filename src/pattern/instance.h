// Composite-instance construction shared by the runtime pattern
// detectors.
#ifndef CEDR_PATTERN_INSTANCE_H_
#define CEDR_PATTERN_INSTANCE_H_

#include "stream/event.h"

namespace cedr {

/// Builds the composite event of the Section 3.3.2 operator tables from
/// a contributor tuple in declaration order: id = idgen(contributor
/// ids), Os/Oe/Vs from the latest contributor, Ve = earliest.Vs + w,
/// rt = min root time, lineage [e1..en], payload = concatenated
/// contributor payloads under `schema` (may be null). `tuple` becomes
/// the composite's cbt, so every copy of the composite shares it.
Event MakeCompositeEvent(Lineage tuple, Duration w, const SchemaPtr& schema);

}  // namespace cedr

#endif  // CEDR_PATTERN_INSTANCE_H_
