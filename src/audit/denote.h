// Whole-query denotational evaluation: interprets a bound logical plan
// as a pure function over ideal history tables, composing the
// denotational pattern/relational operators (src/denotation) exactly the
// way BuildPhysicalPlan composes the incremental runtime operators
// (src/plan/physical.cc) - leaf-local filters, predicate injection with
// flat-index rebasing, output projection, and temporal slices.
//
// This is the oracle side of the differential audit (DESIGN.md,
// "Differential auditing"): for any compiled query Q and ordered input
// streams S_1..S_k, the runtime at any (M = inf) consistency point must
// converge to Star-equality with DenoteQuery(Q.bound(), Ideal(S_i)).
#ifndef CEDR_AUDIT_DENOTE_H_
#define CEDR_AUDIT_DENOTE_H_

#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "denotation/ideal.h"
#include "plan/logical.h"

namespace cedr {
namespace audit {

/// Evaluates the bound query denotationally over per-event-type ideal
/// inputs (unitemporal ideal history tables, e.g. denotation::IdealOf of
/// the ordered physical stream). Missing event types are treated as
/// empty inputs. kPlanError for plan shapes the evaluator does not
/// cover.
Result<EventList> DenoteQuery(const plan::BoundQuery& query,
                              const std::map<std::string, EventList>& inputs);

/// Appends the primitive events of `e`'s lineage, depth first; a
/// primitive appends itself.
void FlattenInto(const Event* e, std::vector<const Event*>* out);

}  // namespace audit
}  // namespace cedr

#endif  // CEDR_AUDIT_DENOTE_H_
