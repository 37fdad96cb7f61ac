// Physical plan construction: instantiates the runtime operator graph
// (src/ops, src/pattern) from a bound logical plan.
#ifndef CEDR_PLAN_PHYSICAL_H_
#define CEDR_PLAN_PHYSICAL_H_

#include <map>
#include <memory>

#include "common/result.h"
#include "ops/operator.h"
#include "plan/logical.h"

namespace cedr {
namespace plan {

struct PhysicalPlan {
  /// Owned operators in construction order, which is not topological:
  /// each pattern node comes before the children and leaf filters that
  /// feed it (pre-order), then the output stages (projection, slices)
  /// follow in stream order. CompiledQuery::Finish drains twice for this.
  std::vector<std::unique_ptr<Operator>> operators;
  /// Event type -> input entry points (operator + port). One type may
  /// feed several leaves.
  std::map<std::string, std::vector<std::pair<Operator*, int>>> inputs;
  /// The operator producing the query's output stream; connect a sink to
  /// its port 0.
  Operator* output = nullptr;

  std::string ToString() const;
};

/// Builds the runtime operator graph. The query's consistency spec is
/// applied to every operator.
Result<std::unique_ptr<PhysicalPlan>> BuildPhysicalPlan(
    const BoundQuery& query);

}  // namespace plan
}  // namespace cedr

#endif  // CEDR_PLAN_PHYSICAL_H_
