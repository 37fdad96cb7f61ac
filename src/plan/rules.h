// Logical rewrite rules. The paper defines ALL and ANY as syntactic
// forms of ATLEAST; additional rules normalize the plan so the physical
// builder only sees the core operator set.
#ifndef CEDR_PLAN_RULES_H_
#define CEDR_PLAN_RULES_H_

#include <string>
#include <vector>

#include "plan/logical.h"

namespace cedr {
namespace plan {

/// Applies one rule over the whole tree; returns true if anything
/// changed and appends a description to `trace`.
using Rule = bool (*)(BoundQuery* query, std::vector<std::string>* trace);

/// ALL(E1..Ek, w) -> ATLEAST(k, E1..Ek, w).
bool RewriteAllToAtLeast(BoundQuery* query, std::vector<std::string>* trace);

/// ANY(E1..Ek) -> ATLEAST(1, E1..Ek, 1).
bool RewriteAnyToAtLeast(BoundQuery* query, std::vector<std::string>* trace);

/// Drops constant-only comparisons that are statically true/false is out
/// of scope; this rule removes duplicated injected comparisons instead
/// (CorrelationKey expansion can duplicate user predicates).
bool DeduplicateComparisons(BoundQuery* query,
                            std::vector<std::string>* trace);

/// The default rule set in application order.
const std::vector<Rule>& DefaultRules();

}  // namespace plan
}  // namespace cedr

#endif  // CEDR_PLAN_RULES_H_
