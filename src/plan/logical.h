// Bound logical plans: the output of the binder and the blueprint for
// physical operator construction.
#ifndef CEDR_PLAN_LOGICAL_H_
#define CEDR_PLAN_LOGICAL_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "consistency/spec.h"
#include "pattern/predicate.h"
#include "pattern/sc_mode.h"

namespace cedr {
namespace plan {

/// A bound reference to one input stream of the pattern. Positive leaves
/// get consecutive `flat_index` values in DFS order (their payloads are
/// concatenated in that order to form composite payloads); negated
/// leaves get distinguished indices >= kNegatedIndexBase.
inline constexpr int kNegatedIndexBase = 1 << 20;

struct BoundLeaf {
  std::string event_type;
  std::string binding;  // explicit AS name, or the event type
  SchemaPtr schema;
  int flat_index = 0;
  bool negated = false;
  /// Single-leaf predicates pushed down to this input (contributor
  /// indices rebased to 0).
  std::vector<AttributeComparison> local_filter;
};

enum class LogicalKind {
  kLeaf,
  kSequence,
  kAll,
  kAny,
  kAtLeast,
  kAtMost,
  kUnless,
  kNot,
  kCancelWhen,
};

const char* LogicalKindToString(LogicalKind kind);

struct LogicalNode {
  LogicalKind kind = LogicalKind::kLeaf;
  int leaf_id = -1;  // kLeaf
  int64_t count = 0;
  Duration scope = 0;
  /// SC mode of each child contributor.
  ScModes child_modes;
  /// Positive predicates injected at this node (flat positive indices).
  std::vector<AttributeComparison> tuple_comparisons;
  /// Predicates involving this node's negated leaf (negation ops only).
  std::vector<AttributeComparison> negation_comparisons;
  int negated_leaf_id = -1;  // negation ops: index into leaves
  /// Positive children; negation ops keep the negated leaf separately.
  std::vector<std::unique_ptr<LogicalNode>> children;
  /// Range [flat_lo, flat_hi) of positive flat indices under this node.
  int flat_lo = 0;
  int flat_hi = 0;

  std::string ToString(const std::vector<BoundLeaf>& leaves,
                       int indent = 0) const;
};

/// The most an output of `node` can have its Vs, or any contributor's
/// Vs, after its root time, given rt = Vs for primitive events: how far
/// a negation over `node` must look back (Section 3.3.2). Saturates at
/// kInfinity.
Duration Reach(const LogicalNode& node);

/// How many entries an output of `node` lists in its lineage, a
/// primitive counting 1: k for SEQUENCE and ALL, the count for ATLEAST,
/// 1 for ANY and ATMOST, the positive arm's for a negation. A PatternOp's
/// match size, and the bound of an UNLESS' anchor.
size_t LineageLength(const LogicalNode& node);

/// Whether every output of `node`, its lineage flattened depth first,
/// holds each positive leaf under `node` at the leaf's flat position
/// (rebased by flat_lo). Lineages list contributors in declaration
/// order, so this holds where every match binds every leaf. OUTPUT and
/// predicates read contributors by position only through such nodes.
bool Positional(const LogicalNode& node);

struct OutputColumn {
  /// Index into the flattened composite payload.
  int field_index = 0;
  std::string name;
};

struct BoundQuery {
  std::string name;
  std::vector<BoundLeaf> leaves;
  std::unique_ptr<LogicalNode> root;
  /// Schema of the flattened composite payload (field names are
  /// "<binding>_<attribute>").
  SchemaPtr composite_schema;
  /// OUTPUT projection; empty means emit the full composite payload.
  std::vector<OutputColumn> output;
  SchemaPtr output_schema;  // set when output is non-empty
  ConsistencySpec spec = ConsistencySpec::Strong();
  std::optional<Interval> occurrence_slice;
  std::optional<Interval> valid_slice;

  std::string ToString() const;
};

/// Payload-value offset of a positive flat index within the composite.
int FieldOffset(const BoundQuery& query, int flat_index);

/// The composite schema's slice covering positive flat range [lo, hi);
/// null when the query has no composite schema.
SchemaPtr SchemaSlice(const BoundQuery& query, int lo, int hi);

}  // namespace plan
}  // namespace cedr

#endif  // CEDR_PLAN_LOGICAL_H_
