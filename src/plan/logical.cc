#include "plan/logical.h"

#include <algorithm>

#include "common/format.h"

namespace cedr {
namespace plan {

const char* LogicalKindToString(LogicalKind kind) {
  switch (kind) {
    case LogicalKind::kLeaf:
      return "leaf";
    case LogicalKind::kSequence:
      return "sequence";
    case LogicalKind::kAll:
      return "all";
    case LogicalKind::kAny:
      return "any";
    case LogicalKind::kAtLeast:
      return "atleast";
    case LogicalKind::kAtMost:
      return "atmost";
    case LogicalKind::kUnless:
      return "unless";
    case LogicalKind::kNot:
      return "not";
    case LogicalKind::kCancelWhen:
      return "cancel-when";
  }
  return "?";
}

Duration Reach(const LogicalNode& node) {
  switch (node.kind) {
    case LogicalKind::kLeaf:
    case LogicalKind::kAtMost:
      // A primitive, or the composite of one arrival.
      return 0;
    case LogicalKind::kSequence:
    case LogicalKind::kAll:
    case LogicalKind::kAtLeast:
    case LogicalKind::kAny: {
      // Contributors lie within the scope of one another.
      Duration reach = 0;
      for (const auto& child : node.children) {
        reach = std::max(reach, Reach(*child));
      }
      return TimeAdd(node.scope, reach);
    }
    case LogicalKind::kUnless:
      // UNLESS' starts its output up to w after its anchor.
      return node.count > 0 ? TimeAdd(Reach(*node.children[0]), node.scope)
                            : Reach(*node.children[0]);
    case LogicalKind::kNot:
    case LogicalKind::kCancelWhen:
      return Reach(*node.children[0]);
  }
  return kInfinity;
}

size_t LineageLength(const LogicalNode& node) {
  switch (node.kind) {
    case LogicalKind::kLeaf:
    case LogicalKind::kAny:
    case LogicalKind::kAtMost:
      return 1;
    case LogicalKind::kSequence:
    case LogicalKind::kAll:
      return node.children.size();
    case LogicalKind::kAtLeast:
      return static_cast<size_t>(node.count);
    case LogicalKind::kUnless:
    case LogicalKind::kNot:
    case LogicalKind::kCancelWhen:
      return LineageLength(*node.children[0]);
  }
  return 0;
}

bool Positional(const LogicalNode& node) {
  for (const auto& child : node.children) {
    if (!Positional(*child)) return false;
  }
  // A negation passes its arm's outputs through; any other node must
  // bind every input in every match.
  return node.kind == LogicalKind::kLeaf || node.negated_leaf_id >= 0 ||
         LineageLength(node) == node.children.size();
}

std::string LogicalNode::ToString(const std::vector<BoundLeaf>& leaves,
                                  int indent) const {
  std::string pad(indent * 2, ' ');
  std::string out = pad + LogicalKindToString(kind);
  if (kind == LogicalKind::kLeaf) {
    const BoundLeaf& leaf = leaves[leaf_id];
    out += StrCat(" ", leaf.event_type, " [", leaf.binding, "@",
                  leaf.flat_index, "]");
    if (!leaf.local_filter.empty()) {
      out += StrCat(" filter(", leaf.local_filter.size(), ")");
    }
  } else {
    if (count > 0) out += StrCat(" n=", count);
    if (scope > 0) out += StrCat(" w=", TimeToString(scope));
    if (!tuple_comparisons.empty()) {
      out += StrCat(" preds=", tuple_comparisons.size());
    }
    if (!negation_comparisons.empty()) {
      out += StrCat(" neg_preds=", negation_comparisons.size());
    }
    if (negated_leaf_id >= 0) {
      out += StrCat(" negated=", leaves[negated_leaf_id].event_type);
    }
  }
  out += "\n";
  for (const auto& child : children) {
    out += child->ToString(leaves, indent + 1);
  }
  return out;
}

std::string BoundQuery::ToString() const {
  std::string out = StrCat("query ", name, " [", spec.ToString(), "]\n");
  if (root != nullptr) out += root->ToString(leaves, 1);
  if (output_schema != nullptr) {
    out += "  output " + output_schema->ToString() + "\n";
  }
  if (occurrence_slice.has_value()) {
    out += "  @" + occurrence_slice->ToString() + "\n";
  }
  if (valid_slice.has_value()) {
    out += "  #" + valid_slice->ToString() + "\n";
  }
  return out;
}

int FieldOffset(const BoundQuery& query, int flat_index) {
  int offset = 0;
  for (const BoundLeaf& leaf : query.leaves) {
    if (!leaf.negated && leaf.flat_index < flat_index) {
      offset += static_cast<int>(leaf.schema->num_fields());
    }
  }
  return offset;
}

SchemaPtr SchemaSlice(const BoundQuery& query, int lo, int hi) {
  if (query.composite_schema == nullptr) return nullptr;
  const auto& fields = query.composite_schema->fields();
  return Schema::Make(std::vector<Field>(
      fields.begin() + FieldOffset(query, lo),
      fields.begin() + FieldOffset(query, hi)));
}

}  // namespace plan
}  // namespace cedr
