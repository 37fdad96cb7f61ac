#include "plan/physical.h"

#include <algorithm>

#include "common/format.h"
#include "ops/alter_lifetime.h"
#include "ops/project.h"
#include "ops/select.h"
#include "pattern/counting.h"
#include "pattern/negation.h"
#include "pattern/sequence.h"

namespace cedr {
namespace plan {

namespace {

void FlattenInto(const Event* e, std::vector<const Event*>* out) {
  if (e == nullptr) return;
  if (e->cbt.empty()) {
    out->push_back(e);
    return;
  }
  for (const EventRef& c : e->cbt) FlattenInto(c.get(), out);
}

/// Rebases positive contributor indices by -flat_lo; negated markers
/// (>= kNegatedIndexBase) are left untouched.
std::vector<AttributeComparison> Rebase(
    std::vector<AttributeComparison> comparisons, int flat_lo) {
  for (AttributeComparison& c : comparisons) {
    if (c.left_contributor < kNegatedIndexBase) c.left_contributor -= flat_lo;
    if (c.right_contributor >= 0 && c.right_contributor < kNegatedIndexBase) {
      c.right_contributor -= flat_lo;
    }
  }
  return comparisons;
}

PatternTuplePredicate MakeNodePredicate(
    std::vector<AttributeComparison> comparisons, int flat_lo, int flat_hi,
    std::vector<int> child_offsets) {
  if (comparisons.empty()) return nullptr;
  comparisons = Rebase(std::move(comparisons), flat_lo);
  const int width = flat_hi - flat_lo;
  return [comparisons = std::move(comparisons),
          child_offsets = std::move(child_offsets),
          width](const std::vector<const Event*>& tuple,
                 const std::vector<int>& ports) {
    std::vector<const Event*> flat(static_cast<size_t>(width), nullptr);
    std::vector<const Event*> leaves;
    for (size_t i = 0; i < tuple.size() && i < ports.size(); ++i) {
      leaves.clear();
      FlattenInto(tuple[i], &leaves);
      size_t base = static_cast<size_t>(child_offsets[ports[i]]);
      for (size_t j = 0;
           j < leaves.size() && base + j < static_cast<size_t>(width); ++j) {
        flat[base + j] = leaves[j];
      }
    }
    for (const AttributeComparison& c : comparisons) {
      if (!c.Evaluate(flat)) return false;
    }
    return true;
  };
}

NegationPredicate MakeNodeNegationPredicate(
    std::vector<AttributeComparison> comparisons, int flat_lo,
    int negated_marker) {
  if (comparisons.empty()) return nullptr;
  comparisons = Rebase(std::move(comparisons), flat_lo);
  return [comparisons = std::move(comparisons), negated_marker](
             const std::vector<const Event*>& tuple, const Event& negated) {
    std::vector<const Event*> flat;
    for (const Event* e : tuple) FlattenInto(e, &flat);
    for (const AttributeComparison& c : comparisons) {
      if (!c.EvaluateWithNegated(flat, negated, negated_marker)) return false;
    }
    return true;
  };
}

class Builder {
 public:
  explicit Builder(const BoundQuery& query) : q_(query) {
    plan_ = std::make_unique<PhysicalPlan>();
  }

  Result<std::unique_ptr<PhysicalPlan>> Build();

 private:
  template <typename OpT>
  OpT* Own(std::unique_ptr<OpT> op) {
    OpT* raw = op.get();
    plan_->operators.push_back(std::move(op));
    return raw;
  }

  /// Payload-value offset of a positive flat index within the composite.
  int FieldOffset(int flat_index) const;
  /// Schema slice covering positive flat range [lo, hi); null if empty.
  SchemaPtr SchemaSlice(int lo, int hi) const;

  Result<Operator*> BuildNode(const LogicalNode& node);
  Status WirePositiveChild(const LogicalNode& child, Operator* parent,
                           int port);
  Status WireLeafInput(int leaf_id, Operator* parent, int port);

  const BoundQuery& q_;
  std::unique_ptr<PhysicalPlan> plan_;
};

int Builder::FieldOffset(int flat_index) const {
  int offset = 0;
  for (const BoundLeaf& leaf : q_.leaves) {
    if (!leaf.negated && leaf.flat_index < flat_index) {
      offset += static_cast<int>(leaf.schema->num_fields());
    }
  }
  return offset;
}

SchemaPtr Builder::SchemaSlice(int lo, int hi) const {
  if (q_.composite_schema == nullptr) return nullptr;
  int from = FieldOffset(lo);
  int to = FieldOffset(hi);
  std::vector<Field> fields(q_.composite_schema->fields().begin() + from,
                            q_.composite_schema->fields().begin() + to);
  return Schema::Make(std::move(fields));
}

Status Builder::WireLeafInput(int leaf_id, Operator* parent, int port) {
  const BoundLeaf& leaf = q_.leaves[leaf_id];
  Operator* entry = parent;
  int entry_port = port;
  if (!leaf.local_filter.empty()) {
    // Structured form: same semantics as MakeLocalFilter.
    auto select = std::make_unique<SelectOp>(
        leaf.local_filter, q_.spec, StrCat("filter:", leaf.binding));
    select->ConnectTo(parent, port);
    entry = Own(std::move(select));
    entry_port = 0;
  }
  plan_->inputs[leaf.event_type].emplace_back(entry, entry_port);
  return Status::OK();
}

Status Builder::WirePositiveChild(const LogicalNode& child, Operator* parent,
                                  int port) {
  if (child.kind == LogicalKind::kLeaf) {
    return WireLeafInput(child.leaf_id, parent, port);
  }
  CEDR_ASSIGN_OR_RETURN(Operator* op, BuildNode(child));
  op->ConnectTo(parent, port);
  return Status::OK();
}

Result<Operator*> Builder::BuildNode(const LogicalNode& node) {
  // Flat-leaf offset of each child within this node: predicates index
  // events (leaves), not payload values.
  std::vector<int> child_offsets;
  for (const auto& child : node.children) {
    child_offsets.push_back(child->flat_lo - node.flat_lo);
  }

  PatternTuplePredicate tuple_pred = MakeNodePredicate(
      node.tuple_comparisons, node.flat_lo, node.flat_hi, child_offsets);
  NegationPredicate neg_pred;
  if (node.negated_leaf_id >= 0) {
    neg_pred = MakeNodeNegationPredicate(
        node.negation_comparisons, node.flat_lo,
        q_.leaves[node.negated_leaf_id].flat_index);
  }

  const int k = static_cast<int>(node.children.size());
  Operator* op = nullptr;
  switch (node.kind) {
    case LogicalKind::kSequence: {
      op = Own(std::make_unique<SequenceOp>(
          k, node.scope, tuple_pred, node.child_modes,
          SchemaSlice(node.flat_lo, node.flat_hi), q_.spec));
      break;
    }
    case LogicalKind::kAll:
    case LogicalKind::kAtLeast: {
      size_t n = node.kind == LogicalKind::kAll
                     ? static_cast<size_t>(k)
                     : static_cast<size_t>(node.count);
      SchemaPtr schema = n == static_cast<size_t>(k)
                             ? SchemaSlice(node.flat_lo, node.flat_hi)
                             : nullptr;
      op = Own(std::make_unique<AtLeastOp>(n, k, node.scope, tuple_pred,
                                           node.child_modes,
                                           std::move(schema), q_.spec));
      break;
    }
    case LogicalKind::kAny: {
      op = Own(std::make_unique<AtLeastOp>(1, k, /*scope=*/1, tuple_pred,
                                           node.child_modes, nullptr,
                                           q_.spec));
      break;
    }
    case LogicalKind::kAtMost: {
      op = Own(std::make_unique<AtMostOp>(static_cast<size_t>(node.count), k,
                                          node.scope, tuple_pred, q_.spec));
      break;
    }
    case LogicalKind::kUnless:
    case LogicalKind::kNot:
    case LogicalKind::kCancelWhen: {
      NegationWindow window = NegationWindow::CancelWhen();
      if (node.kind == LogicalKind::kNot) {
        window = NegationWindow::Not(node.lookback);
      } else if (node.kind == LogicalKind::kUnless) {
        // The UNLESS' anchor is a contributor of the positive child's
        // output; for a SEQUENCE, ALL or ATLEAST child it lies at most
        // that child's scope before the output's Vs.
        window = node.count > 0
                     ? NegationWindow::UnlessPrime(
                           static_cast<size_t>(node.count), node.scope,
                           node.children[0]->scope)
                     : NegationWindow::Unless(node.scope);
      }
      op = Own(std::make_unique<NegationOp>(window, neg_pred, q_.spec));
      break;
    }
    case LogicalKind::kLeaf:
      return Status::PlanError("cannot build a bare leaf as a plan root");
  }

  // Wire inputs.
  switch (node.kind) {
    case LogicalKind::kSequence:
    case LogicalKind::kAll:
    case LogicalKind::kAny:
    case LogicalKind::kAtLeast:
    case LogicalKind::kAtMost: {
      for (int i = 0; i < k; ++i) {
        CEDR_RETURN_NOT_OK(WirePositiveChild(*node.children[i], op, i));
      }
      break;
    }
    case LogicalKind::kUnless:
    case LogicalKind::kNot:
    case LogicalKind::kCancelWhen: {
      CEDR_RETURN_NOT_OK(WirePositiveChild(*node.children[0], op, 0));
      CEDR_RETURN_NOT_OK(WireLeafInput(node.negated_leaf_id, op, 1));
      break;
    }
    case LogicalKind::kLeaf:
      break;
  }
  return op;
}

Result<std::unique_ptr<PhysicalPlan>> Builder::Build() {
  if (q_.root == nullptr) {
    return Status::PlanError("bound query has no pattern root");
  }
  CEDR_ASSIGN_OR_RETURN(Operator* head, BuildNode(*q_.root));

  if (!q_.output.empty()) {
    std::vector<int> indices;
    indices.reserve(q_.output.size());
    for (const OutputColumn& col : q_.output) indices.push_back(col.field_index);
    // Structured gather form: same semantics as the equivalent
    // RowTransform.
    auto project = Own(std::make_unique<ProjectOp>(
        std::move(indices), q_.output_schema, q_.spec, "output"));
    head->ConnectTo(project, 0);
    head = project;
  }

  if (q_.valid_slice.has_value()) {
    Interval slice = *q_.valid_slice;
    auto clip = Own(std::make_unique<AlterLifetimeOp>(
        [slice](const Event& e) { return std::max(e.vs, slice.start); },
        [slice](const Event& e) {
          Time start = std::max(e.vs, slice.start);
          Time end = std::min(e.ve, slice.end);
          return end > start ? end - start : 0;
        },
        q_.spec, "valid_slice"));
    head->ConnectTo(clip, 0);
    head = clip;
  }

  if (q_.occurrence_slice.has_value()) {
    Interval slice = *q_.occurrence_slice;
    auto filter = Own(std::make_unique<AlterLifetimeOp>(
        [](const Event& e) { return e.vs; },
        [slice](const Event& e) {
          bool intersects = e.os < slice.end && e.oe > slice.start;
          if (!intersects) return Duration{0};
          return e.ve == kInfinity ? kInfinity : e.ve - e.vs;
        },
        q_.spec, "occurrence_slice"));
    head->ConnectTo(filter, 0);
    head = filter;
  }

  plan_->output = head;
  return std::move(plan_);
}

}  // namespace

std::string PhysicalPlan::ToString() const {
  std::string out = "physical plan:\n";
  for (const auto& op : operators) {
    out += StrCat("  ", op->name(), " [", op->spec().ToString(), "]\n");
  }
  out += "  inputs:\n";
  for (const auto& [type, entries] : inputs) {
    out += StrCat("    ", type, " -> ");
    for (size_t i = 0; i < entries.size(); ++i) {
      if (i > 0) out += ", ";
      out += StrCat(entries[i].first->name(), ":", entries[i].second);
    }
    out += "\n";
  }
  if (output != nullptr) out += StrCat("  output: ", output->name(), "\n");
  return out;
}

Result<std::unique_ptr<PhysicalPlan>> BuildPhysicalPlan(
    const BoundQuery& query) {
  Builder builder(query);
  return builder.Build();
}

}  // namespace plan
}  // namespace cedr
