#include "audit/denote.h"

#include <algorithm>
#include <unordered_map>

#include "denotation/patterns.h"
#include "denotation/relational.h"

namespace cedr {
namespace audit {

namespace {

using plan::BoundLeaf;
using plan::BoundQuery;
using plan::kNegatedIndexBase;
using plan::LogicalKind;
using plan::LogicalNode;

/// Rebases positive contributor indices by -flat_lo; negated markers
/// (>= kNegatedIndexBase) are left untouched. Mirrors
/// plan/physical.cc's Rebase so injected predicates see identical
/// indices on both sides of the audit.
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

class Evaluator {
 public:
  Evaluator(const BoundQuery& query,
            const std::map<std::string, EventList>& inputs)
      : q_(query), inputs_(inputs) {}

  Result<EventList> Eval() {
    if (q_.root == nullptr) {
      return Status::PlanError("bound query has no pattern root");
    }
    CEDR_ASSIGN_OR_RETURN(EventList out, EvalNode(*q_.root));

    if (!q_.output.empty()) {
      std::vector<int> indices;
      indices.reserve(q_.output.size());
      for (const plan::OutputColumn& col : q_.output) {
        indices.push_back(col.field_index);
      }
      SchemaPtr schema = q_.output_schema;
      out = denotation::Project(out, [indices, schema](const Row& row) {
        std::vector<Value> values;
        values.reserve(indices.size());
        for (int i : indices) {
          values.push_back(i < static_cast<int>(row.size())
                               ? row.at(static_cast<size_t>(i))
                               : Value::Null());
        }
        return Row(schema, std::move(values));
      });
    }
    if (q_.valid_slice.has_value()) {
      out = denotation::SliceValid(out, *q_.valid_slice);
    }
    if (q_.occurrence_slice.has_value()) {
      out = denotation::SliceOccurrence(out, *q_.occurrence_slice);
    }
    return out;
  }

 private:
  /// The ideal input of a leaf: the event type's ideal table filtered by
  /// the leaf-local pushed-down predicate.
  EventList EvalLeaf(int leaf_id) const {
    const BoundLeaf& leaf = q_.leaves[leaf_id];
    auto it = inputs_.find(leaf.event_type);
    EventList events = it == inputs_.end() ? EventList{} : it->second;
    if (leaf.local_filter.empty()) return events;
    std::vector<AttributeComparison> filter = leaf.local_filter;
    return denotation::Select(events, [filter](const Row& row) {
      Event tmp;
      tmp.payload = row;
      std::vector<const Event*> tuple = {&tmp};
      for (const AttributeComparison& c : filter) {
        if (!c.Evaluate(tuple)) return false;
      }
      return true;
    });
  }

  /// A tuple predicate equivalent to the runtime's port-aware node
  /// predicate: each tuple element is located by address in its child's
  /// input list (the denotational enumerations iterate those lists in
  /// place), flattened at that child's flat offset, then the rebased
  /// comparisons are evaluated over the flat contributor vector.
  TuplePredicate MakeNodePredicate(
      const LogicalNode& node,
      const std::vector<const EventList*>& child_lists) const {
    if (node.tuple_comparisons.empty()) return TrueTuplePredicate();
    std::vector<AttributeComparison> comparisons =
        Rebase(node.tuple_comparisons, node.flat_lo);
    const int width = node.flat_hi - node.flat_lo;
    auto offsets = std::make_shared<std::unordered_map<const Event*, int>>();
    for (size_t i = 0; i < child_lists.size(); ++i) {
      int off = node.children[i]->flat_lo - node.flat_lo;
      for (const Event& e : *child_lists[i]) offsets->emplace(&e, off);
    }
    return [comparisons = std::move(comparisons), offsets,
            width](const std::vector<const Event*>& tuple) {
      std::vector<const Event*> flat(static_cast<size_t>(width), nullptr);
      std::vector<const Event*> leaves;
      for (const Event* e : tuple) {
        auto it = offsets->find(e);
        if (it == offsets->end()) continue;  // unknown origin: skip
        leaves.clear();
        FlattenInto(e, &leaves);
        size_t base = static_cast<size_t>(it->second);
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

  NegationPredicate MakeNodeNegationPredicate(const LogicalNode& node) const {
    if (node.negation_comparisons.empty()) return TrueNegationPredicate();
    std::vector<AttributeComparison> comparisons =
        Rebase(node.negation_comparisons, node.flat_lo);
    const int negated_marker = q_.leaves[node.negated_leaf_id].flat_index;
    return [comparisons = std::move(comparisons), negated_marker](
               const std::vector<const Event*>& tuple, const Event& negated) {
      std::vector<const Event*> flat;
      for (const Event* e : tuple) FlattenInto(e, &flat);
      for (const AttributeComparison& c : comparisons) {
        if (!c.EvaluateWithNegated(flat, negated, negated_marker)) {
          return false;
        }
      }
      return true;
    };
  }

  /// Per-child single-event filter for pooled operators (ANY, ATMOST):
  /// the runtime evaluates node comparisons with the event placed at its
  /// originating port's flat offset; pooling strips the origin, so the
  /// filter is applied per child before the pool is formed.
  EventList FilterChild(const LogicalNode& node, size_t child_index,
                        const EventList& events) const {
    if (node.tuple_comparisons.empty()) return events;
    std::vector<AttributeComparison> comparisons =
        Rebase(node.tuple_comparisons, node.flat_lo);
    const int width = node.flat_hi - node.flat_lo;
    const int off = node.children[child_index]->flat_lo - node.flat_lo;
    EventList out;
    for (const Event& e : events) {
      std::vector<const Event*> flat(static_cast<size_t>(width), nullptr);
      std::vector<const Event*> leaves;
      FlattenInto(&e, &leaves);
      for (size_t j = 0;
           j < leaves.size() &&
           static_cast<size_t>(off) + j < static_cast<size_t>(width);
           ++j) {
        flat[static_cast<size_t>(off) + j] = leaves[j];
      }
      bool keep = true;
      for (const AttributeComparison& c : comparisons) {
        if (!c.Evaluate(flat)) {
          keep = false;
          break;
        }
      }
      if (keep) out.push_back(e);
    }
    return out;
  }

  Result<EventList> EvalPositiveChild(const LogicalNode& child) {
    if (child.kind == LogicalKind::kLeaf) return EvalLeaf(child.leaf_id);
    return EvalNode(child);
  }

  Result<EventList> EvalNode(const LogicalNode& node) {
    const size_t k = node.children.size();
    switch (node.kind) {
      case LogicalKind::kSequence:
      case LogicalKind::kAll:
      case LogicalKind::kAtLeast: {
        std::vector<EventList> child_events;
        child_events.reserve(k);
        for (const auto& child : node.children) {
          CEDR_ASSIGN_OR_RETURN(EventList events, EvalPositiveChild(*child));
          child_events.push_back(std::move(events));
        }
        std::vector<const EventList*> child_lists;
        for (const EventList& events : child_events) {
          child_lists.push_back(&events);
        }
        TuplePredicate pred = MakeNodePredicate(node, child_lists);
        SchemaPtr slice = plan::SchemaSlice(q_, node.flat_lo, node.flat_hi);
        if (node.kind == LogicalKind::kSequence) {
          return denotation::Sequence(child_events, node.scope, pred,
                                      std::move(slice));
        }
        size_t n = node.kind == LogicalKind::kAll
                       ? k
                       : static_cast<size_t>(node.count);
        SchemaPtr schema = n == k ? std::move(slice) : nullptr;
        return denotation::AtLeast(n, child_events, node.scope, pred,
                                   std::move(schema));
      }
      case LogicalKind::kAny: {
        // ANY tuples are single events; the node predicate reduces to a
        // per-child filter with the event at its own flat offset.
        std::vector<EventList> child_events;
        child_events.reserve(k);
        for (size_t i = 0; i < k; ++i) {
          CEDR_ASSIGN_OR_RETURN(EventList events,
                                EvalPositiveChild(*node.children[i]));
          child_events.push_back(FilterChild(node, i, events));
        }
        return denotation::Any(child_events);
      }
      case LogicalKind::kAtMost: {
        // The binder routes every single-contributor predicate to a leaf
        // filter and rejects the rest, so ATMOST has no node predicate.
        std::vector<EventList> child_events;
        child_events.reserve(k);
        for (const auto& child : node.children) {
          CEDR_ASSIGN_OR_RETURN(EventList events, EvalPositiveChild(*child));
          child_events.push_back(std::move(events));
        }
        return denotation::AtMost(static_cast<size_t>(node.count),
                                  child_events, node.scope);
      }
      case LogicalKind::kUnless:
      case LogicalKind::kNot:
      case LogicalKind::kCancelWhen: {
        CEDR_ASSIGN_OR_RETURN(EventList positive,
                              EvalPositiveChild(*node.children[0]));
        EventList negated = EvalLeaf(node.negated_leaf_id);
        NegationPredicate neg = MakeNodeNegationPredicate(node);
        if (node.kind == LogicalKind::kUnless) {
          if (node.count > 0) {
            return denotation::UnlessPrime(positive, negated,
                                           static_cast<size_t>(node.count),
                                           node.scope, neg);
          }
          return denotation::Unless(positive, negated, node.scope, neg);
        }
        if (node.kind == LogicalKind::kNot) {
          return denotation::NotSequence(negated, positive, neg);
        }
        return denotation::CancelWhen(positive, negated, neg);
      }
      case LogicalKind::kLeaf:
        return Status::PlanError("cannot evaluate a bare leaf as a root");
    }
    return Status::PlanError("unknown logical node kind");
  }

  const BoundQuery& q_;
  const std::map<std::string, EventList>& inputs_;
};

}  // namespace

void FlattenInto(const Event* e, std::vector<const Event*>* out) {
  if (e == nullptr) return;
  if (e->cbt.empty()) {
    out->push_back(e);
    return;
  }
  for (const EventRef& c : e->cbt) FlattenInto(c.get(), out);
}

Result<EventList> DenoteQuery(const BoundQuery& query,
                              const std::map<std::string, EventList>& inputs) {
  Evaluator evaluator(query, inputs);
  return evaluator.Eval();
}

}  // namespace audit
}  // namespace cedr
