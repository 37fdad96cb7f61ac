#include "lang/binder.h"

#include <algorithm>
#include <cctype>
#include <set>

#include "common/format.h"

namespace cedr {

namespace {

using plan::BoundLeaf;
using plan::BoundQuery;
using plan::LogicalKind;
using plan::LogicalNode;

class Binder {
 public:
  Binder(const ast::Query& query, const Catalog& catalog)
      : query_(query), catalog_(catalog) {}

  Result<BoundQuery> Bind();

 private:
  Result<std::unique_ptr<LogicalNode>> BindPattern(const ast::Pattern& node,
                                                   bool negated_position);
  Result<int> BindLeaf(const ast::Pattern& node, bool negated);
  Status RegisterBinding(const std::string& name, int leaf_id, size_t offset,
                         bool is_explicit);

  /// Resolves binding.attribute to (leaf id, attribute); checks schema.
  Result<std::pair<int, std::string>> ResolveRef(const std::string& binding,
                                                 const std::string& attribute,
                                                 size_t offset);

  Status BindPredicates();
  Status RouteComparison(AttributeComparison comparison,
                         const std::vector<int>& leaf_ids, size_t offset);
  /// The nearest pattern node whose positive flat range covers all of
  /// `indices`.
  LogicalNode* FindLca(LogicalNode* node, int lo, int hi);
  LogicalNode* FindNegationOwner(LogicalNode* node, int leaf_id);

  Status BindOutput();
  Status BuildCompositeSchema();

  const ast::Query& query_;
  const Catalog& catalog_;
  BoundQuery out_;
  std::map<std::string, int> bindings_;   // name -> leaf id (-1: ambiguous)
  std::map<std::string, bool> explicit_;  // name -> was explicitly bound
  int next_flat_ = 0;
  int next_negated_ = plan::kNegatedIndexBase;
};

Result<BoundQuery> Binder::Bind() {
  if (query_.when == nullptr) {
    return Status::BindError("query has no WHEN clause");
  }
  out_.name = query_.name;
  CEDR_ASSIGN_OR_RETURN(out_.root, BindPattern(*query_.when,
                                               /*negated_position=*/false));
  if (out_.root->kind == LogicalKind::kLeaf) {
    return Status::BindError(
        "WHEN clause must contain a pattern operator, not a bare event type");
  }
  CEDR_RETURN_NOT_OK(BuildCompositeSchema());
  CEDR_RETURN_NOT_OK(BindPredicates());
  CEDR_RETURN_NOT_OK(BindOutput());
  if (query_.consistency.has_value()) out_.spec = *query_.consistency;
  out_.occurrence_slice = query_.occurrence_slice;
  out_.valid_slice = query_.valid_slice;
  return std::move(out_);
}

Status Binder::RegisterBinding(const std::string& name, int leaf_id,
                               size_t offset, bool is_explicit) {
  auto [it, inserted] = explicit_.emplace(name, is_explicit);
  if (inserted) {
    bindings_[name] = leaf_id;
    return Status::OK();
  }
  if (is_explicit && it->second) {
    return Status::BindError(
        StrCat("duplicate binding '", name, "' at offset ", offset));
  }
  if (is_explicit) {
    // Explicit binding shadows an implicit event-type name.
    it->second = true;
    bindings_[name] = leaf_id;
  } else if (!it->second) {
    bindings_[name] = -1;  // two implicit uses: ambiguous
  }
  return Status::OK();
}

Result<int> Binder::BindLeaf(const ast::Pattern& node, bool negated) {
  auto cat_it = catalog_.find(node.event_type);
  if (cat_it == catalog_.end()) {
    return Status::BindError(StrCat("unknown event type '", node.event_type,
                                    "' at offset ", node.offset));
  }
  BoundLeaf leaf;
  leaf.event_type = node.event_type;
  leaf.binding = node.binding.empty() ? node.event_type : node.binding;
  leaf.schema = cat_it->second;
  leaf.negated = negated;
  leaf.flat_index = negated ? next_negated_++ : next_flat_++;
  int leaf_id = static_cast<int>(out_.leaves.size());
  out_.leaves.push_back(std::move(leaf));
  if (!node.binding.empty()) {
    CEDR_RETURN_NOT_OK(RegisterBinding(node.binding, leaf_id, node.offset,
                                       /*is_explicit=*/true));
  }
  CEDR_RETURN_NOT_OK(RegisterBinding(node.event_type, leaf_id, node.offset,
                                     /*is_explicit=*/false));
  return leaf_id;
}

Result<std::unique_ptr<LogicalNode>> Binder::BindPattern(
    const ast::Pattern& node, bool negated_position) {
  auto bound = std::make_unique<LogicalNode>();
  bound->flat_lo = next_flat_;

  switch (node.kind) {
    case ast::PatternKind::kEventType: {
      bound->kind = LogicalKind::kLeaf;
      CEDR_ASSIGN_OR_RETURN(bound->leaf_id,
                            BindLeaf(node, negated_position));
      bound->flat_hi = next_flat_;
      return bound;
    }
    case ast::PatternKind::kSequence:
    case ast::PatternKind::kAll:
    case ast::PatternKind::kAny:
    case ast::PatternKind::kAtLeast:
    case ast::PatternKind::kAtMost: {
      switch (node.kind) {
        case ast::PatternKind::kSequence:
          bound->kind = LogicalKind::kSequence;
          break;
        case ast::PatternKind::kAll:
          bound->kind = LogicalKind::kAll;
          break;
        case ast::PatternKind::kAny:
          bound->kind = LogicalKind::kAny;
          break;
        case ast::PatternKind::kAtLeast:
          bound->kind = LogicalKind::kAtLeast;
          break;
        default:
          bound->kind = LogicalKind::kAtMost;
          break;
      }
      bound->count = node.count;
      bound->scope = node.has_scope ? node.scope : kInfinity;
      if (node.kind == ast::PatternKind::kAny) bound->scope = 1;
      if ((node.kind == ast::PatternKind::kAtLeast ||
           node.kind == ast::PatternKind::kAtMost) &&
          (node.count < 0 ||
           (node.kind == ast::PatternKind::kAtLeast &&
            node.count > static_cast<int64_t>(node.children.size())))) {
        return Status::BindError(
            StrCat("count ", node.count, " out of range at offset ",
                   node.offset));
      }
      for (const auto& child : node.children) {
        bound->child_modes.push_back(child->sc);
        CEDR_ASSIGN_OR_RETURN(std::unique_ptr<LogicalNode> bc,
                              BindPattern(*child, negated_position));
        if (node.kind == ast::PatternKind::kAtMost &&
            bc->kind != LogicalKind::kLeaf) {
          return Status::BindError(StrCat(
              "ATMOST contributors must be event types (offset ",
              child->offset, ")"));
        }
        bound->children.push_back(std::move(bc));
      }
      bound->flat_hi = next_flat_;
      return bound;
    }
    case ast::PatternKind::kUnless: {
      bound->kind = LogicalKind::kUnless;
      bound->scope = node.scope;
      bound->count = node.count;  // > 0: the UNLESS' anchored variant
      CEDR_ASSIGN_OR_RETURN(std::unique_ptr<LogicalNode> positive,
                            BindPattern(*node.children[0], negated_position));
      if (node.count > 0) {
        const size_t length = plan::LineageLength(*positive);
        if (static_cast<size_t>(node.count) > length) {
          return Status::BindError(StrCat(
              "UNLESS' anchor index ", node.count, " exceeds the ", length,
              " contributors of each positive arm output (offset ",
              node.offset, ")"));
        }
      }
      if (node.children[1]->kind != ast::PatternKind::kEventType) {
        return Status::BindError(
            StrCat("the negated arm of UNLESS must be an event type ",
                   "(offset ", node.children[1]->offset, ")"));
      }
      CEDR_ASSIGN_OR_RETURN(int negated_leaf,
                            BindLeaf(*node.children[1], /*negated=*/true));
      bound->negated_leaf_id = negated_leaf;
      bound->children.push_back(std::move(positive));
      bound->flat_hi = next_flat_;
      return bound;
    }
    case ast::PatternKind::kNot: {
      bound->kind = LogicalKind::kNot;
      if (node.children[0]->kind != ast::PatternKind::kEventType) {
        return Status::BindError(
            StrCat("the negated arm of NOT must be an event type (offset ",
                   node.children[0]->offset, ")"));
      }
      CEDR_ASSIGN_OR_RETURN(int negated_leaf,
                            BindLeaf(*node.children[0], /*negated=*/true));
      CEDR_ASSIGN_OR_RETURN(std::unique_ptr<LogicalNode> sequence,
                            BindPattern(*node.children[1], negated_position));
      bound->negated_leaf_id = negated_leaf;
      bound->children.push_back(std::move(sequence));
      bound->flat_hi = next_flat_;
      return bound;
    }
    case ast::PatternKind::kCancelWhen: {
      bound->kind = LogicalKind::kCancelWhen;
      CEDR_ASSIGN_OR_RETURN(std::unique_ptr<LogicalNode> positive,
                            BindPattern(*node.children[0], negated_position));
      if (node.children[1]->kind != ast::PatternKind::kEventType) {
        return Status::BindError(StrCat(
            "the canceling arm of CANCEL-WHEN must be an event type (offset ",
            node.children[1]->offset, ")"));
      }
      CEDR_ASSIGN_OR_RETURN(int negated_leaf,
                            BindLeaf(*node.children[1], /*negated=*/true));
      bound->negated_leaf_id = negated_leaf;
      bound->children.push_back(std::move(positive));
      bound->flat_hi = next_flat_;
      return bound;
    }
  }
  return Status::Internal("unhandled pattern kind");
}

Status Binder::BuildCompositeSchema() {
  // Positive leaves in flat order.
  std::vector<const BoundLeaf*> positives(next_flat_);
  for (const BoundLeaf& leaf : out_.leaves) {
    if (!leaf.negated) positives[leaf.flat_index] = &leaf;
  }
  std::vector<Field> fields;
  for (const BoundLeaf* leaf : positives) {
    for (const Field& f : leaf->schema->fields()) {
      fields.push_back(Field{leaf->binding + "_" + f.name, f.type});
    }
  }
  out_.composite_schema = Schema::Make(std::move(fields));
  return Status::OK();
}

Result<std::pair<int, std::string>> Binder::ResolveRef(
    const std::string& binding, const std::string& attribute, size_t offset) {
  auto it = bindings_.find(binding);
  if (it == bindings_.end()) {
    return Status::BindError(
        StrCat("unknown binding '", binding, "' at offset ", offset));
  }
  if (it->second < 0) {
    return Status::BindError(
        StrCat("ambiguous binding '", binding, "' at offset ", offset,
               "; disambiguate with AS"));
  }
  const BoundLeaf& leaf = out_.leaves[it->second];
  if (!leaf.schema->HasField(attribute)) {
    return Status::BindError(StrCat("event type '", leaf.event_type,
                                    "' has no attribute '", attribute,
                                    "' (offset ", offset, ")"));
  }
  return std::make_pair(it->second, attribute);
}

/// Appends `comparison` unless an equal one was routed there already:
/// CorrelationKey expansion can repeat a user predicate.
void AddUnique(std::vector<AttributeComparison>* comparisons,
               AttributeComparison comparison) {
  if (std::find(comparisons->begin(), comparisons->end(), comparison) ==
      comparisons->end()) {
    comparisons->push_back(std::move(comparison));
  }
}

/// The bind error for `what` reading a leaf through the non-positional
/// `node`, naming the node below where positions are first lost.
Status NoFixedPosition(const std::string& what, const LogicalNode& node) {
  for (const auto& child : node.children) {
    if (!plan::Positional(*child)) return NoFixedPosition(what, *child);
  }
  std::string name = plan::LogicalKindToString(node.kind);
  for (char& ch : name) ch = static_cast<char>(std::toupper(ch));
  return Status::BindError(
      StrCat(what, " reads a contributor with no fixed position in the ",
             "output of ", name, ": a match binds ", plan::LineageLength(node),
             " of its ", node.children.size(), " inputs"));
}

LogicalNode* Binder::FindLca(LogicalNode* node, int lo, int hi) {
  if (node->kind == LogicalKind::kLeaf) return nullptr;
  for (auto& child : node->children) {
    if (child->flat_lo <= lo && hi <= child->flat_hi) {
      LogicalNode* deeper = FindLca(child.get(), lo, hi);
      if (deeper != nullptr) return deeper;
      if (child->kind != LogicalKind::kLeaf) return child.get();
      return node;  // range is inside a leaf child: this node evaluates it
    }
  }
  return node;
}

LogicalNode* Binder::FindNegationOwner(LogicalNode* node, int leaf_id) {
  if (node->negated_leaf_id == leaf_id) return node;
  for (auto& child : node->children) {
    LogicalNode* found = FindNegationOwner(child.get(), leaf_id);
    if (found != nullptr) return found;
  }
  return nullptr;
}

Status Binder::RouteComparison(AttributeComparison comparison,
                               const std::vector<int>& leaf_ids,
                               size_t offset) {
  std::vector<int> negated;
  std::vector<int> positive;
  for (int id : leaf_ids) {
    (out_.leaves[id].negated ? negated : positive).push_back(id);
  }
  // A predicate over two attributes of one contributor is a single-leaf
  // predicate.
  std::sort(positive.begin(), positive.end());
  positive.erase(std::unique(positive.begin(), positive.end()),
                 positive.end());
  if (negated.size() > 1) {
    return Status::BindError(StrCat(
        "a predicate may reference at most one negated contributor ",
        "(offset ", offset, ")"));
  }
  if (negated.size() == 1) {
    LogicalNode* owner = FindNegationOwner(out_.root.get(), negated[0]);
    if (owner == nullptr) {
      return Status::Internal("negated leaf has no owning operator");
    }
    if (!positive.empty() && !plan::Positional(*owner->children[0])) {
      return NoFixedPosition(StrCat("the predicate at offset ", offset),
                             *owner->children[0]);
    }
    AddUnique(&owner->negation_comparisons, std::move(comparison));
    return Status::OK();
  }
  if (positive.size() == 1) {
    // Single-leaf predicate: push down to the input filter (indices
    // rebased so the leaf is contributor 0).
    BoundLeaf& leaf = out_.leaves[positive[0]];
    AttributeComparison local = comparison;
    local.left_contributor = 0;
    if (local.right_contributor >= 0) local.right_contributor = 0;
    AddUnique(&leaf.local_filter, std::move(local));
    return Status::OK();
  }
  int lo = plan::kNegatedIndexBase, hi = -1;
  for (int id : positive) {
    lo = std::min(lo, out_.leaves[id].flat_index);
    hi = std::max(hi, out_.leaves[id].flat_index);
  }
  LogicalNode* lca = FindLca(out_.root.get(), lo, hi + 1);
  if (lca == nullptr || lca->kind == LogicalKind::kLeaf) {
    return Status::Internal("no pattern operator covers predicate");
  }
  if (lca->kind == LogicalKind::kAtMost) {
    return Status::BindError(StrCat(
        "ATMOST does not support multi-contributor predicates (offset ",
        offset, ")"));
  }
  // Each side is read from the port of the child holding its leaf.
  for (const auto& child : lca->children) {
    for (int id : positive) {
      const int flat = out_.leaves[id].flat_index;
      if (child->flat_lo <= flat && flat < child->flat_hi &&
          !plan::Positional(*child)) {
        return NoFixedPosition(StrCat("the predicate at offset ", offset),
                               *child);
      }
    }
  }
  AddUnique(&lca->tuple_comparisons, std::move(comparison));
  return Status::OK();
}

Status Binder::BindPredicates() {
  for (const ast::Predicate& pred : query_.where) {
    switch (pred.kind) {
      case ast::PredicateKind::kComparison: {
        AttributeComparison comparison;
        comparison.op = pred.op;
        std::vector<int> leaf_ids;
        if (pred.lhs.is_literal && pred.rhs.is_literal) {
          return Status::BindError(StrCat(
              "predicate compares two literals (offset ", pred.offset, ")"));
        }
        // Normalize: attribute reference on the left.
        ast::Operand lhs = pred.lhs;
        ast::Operand rhs = pred.rhs;
        if (lhs.is_literal) {
          std::swap(lhs, rhs);
          switch (comparison.op) {
            case AttributeComparison::Op::kLt:
              comparison.op = AttributeComparison::Op::kGt;
              break;
            case AttributeComparison::Op::kLe:
              comparison.op = AttributeComparison::Op::kGe;
              break;
            case AttributeComparison::Op::kGt:
              comparison.op = AttributeComparison::Op::kLt;
              break;
            case AttributeComparison::Op::kGe:
              comparison.op = AttributeComparison::Op::kLe;
              break;
            default:
              break;
          }
        }
        CEDR_ASSIGN_OR_RETURN(auto left_ref, ResolveRef(lhs.binding,
                                                        lhs.attribute,
                                                        pred.offset));
        comparison.left_contributor =
            out_.leaves[left_ref.first].flat_index;
        comparison.left_attribute = left_ref.second;
        leaf_ids.push_back(left_ref.first);
        if (rhs.is_literal) {
          comparison.right_contributor = -1;
          comparison.constant = rhs.literal;
        } else {
          CEDR_ASSIGN_OR_RETURN(auto right_ref, ResolveRef(rhs.binding,
                                                           rhs.attribute,
                                                           pred.offset));
          comparison.right_contributor =
              out_.leaves[right_ref.first].flat_index;
          comparison.right_attribute = right_ref.second;
          leaf_ids.push_back(right_ref.first);
        }
        CEDR_RETURN_NOT_OK(
            RouteComparison(std::move(comparison), leaf_ids, pred.offset));
        break;
      }
      case ast::PredicateKind::kCorrelationKey: {
        // Pairwise equality across every contributor carrying the
        // attribute (positive and negated).
        std::vector<int> carriers;
        for (size_t i = 0; i < out_.leaves.size(); ++i) {
          if (out_.leaves[i].schema->HasField(pred.attribute)) {
            carriers.push_back(static_cast<int>(i));
          }
        }
        if (carriers.size() < 2) {
          return Status::BindError(
              StrCat("CorrelationKey(", pred.attribute,
                     ") must apply to at least two contributors (offset ",
                     pred.offset, ")"));
        }
        // Anchor on the first positive carrier.
        int anchor = -1;
        for (int id : carriers) {
          if (!out_.leaves[id].negated) {
            anchor = id;
            break;
          }
        }
        if (anchor < 0) anchor = carriers[0];
        for (int id : carriers) {
          if (id == anchor) continue;
          AttributeComparison comparison;
          comparison.op = AttributeComparison::Op::kEq;
          comparison.left_contributor = out_.leaves[anchor].flat_index;
          comparison.left_attribute = pred.attribute;
          comparison.right_contributor = out_.leaves[id].flat_index;
          comparison.right_attribute = pred.attribute;
          CEDR_RETURN_NOT_OK(RouteComparison(std::move(comparison),
                                             {anchor, id}, pred.offset));
        }
        break;
      }
      case ast::PredicateKind::kAttributeEquals: {
        bool any = false;
        for (size_t i = 0; i < out_.leaves.size(); ++i) {
          if (!out_.leaves[i].schema->HasField(pred.attribute)) continue;
          any = true;
          AttributeComparison comparison;
          comparison.op = AttributeComparison::Op::kEq;
          comparison.left_contributor = out_.leaves[i].flat_index;
          comparison.left_attribute = pred.attribute;
          comparison.right_contributor = -1;
          comparison.constant = pred.literal;
          CEDR_RETURN_NOT_OK(RouteComparison(std::move(comparison),
                                             {static_cast<int>(i)},
                                             pred.offset));
        }
        if (!any) {
          return Status::BindError(
              StrCat("no contributor has attribute '", pred.attribute,
                     "' (offset ", pred.offset, ")"));
        }
        break;
      }
    }
  }
  return Status::OK();
}

Status Binder::BindOutput() {
  if (query_.output.empty()) return Status::OK();
  std::vector<Field> fields;
  for (const ast::OutputItem& item : query_.output) {
    CEDR_ASSIGN_OR_RETURN(auto ref,
                          ResolveRef(item.binding, item.attribute, 0));
    const BoundLeaf& leaf = out_.leaves[ref.first];
    if (leaf.negated) {
      return Status::BindError(StrCat(
          "OUTPUT cannot reference negated contributor '", item.binding,
          "' - it does not occur in the output event"));
    }
    if (!plan::Positional(*out_.root)) {
      return NoFixedPosition(
          StrCat("OUTPUT ", item.binding, ".", item.attribute), *out_.root);
    }
    CEDR_ASSIGN_OR_RETURN(size_t field_idx,
                          leaf.schema->FieldIndex(item.attribute));
    plan::OutputColumn col;
    col.field_index =
        plan::FieldOffset(out_, leaf.flat_index) + static_cast<int>(field_idx);
    col.name = item.alias.empty() ? item.binding + "_" + item.attribute
                                  : item.alias;
    fields.push_back(
        Field{col.name, leaf.schema->field(field_idx).type});
    out_.output.push_back(col);
  }
  out_.output_schema = Schema::Make(std::move(fields));
  return Status::OK();
}

}  // namespace

Result<plan::BoundQuery> Bind(const ast::Query& query,
                              const Catalog& catalog) {
  Binder binder(query, catalog);
  return binder.Bind();
}

}  // namespace cedr
