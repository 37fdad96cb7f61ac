#include "plan/physical.h"

#include <algorithm>

#include "common/format.h"
#include "ops/alter_lifetime.h"
#include "ops/project.h"
#include "ops/select.h"
#include "pattern/negation.h"
#include "pattern/sequence.h"

namespace cedr {
namespace plan {

namespace {

/// The n-th leaf, in depth-first order, of `e`'s contributor tree, or
/// nullptr when it has fewer; counts *n down past the leaves it walks.
const Event* NthLeaf(const Event* e, int* n) {
  if (e == nullptr) return nullptr;
  if (e->cbt.empty()) return (*n)-- == 0 ? e : nullptr;
  for (const EventRef& c : e->cbt) {
    if (const Event* leaf = NthLeaf(c.get(), n)) return leaf;
  }
  return nullptr;
}

/// How many negations, ATMOST included, lie in `node`'s subtree.
int Negations(const LogicalNode& node) {
  int n = node.negated_leaf_id >= 0 || node.kind == LogicalKind::kAtMost;
  for (const auto& child : node.children) n += Negations(*child);
  return n;
}

/// An AttributeComparison resolved at plan time: each side is a flat slot
/// relative to the node (a negated leaf keeps its marker) and a field of
/// that slot's leaf schema.
struct SlotComparison {
  int left_slot = 0;
  FieldSlot left;
  bool right_constant = true;
  int right_slot = 0;
  FieldSlot right;
  Value constant;
  AttributeComparison::Op op = AttributeComparison::Op::kEq;
};

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

  /// Schema of the leaf at a positive flat index or a negated marker.
  SchemaPtr LeafSchema(int index) const;
  std::vector<SlotComparison> Compile(
      const std::vector<AttributeComparison>& comparisons, int flat_lo) const;
  PatternTuplePredicate MakeNodePredicate(const LogicalNode& node) const;
  NegationPredicate MakeNodeNegationPredicate(const LogicalNode& node) const;
  /// One key field per port when every match of `node` (n contributors
  /// each) binds equal key values; empty otherwise.
  std::vector<FieldSlot> PartitionKey(const LogicalNode& node,
                                      size_t n) const;

  Result<Operator*> BuildNode(const LogicalNode& node);
  Status WirePositiveChild(const LogicalNode& child, Operator* parent,
                           int port);
  Status WireLeafInput(int leaf_id, Operator* parent, int port);

  const BoundQuery& q_;
  std::unique_ptr<PhysicalPlan> plan_;
};

SchemaPtr Builder::LeafSchema(int index) const {
  const bool negated = index >= kNegatedIndexBase;
  for (const BoundLeaf& leaf : q_.leaves) {
    if (leaf.negated == negated && leaf.flat_index == index) return leaf.schema;
  }
  return nullptr;
}

std::vector<SlotComparison> Builder::Compile(
    const std::vector<AttributeComparison>& comparisons, int flat_lo) const {
  // Positive indices are rebased by -flat_lo; negated markers are kept.
  auto slot = [flat_lo](int index) {
    return index < kNegatedIndexBase ? index - flat_lo : index;
  };
  std::vector<SlotComparison> out;
  for (const AttributeComparison& c : comparisons) {
    SlotComparison sc;
    sc.left_slot = slot(c.left_contributor);
    sc.left = FieldSlot(LeafSchema(c.left_contributor), c.left_attribute);
    sc.right_constant = c.right_contributor < 0;
    if (!sc.right_constant) {
      sc.right_slot = slot(c.right_contributor);
      sc.right = FieldSlot(LeafSchema(c.right_contributor), c.right_attribute);
    }
    sc.constant = c.constant;
    sc.op = c.op;
    out.push_back(std::move(sc));
  }
  return out;
}

PatternTuplePredicate Builder::MakeNodePredicate(
    const LogicalNode& node) const {
  if (node.tuple_comparisons.empty()) return nullptr;
  const int width = node.flat_hi - node.flat_lo;
  // Each flat slot's port, and its leaf's position under that child.
  std::vector<std::pair<int, int>> slots(static_cast<size_t>(width), {-1, 0});
  for (size_t port = 0; port < node.children.size(); ++port) {
    const LogicalNode& child = *node.children[port];
    for (int f = child.flat_lo; f < child.flat_hi; ++f) {
      slots[f - node.flat_lo] = {static_cast<int>(port), f - child.flat_lo};
    }
  }
  return [comparisons = Compile(node.tuple_comparisons, node.flat_lo),
          slots = std::move(slots)](const std::vector<const Event*>& tuple,
                                    const std::vector<int>& ports) {
    // The leaf bound at a slot, or nullptr while its port is unbound.
    auto bound = [&](int slot) -> const Event* {
      if (slot < 0 || slot >= static_cast<int>(slots.size())) return nullptr;
      auto [port, leaf] = slots[slot];
      for (size_t i = 0; i < tuple.size() && i < ports.size(); ++i) {
        if (ports[i] == port) return NthLeaf(tuple[i], &leaf);
      }
      return nullptr;
    };
    for (const SlotComparison& c : comparisons) {
      // A comparison with an unbound side cannot fail yet.
      const Event* left = bound(c.left_slot);
      if (left == nullptr) continue;
      const Event* right = c.right_constant ? nullptr : bound(c.right_slot);
      if (!c.right_constant && right == nullptr) continue;
      const Value* lv = c.left.Fetch(left->payload);
      const Value* rv =
          c.right_constant ? &c.constant : c.right.Fetch(right->payload);
      if (lv == nullptr || rv == nullptr) return false;
      if (!CompareValues(*lv, *rv, c.op)) return false;
    }
    return true;
  };
}

NegationPredicate Builder::MakeNodeNegationPredicate(
    const LogicalNode& node) const {
  if (node.negation_comparisons.empty()) return nullptr;
  const int marker = q_.leaves[node.negated_leaf_id].flat_index;
  return [comparisons = Compile(node.negation_comparisons, node.flat_lo),
          marker](const std::vector<const Event*>& tuple,
                  const Event& negated) {
    // One side's value, or nullptr when that side decides the comparison:
    // *pass says how. The negated event must have the field; an unbound
    // positive contributor, or one whose schema lacks the field, cannot
    // veto.
    auto fetch = [&](int slot, const FieldSlot& field,
                     bool* pass) -> const Value* {
      *pass = false;
      if (slot == marker) return field.Fetch(negated.payload);
      const Event* leaf = nullptr;
      for (size_t i = 0; i < tuple.size() && leaf == nullptr && slot >= 0;
           ++i) {
        leaf = NthLeaf(tuple[i], &slot);
      }
      if (leaf == nullptr) {
        *pass = true;
        return nullptr;
      }
      return field.Fetch(leaf->payload, pass);
    };
    for (const SlotComparison& c : comparisons) {
      bool pass = false;
      const Value* lv = fetch(c.left_slot, c.left, &pass);
      if (lv == nullptr) {
        if (pass) continue;
        return false;
      }
      const Value* rv = &c.constant;
      if (!c.right_constant) {
        rv = fetch(c.right_slot, c.right, &pass);
        if (rv == nullptr) {
          if (pass) continue;
          return false;
        }
      }
      if (!CompareValues(*lv, *rv, c.op)) return false;
    }
    return true;
  };
}

std::vector<FieldSlot> Builder::PartitionKey(const LogicalNode& node,
                                             size_t n) const {
  // Partitioning only prunes candidates that fail the predicate, and
  // only under EACH selection: FIRST and LAST choose a candidate on its
  // time bounds before the predicate runs.
  const size_t k = node.children.size();
  std::vector<int> flats;
  for (size_t p = 0; p < k; ++p) {
    const LogicalNode& child = *node.children[p];
    if (child.kind != LogicalKind::kLeaf) return {};
    if (p < node.child_modes.size() &&
        node.child_modes[p].selection != SelectionMode::kEach) {
      return {};
    }
    flats.push_back(q_.leaves[child.leaf_id].flat_index);
  }
  // Equality classes of (flat index, attribute), in order of appearance.
  std::vector<std::pair<int, std::string>> items;
  std::vector<size_t> parent;
  auto find = [&](size_t i) {
    while (parent[i] != i) i = parent[i] = parent[parent[i]];
    return i;
  };
  auto item = [&](int flat, const std::string& attribute) {
    for (size_t i = 0; i < items.size(); ++i) {
      if (items[i].first == flat && items[i].second == attribute) return i;
    }
    items.emplace_back(flat, attribute);
    parent.push_back(items.size() - 1);
    return items.size() - 1;
  };
  std::vector<std::pair<size_t, size_t>> links;
  for (const AttributeComparison& c : node.tuple_comparisons) {
    if (c.op != AttributeComparison::Op::kEq || c.right_contributor < 0) {
      continue;
    }
    size_t a = item(c.left_contributor, c.left_attribute);
    size_t b = item(c.right_contributor, c.right_attribute);
    parent[find(a)] = find(b);
    links.emplace_back(a, b);
  }
  auto linked = [&](size_t a, size_t b) {
    for (auto [x, y] : links) {
      if ((x == a && y == b) || (x == b && y == a)) return true;
    }
    return false;
  };
  for (size_t root = 0; root < items.size(); ++root) {
    if (find(root) != root) continue;
    // Each port's first attribute in this class.
    std::vector<size_t> chosen;
    for (int flat : flats) {
      for (size_t i = 0; i < items.size(); ++i) {
        if (items[i].first == flat && find(i) == root) {
          chosen.push_back(i);
          break;
        }
      }
    }
    if (chosen.size() != k) continue;
    // A match of fewer than k contributors checks only the comparisons
    // it binds, so every pair of ports must be compared directly.
    bool covered = true;
    for (size_t p = 0; p < k && covered && n < k; ++p) {
      for (size_t q = p + 1; q < k && covered; ++q) {
        covered = linked(chosen[p], chosen[q]);
      }
    }
    if (!covered) continue;
    std::vector<FieldSlot> key;
    for (size_t i : chosen) {
      key.emplace_back(LeafSchema(items[i].first), items[i].second);
    }
    return key;
  }
  return {};
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
  PatternTuplePredicate tuple_pred = MakeNodePredicate(node);
  NegationPredicate neg_pred;
  if (node.negated_leaf_id >= 0) neg_pred = MakeNodeNegationPredicate(node);

  const int k = static_cast<int>(node.children.size());
  Operator* op = nullptr;
  switch (node.kind) {
    case LogicalKind::kSequence:
    case LogicalKind::kAll:
    case LogicalKind::kAtLeast:
    case LogicalKind::kAny: {
      // ALL is ATLEAST(k), ANY is ATLEAST(1) with scope 1, and SEQUENCE
      // is ALL with contributors bound in port order.
      // Only a fixed layout has a schema to describe it.
      SchemaPtr schema = Positional(node)
                             ? SchemaSlice(q_, node.flat_lo, node.flat_hi)
                             : nullptr;
      const size_t n = LineageLength(node);
      op = Own(std::make_unique<PatternOp>(
          n, node.kind == LogicalKind::kSequence, k, node.scope, tuple_pred,
          node.child_modes, std::move(schema), q_.spec,
          PartitionKey(node, n)));
      break;
    }
    case LogicalKind::kAtMost: {
      op = Own(std::make_unique<NegationOp>(
          NegationWindow::AtMost(static_cast<size_t>(node.count), node.scope),
          /*predicate=*/nullptr, q_.spec, k));
      break;
    }
    case LogicalKind::kUnless:
    case LogicalKind::kNot:
    case LogicalKind::kCancelWhen: {
      // A positive arrival's window, or its UNLESS' anchor, lies at
      // most the positive arm's reach behind its Vs.
      const Duration lookback = Reach(*node.children[0]);
      NegationWindow window = NegationWindow::CancelWhen(lookback);
      if (node.kind == LogicalKind::kNot) {
        window = NegationWindow::Not(lookback);
      } else if (node.kind == LogicalKind::kUnless) {
        window = node.count > 0
                     ? NegationWindow::UnlessPrime(
                           static_cast<size_t>(node.count), node.scope,
                           lookback)
                     : NegationWindow::Unless(node.scope);
      }
      op = Own(std::make_unique<NegationOp>(window, neg_pred, q_.spec, 2,
                                            Negations(*node.children[0])));
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
