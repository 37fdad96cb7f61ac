#include "plan/rules.h"

#include <algorithm>

#include "common/format.h"

namespace cedr {
namespace plan {

namespace {

/// Applies fn to every node (pre-order); returns true if any call did.
template <typename Fn>
bool ForEachNode(LogicalNode* node, Fn fn) {
  bool changed = fn(node);
  for (auto& child : node->children) {
    changed = ForEachNode(child.get(), fn) || changed;
  }
  return changed;
}

bool ComparisonEquals(const AttributeComparison& a,
                      const AttributeComparison& b) {
  return a.left_contributor == b.left_contributor &&
         a.left_attribute == b.left_attribute &&
         a.right_contributor == b.right_contributor &&
         a.right_attribute == b.right_attribute && a.op == b.op &&
         a.constant == b.constant;
}

bool Dedup(std::vector<AttributeComparison>* comparisons) {
  bool changed = false;
  for (size_t i = 0; i < comparisons->size(); ++i) {
    for (size_t j = i + 1; j < comparisons->size();) {
      if (ComparisonEquals((*comparisons)[i], (*comparisons)[j])) {
        comparisons->erase(comparisons->begin() + j);
        changed = true;
      } else {
        ++j;
      }
    }
  }
  return changed;
}

}  // namespace

bool RewriteAllToAtLeast(BoundQuery* query, std::vector<std::string>* trace) {
  if (query->root == nullptr) return false;
  return ForEachNode(query->root.get(), [&](LogicalNode* node) {
    if (node->kind != LogicalKind::kAll) return false;
    node->kind = LogicalKind::kAtLeast;
    node->count = static_cast<int64_t>(node->children.size());
    trace->push_back(
        StrCat("ALL -> ATLEAST(", node->count, ", ...) [paper sec 3.3.2]"));
    return true;
  });
}

bool RewriteAnyToAtLeast(BoundQuery* query, std::vector<std::string>* trace) {
  if (query->root == nullptr) return false;
  return ForEachNode(query->root.get(), [&](LogicalNode* node) {
    if (node->kind != LogicalKind::kAny) return false;
    node->kind = LogicalKind::kAtLeast;
    node->count = 1;
    node->scope = 1;
    trace->push_back("ANY -> ATLEAST(1, ..., 1) [paper sec 3.3.2]");
    return true;
  });
}

bool DeduplicateComparisons(BoundQuery* query,
                            std::vector<std::string>* trace) {
  bool changed = false;
  for (BoundLeaf& leaf : query->leaves) {
    changed = Dedup(&leaf.local_filter) || changed;
  }
  if (query->root != nullptr) {
    changed = ForEachNode(query->root.get(), [](LogicalNode* node) {
      bool c = Dedup(&node->tuple_comparisons);
      return Dedup(&node->negation_comparisons) || c;
    }) || changed;
  }
  if (changed) trace->push_back("deduplicated injected comparisons");
  return changed;
}

const std::vector<Rule>& DefaultRules() {
  static const std::vector<Rule> kRules = {
      &RewriteAllToAtLeast,
      &RewriteAnyToAtLeast,
      &DeduplicateComparisons,
  };
  return kRules;
}

}  // namespace plan
}  // namespace cedr
