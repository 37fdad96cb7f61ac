#include "pattern/predicate.h"

namespace cedr {

TuplePredicate TrueTuplePredicate() {
  return [](const std::vector<const Event*>&) { return true; };
}

NegationPredicate TrueNegationPredicate() {
  return [](const std::vector<const Event*>&, const Event&) { return true; };
}

PatternTuplePredicate TruePatternPredicate() {
  return [](const std::vector<const Event*>&, const std::vector<int>&) {
    return true;
  };
}

namespace {

bool ApplyOp(AttributeComparison::Op op, int cmp) {
  switch (op) {
    case AttributeComparison::Op::kEq:
      return cmp == 0;
    case AttributeComparison::Op::kNe:
      return cmp != 0;
    case AttributeComparison::Op::kLt:
      return cmp < 0;
    case AttributeComparison::Op::kLe:
      return cmp <= 0;
    case AttributeComparison::Op::kGt:
      return cmp > 0;
    case AttributeComparison::Op::kGe:
      return cmp >= 0;
  }
  return false;
}

}  // namespace

bool CompareValues(const Value& left, const Value& right,
                   AttributeComparison::Op op) {
  // Type errors and nulls make the predicate fail (SQL-ish), except for
  // equality tests where null == null could be debated; we fail those too.
  std::optional<int> cmp = left.TryCompare(right);
  return cmp.has_value() && ApplyOp(op, *cmp);
}

FieldSlot::FieldSlot(SchemaPtr schema_in, std::string attribute_in)
    : schema(std::move(schema_in)), attribute(std::move(attribute_in)) {
  if (schema == nullptr) return;
  auto idx = schema->FieldIndex(attribute);
  if (idx.ok()) index = idx.ValueOrDie();
}

const Value* FieldSlot::Fetch(const Row& payload, bool* no_field) const {
  if (no_field != nullptr) *no_field = false;
  size_t i = 0;
  if (index.has_value() && payload.schema().get() == schema.get()) {
    i = *index;
  } else {
    if (payload.schema() == nullptr) return nullptr;
    if (!payload.schema()->HasField(attribute)) {
      if (no_field != nullptr) *no_field = true;
      return nullptr;
    }
    i = payload.schema()->FieldIndex(attribute).ValueOrDie();
  }
  return i < payload.size() ? &payload.at(i) : nullptr;
}

bool AttributeComparison::Evaluate(
    const std::vector<const Event*>& tuple) const {
  if (left_contributor >= static_cast<int>(tuple.size()) ||
      tuple[left_contributor] == nullptr) {
    return true;
  }
  if (right_contributor >= 0 &&
      (right_contributor >= static_cast<int>(tuple.size()) ||
       tuple[right_contributor] == nullptr)) {
    return true;
  }
  auto left = tuple[left_contributor]->payload.Get(left_attribute);
  if (!left.ok()) return false;
  Value right = constant;
  if (right_contributor >= 0) {
    auto r = tuple[right_contributor]->payload.Get(right_attribute);
    if (!r.ok()) return false;
    right = std::move(r).ValueOrDie();
  }
  return CompareValues(left.ValueOrDie(), right, op);
}

bool AttributeComparison::EvaluateWithNegated(
    const std::vector<const Event*>& tuple, const Event& negated,
    int negated_index) const {
  auto fetch = [&](int contributor,
                   const std::string& attribute) -> Result<Value> {
    if (contributor == negated_index) return negated.payload.Get(attribute);
    if (contributor >= static_cast<int>(tuple.size()) ||
        tuple[contributor] == nullptr) {
      return Status::NotFound("contributor not bound");
    }
    return tuple[contributor]->payload.Get(attribute);
  };
  auto left = fetch(left_contributor, left_attribute);
  // An unbound positive contributor cannot veto (prefix-monotone).
  if (!left.ok()) return left.status().code() == StatusCode::kNotFound &&
                         left_contributor != negated_index;
  Value right = constant;
  if (right_contributor >= 0) {
    auto r = fetch(right_contributor, right_attribute);
    if (!r.ok()) return r.status().code() == StatusCode::kNotFound &&
                        right_contributor != negated_index;
    right = std::move(r).ValueOrDie();
  }
  return CompareValues(left.ValueOrDie(), right, op);
}

TuplePredicate MakeTuplePredicate(
    std::vector<AttributeComparison> comparisons) {
  if (comparisons.empty()) return TrueTuplePredicate();
  return [comparisons = std::move(comparisons)](
             const std::vector<const Event*>& tuple) {
    for (const AttributeComparison& c : comparisons) {
      if (!c.Evaluate(tuple)) return false;
    }
    return true;
  };
}

NegationPredicate MakeNegationPredicate(
    std::vector<AttributeComparison> comparisons, int negated_index) {
  if (comparisons.empty()) return TrueNegationPredicate();
  return [comparisons = std::move(comparisons), negated_index](
             const std::vector<const Event*>& tuple, const Event& negated) {
    for (const AttributeComparison& c : comparisons) {
      if (!c.EvaluateWithNegated(tuple, negated, negated_index)) return false;
    }
    return true;
  };
}

}  // namespace cedr
