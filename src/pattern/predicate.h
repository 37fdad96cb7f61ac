// Predicate types for pattern operators, shared by the denotational
// specification layer and the incremental runtime detectors.
//
// Predicate injection (Section 3.2): the binder splits WHERE-clause
// predicates by the contributors they reference and injects them into
// the pattern operator denotations - `TuplePredicate` over (prefixes of)
// the positive contributor tuple, `NegationPredicate` over the tuple
// plus a candidate negated event. This is what makes value correlation
// compose correctly with negation.
#ifndef CEDR_PATTERN_PREDICATE_H_
#define CEDR_PATTERN_PREDICATE_H_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "stream/event.h"

namespace cedr {

/// Over the positive contributors bound so far, in operator order. Must
/// be prefix-monotone: called with partial tuples during enumeration, it
/// may only reject when the bound prefix already violates a predicate.
/// Entries may be nullptr for "not bound", which must be treated as
/// satisfiable.
using TuplePredicate = std::function<bool(const std::vector<const Event*>&)>;

/// Whether a candidate negated event counts against the given tuple.
using NegationPredicate =
    std::function<bool(const std::vector<const Event*>&, const Event&)>;

/// Runtime pattern detectors evaluate predicates with the originating
/// input port of each tuple element, so compiled predicates can map
/// contributors to payload positions even when the tuple is a subset in
/// arrival order (ATLEAST).
using PatternTuplePredicate = std::function<bool(
    const std::vector<const Event*>&, const std::vector<int>& ports)>;

TuplePredicate TrueTuplePredicate();
NegationPredicate TrueNegationPredicate();
PatternTuplePredicate TruePatternPredicate();

/// A comparison between an attribute of one contributor and either an
/// attribute of another contributor or a constant - the WHERE-clause
/// primitive ("parameterized predicate" / simple predicate).
struct AttributeComparison {
  enum class Op { kEq, kNe, kLt, kLe, kGt, kGe };

  int left_contributor = 0;       // index into the tuple
  std::string left_attribute;
  int right_contributor = -1;     // -1: compare against `constant`
  std::string right_attribute;
  Value constant;
  Op op = Op::kEq;

  /// Evaluates against a tuple (prefix); returns true when any referenced
  /// contributor is not bound yet (prefix-monotonicity).
  bool Evaluate(const std::vector<const Event*>& tuple) const;
  /// Evaluates with `negated` standing in for contributor index
  /// `negated_index`.
  bool EvaluateWithNegated(const std::vector<const Event*>& tuple,
                           const Event& negated, int negated_index) const;

  bool operator==(const AttributeComparison&) const = default;
};

/// Applies `op` to two values as AttributeComparison does: nulls and
/// incompatible types fail. Does not allocate.
bool CompareValues(const Value& left, const Value& right,
                   AttributeComparison::Op op);

/// An attribute of a payload, resolved once to its field index in
/// `schema`. A payload under another schema object is looked up by name,
/// so rows built by hand behave as under Row::Get.
struct FieldSlot {
  FieldSlot() = default;
  FieldSlot(SchemaPtr schema, std::string attribute);

  /// The attribute's value in `payload`, or nullptr. On nullptr,
  /// `*no_field` says whether the payload's schema lacks the attribute
  /// (Row::Get's NotFound) rather than the payload having no schema or
  /// being shorter than it.
  const Value* Fetch(const Row& payload, bool* no_field = nullptr) const;

  SchemaPtr schema;
  std::string attribute;
  /// Index of `attribute` in `schema`; unset when the schema lacks it.
  std::optional<size_t> index;
};

/// Conjunction of comparisons as a TuplePredicate.
TuplePredicate MakeTuplePredicate(std::vector<AttributeComparison> comparisons);

/// Conjunction of comparisons involving the negated contributor at
/// `negated_index`; positive-only comparisons must not be included.
NegationPredicate MakeNegationPredicate(
    std::vector<AttributeComparison> comparisons, int negated_index);

}  // namespace cedr

#endif  // CEDR_PATTERN_PREDICATE_H_
