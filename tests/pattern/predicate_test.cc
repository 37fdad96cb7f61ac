// AttributeComparison evaluation: operator coverage, prefix-monotone
// behaviour, and negated-contributor resolution.
#include "pattern/predicate.h"

#include <gtest/gtest.h>

#include "testing/helpers.h"

namespace cedr {
namespace {

using testing::KV;
using Op = AttributeComparison::Op;

AttributeComparison Cmp(int left, Op op, int right) {
  AttributeComparison c;
  c.left_contributor = left;
  c.left_attribute = "value";
  c.op = op;
  c.right_contributor = right;
  c.right_attribute = "value";
  return c;
}

AttributeComparison CmpConst(int left, Op op, Value constant) {
  AttributeComparison c;
  c.left_contributor = left;
  c.left_attribute = "value";
  c.op = op;
  c.right_contributor = -1;
  c.constant = std::move(constant);
  return c;
}

TEST(AttributeComparisonTest, AllOperators) {
  Event a = MakeEvent(1, 1, 2, KV(0, 5));
  Event b = MakeEvent(2, 3, 4, KV(0, 9));
  std::vector<const Event*> tuple = {&a, &b};
  EXPECT_FALSE(Cmp(0, Op::kEq, 1).Evaluate(tuple));
  EXPECT_TRUE(Cmp(0, Op::kNe, 1).Evaluate(tuple));
  EXPECT_TRUE(Cmp(0, Op::kLt, 1).Evaluate(tuple));
  EXPECT_TRUE(Cmp(0, Op::kLe, 1).Evaluate(tuple));
  EXPECT_FALSE(Cmp(0, Op::kGt, 1).Evaluate(tuple));
  EXPECT_FALSE(Cmp(0, Op::kGe, 1).Evaluate(tuple));
  EXPECT_TRUE(Cmp(0, Op::kEq, 0).Evaluate(tuple));
}

TEST(AttributeComparisonTest, ConstantComparison) {
  Event a = MakeEvent(1, 1, 2, KV(0, 5));
  std::vector<const Event*> tuple = {&a};
  EXPECT_TRUE(CmpConst(0, Op::kEq, Value(5)).Evaluate(tuple));
  EXPECT_FALSE(CmpConst(0, Op::kEq, Value(6)).Evaluate(tuple));
  EXPECT_TRUE(CmpConst(0, Op::kLt, Value(5.5)).Evaluate(tuple));  // numeric
                                                                  // widening
}

TEST(AttributeComparisonTest, PrefixMonotone) {
  // References to unbound contributors must pass (they may bind later).
  Event a = MakeEvent(1, 1, 2, KV(0, 5));
  std::vector<const Event*> partial = {&a};
  EXPECT_TRUE(Cmp(0, Op::kEq, 1).Evaluate(partial));
  EXPECT_TRUE(Cmp(1, Op::kEq, 0).Evaluate(partial));
  std::vector<const Event*> with_hole = {&a, nullptr};
  EXPECT_TRUE(Cmp(0, Op::kEq, 1).Evaluate(with_hole));
}

TEST(AttributeComparisonTest, MissingAttributeFails) {
  Event a = MakeEvent(1, 1, 2, KV(0, 5));
  std::vector<const Event*> tuple = {&a};
  AttributeComparison c = CmpConst(0, Op::kEq, Value(5));
  c.left_attribute = "nope";
  EXPECT_FALSE(c.Evaluate(tuple));
}

TEST(AttributeComparisonTest, TypeMismatchFails) {
  Event a = MakeEvent(1, 1, 2, KV(0, 5));
  std::vector<const Event*> tuple = {&a};
  EXPECT_FALSE(CmpConst(0, Op::kEq, Value("five")).Evaluate(tuple));
}

TEST(AttributeComparisonTest, EvaluateWithNegated) {
  Event a = MakeEvent(1, 1, 2, KV(0, 5));
  Event z = MakeEvent(9, 8, 9, KV(0, 5));
  std::vector<const Event*> tuple = {&a};
  const int marker = 1 << 20;
  AttributeComparison c = Cmp(0, Op::kEq, marker);
  EXPECT_TRUE(c.EvaluateWithNegated(tuple, z, marker));
  Event z2 = MakeEvent(9, 8, 9, KV(0, 7));
  EXPECT_FALSE(c.EvaluateWithNegated(tuple, z2, marker));
  // Negated on the left works too.
  AttributeComparison flipped = Cmp(marker, Op::kEq, 0);
  EXPECT_TRUE(flipped.EvaluateWithNegated(tuple, z, marker));
}

TEST(MakePredicatesTest, ConjunctionSemantics) {
  Event a = MakeEvent(1, 1, 2, KV(3, 5));
  Event b = MakeEvent(2, 3, 4, KV(3, 9));
  std::vector<const Event*> tuple = {&a, &b};
  AttributeComparison key_eq = Cmp(0, Op::kEq, 1);
  key_eq.left_attribute = key_eq.right_attribute = "key";
  TuplePredicate both =
      MakeTuplePredicate({key_eq, Cmp(0, Op::kLt, 1)});
  EXPECT_TRUE(both(tuple));
  TuplePredicate contradictory =
      MakeTuplePredicate({key_eq, Cmp(0, Op::kGt, 1)});
  EXPECT_FALSE(contradictory(tuple));
  EXPECT_TRUE(MakeTuplePredicate({})(tuple));  // empty = true
}

TEST(MakePredicatesTest, NegationPredicateConjunction) {
  Event a = MakeEvent(1, 1, 2, KV(3, 5));
  Event z = MakeEvent(9, 8, 9, KV(3, 5));
  std::vector<const Event*> tuple = {&a};
  const int marker = 1 << 20;
  AttributeComparison key_eq = Cmp(0, Op::kEq, marker);
  key_eq.left_attribute = key_eq.right_attribute = "key";
  NegationPredicate pred = MakeNegationPredicate({key_eq}, marker);
  EXPECT_TRUE(pred(tuple, z));
  Event other = MakeEvent(9, 8, 9, KV(4, 5));
  EXPECT_FALSE(pred(tuple, other));
}

}  // namespace
}  // namespace cedr
