#include "lang/binder.h"

#include <gtest/gtest.h>

#include "denotation/ideal.h"
#include "denotation/patterns.h"
#include "engine/query.h"
#include "lang/parser.h"
#include "testing/helpers.h"
#include "workload/machines.h"

namespace cedr {
namespace {

Catalog TestCatalog() {
  Catalog catalog = workload::MachineCatalog();
  catalog["A"] = Schema::Make({{"id", ValueType::kInt64},
                               {"price", ValueType::kDouble}});
  catalog["B"] = Schema::Make({{"id", ValueType::kInt64},
                               {"qty", ValueType::kInt64}});
  catalog["C"] = Schema::Make({{"id", ValueType::kInt64}});
  return catalog;
}

Result<plan::BoundQuery> BindText(const std::string& text) {
  CEDR_ASSIGN_OR_RETURN(ast::Query query, ParseQuery(text));
  return Bind(query, TestCatalog());
}

TEST(BinderTest, Cidr07ExampleBinds) {
  auto bound = BindText(workload::Cidr07ExampleQuery()).ValueOrDie();
  ASSERT_EQ(bound.leaves.size(), 3u);
  EXPECT_EQ(bound.leaves[0].event_type, "INSTALL");
  EXPECT_EQ(bound.leaves[0].flat_index, 0);
  EXPECT_FALSE(bound.leaves[0].negated);
  EXPECT_EQ(bound.leaves[1].flat_index, 1);
  EXPECT_TRUE(bound.leaves[2].negated);           // RESTART
  EXPECT_GE(bound.leaves[2].flat_index, plan::kNegatedIndexBase);

  ASSERT_NE(bound.root, nullptr);
  EXPECT_EQ(bound.root->kind, plan::LogicalKind::kUnless);
  // {x.Machine_Id = y.Machine_Id} injected into the SEQUENCE;
  // {x.Machine_Id = z.Machine_Id} into the UNLESS negation.
  EXPECT_EQ(bound.root->children[0]->tuple_comparisons.size(), 1u);
  EXPECT_EQ(bound.root->negation_comparisons.size(), 1u);
  // Composite payload: INSTALL then SHUTDOWN fields.
  ASSERT_NE(bound.composite_schema, nullptr);
  EXPECT_EQ(bound.composite_schema->num_fields(), 4u);
  EXPECT_EQ(bound.composite_schema->field(0).name, "x_Machine_Id");
}

TEST(BinderTest, UnknownEventTypeFails) {
  auto r = BindText("EVENT Q WHEN SEQUENCE(NOPE, B, 10)");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kBindError);
}

TEST(BinderTest, UnknownAttributeFails) {
  auto r = BindText(
      "EVENT Q WHEN SEQUENCE(A AS a, B AS b, 10) WHERE {a.missing = b.id}");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("missing"), std::string::npos);
}

TEST(BinderTest, UnknownBindingFails) {
  auto r = BindText(
      "EVENT Q WHEN SEQUENCE(A AS a, B AS b, 10) WHERE {zz.id = a.id}");
  EXPECT_FALSE(r.ok());
}

TEST(BinderTest, DuplicateExplicitBindingFails) {
  auto r = BindText("EVENT Q WHEN SEQUENCE(A AS a, B AS a, 10)");
  EXPECT_FALSE(r.ok());
}

TEST(BinderTest, AmbiguousImplicitNameFails) {
  auto r = BindText("EVENT Q WHEN SEQUENCE(A, A, 10) WHERE {A.id = A.id}");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("ambiguous"), std::string::npos);
}

TEST(BinderTest, EventTypeUsableAsImplicitBinding) {
  auto bound =
      BindText("EVENT Q WHEN SEQUENCE(A, B, 10) WHERE {A.id = B.id}");
  EXPECT_TRUE(bound.ok()) << bound.status().ToString();
}

TEST(BinderTest, SingleLeafPredicatePushedToFilter) {
  auto bound = BindText(
                   "EVENT Q WHEN SEQUENCE(A AS a, B AS b, 10)\n"
                   "WHERE {a.price > 5.0}")
                   .ValueOrDie();
  EXPECT_EQ(bound.leaves[0].local_filter.size(), 1u);
  EXPECT_TRUE(bound.root->tuple_comparisons.empty());
}

TEST(BinderTest, LiteralOnLeftNormalized) {
  auto bound = BindText(
                   "EVENT Q WHEN SEQUENCE(A AS a, B AS b, 10)\n"
                   "WHERE {5.0 < a.price}")
                   .ValueOrDie();
  ASSERT_EQ(bound.leaves[0].local_filter.size(), 1u);
  EXPECT_EQ(bound.leaves[0].local_filter[0].op,
            AttributeComparison::Op::kGt);
}

TEST(BinderTest, CorrelationKeyExpandsPairwise) {
  auto bound = BindText(
                   "EVENT Q WHEN UNLESS(SEQUENCE(A AS a, B AS b, 10),\n"
                   "                    C AS c, 5)\n"
                   "WHERE CorrelationKey(id, EQUAL)")
                   .ValueOrDie();
  // a=b on the sequence, a=c on the negation.
  EXPECT_EQ(bound.root->children[0]->tuple_comparisons.size(), 1u);
  EXPECT_EQ(bound.root->negation_comparisons.size(), 1u);
}

TEST(BinderTest, AttributeEqualsAppliesToCarriers) {
  auto bound = BindText(
                   "EVENT Q WHEN SEQUENCE(A AS a, B AS b, 10)\n"
                   "WHERE [id EQUAL 7]")
                   .ValueOrDie();
  EXPECT_EQ(bound.leaves[0].local_filter.size(), 1u);
  EXPECT_EQ(bound.leaves[1].local_filter.size(), 1u);
}

TEST(BinderTest, OutputResolvesToCompositeIndices) {
  auto bound = BindText(
                   "EVENT Q WHEN SEQUENCE(A AS a, B AS b, 10)\n"
                   "OUTPUT b.qty AS quantity, a.id")
                   .ValueOrDie();
  ASSERT_EQ(bound.output.size(), 2u);
  // Composite payload: (a.id, a.price, b.id, b.qty).
  EXPECT_EQ(bound.output[0].field_index, 3);
  EXPECT_EQ(bound.output[0].name, "quantity");
  EXPECT_EQ(bound.output[1].field_index, 0);
  EXPECT_EQ(bound.output_schema->field(1).name, "a_id");
}

TEST(BinderTest, OutputOfNegatedContributorFails) {
  auto r = BindText(
      "EVENT Q WHEN UNLESS(SEQUENCE(A AS a, B AS b, 10), C AS c, 5)\n"
      "OUTPUT c.id");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("negated"), std::string::npos);
}

TEST(BinderTest, BareEventTypeQueryRejected) {
  auto r = BindText("EVENT Q WHEN A");
  EXPECT_FALSE(r.ok());
}

TEST(BinderTest, ComplexNegatedArmRejected) {
  auto r = BindText(
      "EVENT Q WHEN UNLESS(A AS a, SEQUENCE(B, C, 5), 10)");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("event type"), std::string::npos);
}

TEST(BinderTest, ConsistencyClauseApplied) {
  auto bound =
      BindText("EVENT Q WHEN ANY(A) CONSISTENCY MIDDLE").ValueOrDie();
  EXPECT_TRUE(bound.spec.IsMiddle());
  auto def = BindText("EVENT Q WHEN ANY(A)").ValueOrDie();
  EXPECT_TRUE(def.spec.IsStrong());  // default
}

TEST(BinderTest, SlicesCarriedThrough) {
  auto bound =
      BindText("EVENT Q WHEN ANY(A) @[1, 5) #[2, 9)").ValueOrDie();
  EXPECT_EQ(*bound.occurrence_slice, (Interval{1, 5}));
  EXPECT_EQ(*bound.valid_slice, (Interval{2, 9}));
}

TEST(BinderTest, NotBindsNegatedFirstChild) {
  auto bound = BindText(
                   "EVENT Q WHEN NOT(C AS c, SEQUENCE(A AS a, B AS b, 10))\n"
                   "WHERE {a.id = c.id}")
                   .ValueOrDie();
  EXPECT_EQ(bound.root->kind, plan::LogicalKind::kNot);
  EXPECT_GE(bound.root->negated_leaf_id, 0);
  EXPECT_TRUE(bound.leaves[bound.root->negated_leaf_id].negated);
  EXPECT_EQ(bound.root->negation_comparisons.size(), 1u);
  EXPECT_EQ(plan::Reach(*bound.root->children[0]), 10);
}

TEST(BinderTest, DuplicateComparisonsRemoved) {
  auto bound = BindText(
                   "EVENT Q WHEN SEQUENCE(A AS a, B AS b, 10)\n"
                   "WHERE {a.id = b.id} AND {a.id = b.id} AND "
                   "CorrelationKey(id, EQUAL)")
                   .ValueOrDie();
  // Three ways of writing the same test collapse to one.
  EXPECT_EQ(bound.root->tuple_comparisons.size(), 1u);
}

TEST(BinderTest, AtMostMultiLeafPredicateRejected) {
  auto r = BindText(
      "EVENT Q WHEN ATMOST(2, A AS a, B AS b, 10) WHERE {a.id = b.id}");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("ATMOST"), std::string::npos);
}

TEST(BinderTest, ReadWithoutAFixedPositionRejected) {
  // Each read goes through a node whose matches bind only some of its
  // inputs, so no output layout can hold the leaf at one position.
  const std::pair<const char*, const char*> cases[] = {
      {"ANY(A AS a, B AS b) OUTPUT a.id", "ANY: a match binds 1 of its 2 inputs"},
      {"SEQUENCE(ANY(A AS a, B AS b), C AS c, 100) WHERE {a.id = c.id}",
       "ANY: a match binds 1 of its 2 inputs"},
      {"ATLEAST(1, A AS a, B AS b, 10) OUTPUT b.qty", "ATLEAST: a match binds 1 of its 2 inputs"},
      {"UNLESS(ATLEAST(1, A AS a, B AS b, 10), C AS c, 5) "
       "WHERE {a.id = c.id}",
       "ATLEAST: a match binds 1 of its 2 inputs"},
      {"SEQUENCE(ATLEAST(2, A AS a, B AS b, INSTALL, 10), C AS c, 50) "
       "WHERE {a.id = c.id}",
       "ATLEAST: a match binds 2 of its 3 inputs"},
      {"ATMOST(1, A AS a, B AS b, 10) OUTPUT a.price", "ATMOST: a match binds 1 of its 2 inputs"},
  };
  for (const auto& [when, node] : cases) {
    auto r = BindText(std::string("EVENT Q WHEN ") + when);
    ASSERT_FALSE(r.ok()) << when;
    EXPECT_EQ(r.status().code(), StatusCode::kBindError);
    EXPECT_NE(r.status().message().find(node), std::string::npos)
        << r.status().ToString();
  }
}

TEST(BinderTest, ReadAtAFixedPositionBinds) {
  for (const char* when : {
           "ANY(A AS a) OUTPUT a.id",
           "ATLEAST(2, A AS a, B AS b, 10) OUTPUT a.id, b.qty",
           // Read at the ATLEAST itself, from each contributor's port.
           "ATLEAST(1, A AS a, B AS b, 10) WHERE {a.id = b.id}",
           "UNLESS(ALL(A AS a, B AS b, 10), C AS c, 5) WHERE {b.id = c.id} "
           "OUTPUT a.price",
       }) {
    auto r = BindText(std::string("EVENT Q WHEN ") + when);
    EXPECT_TRUE(r.ok()) << when << ": " << r.status().ToString();
  }
}

TEST(BinderTest, AtMostSingleLeafTwoAttributePredicateIsAFilter) {
  // {x.key = x.value} names one contributor twice: it filters A before
  // the pool is counted, as a single-attribute predicate would.
  SchemaPtr kv = testing::KeyValueSchema();
  const Catalog catalog = {{"A", kv}, {"B", kv}};
  const std::string text =
      "EVENT Q WHEN ATMOST(1, A AS x, B AS y, 10) WHERE {x.key = x.value}";
  ast::Query parsed = ParseQuery(text).ValueOrDie();
  Result<plan::BoundQuery> bound = Bind(parsed, catalog);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  EXPECT_EQ(bound.ValueOrDie().leaves[0].local_filter.size(), 1u);
  EXPECT_TRUE(bound.ValueOrDie().root->tuple_comparisons.empty());

  auto query = CompiledQuery::Compile(text, catalog, ConsistencySpec::Middle())
                   .ValueOrDie();
  const Event a1 = MakeEvent(1, 1, 2, testing::KV(3, 3));
  const Event a2 = MakeEvent(2, 5, 6, testing::KV(3, 4));  // filtered out
  const Event b3 = MakeEvent(3, 12, 13, testing::KV(0, 0));
  ASSERT_TRUE(query->Push("A", InsertOf(a1, 1)).ok());
  ASSERT_TRUE(query->Push("A", InsertOf(a2, 5)).ok());
  ASSERT_TRUE(query->Push("B", InsertOf(b3, 12)).ok());
  ASSERT_TRUE(query->Finish().ok());
  // Unfiltered, a2 would share b3's window and suppress it.
  EventList expected = denotation::AtMost(1, {{a1}, {b3}}, 10);
  ASSERT_EQ(expected.size(), 2u);
  EXPECT_TRUE(denotation::StarEqual(query->sink().Ideal(), expected));
}

}  // namespace
}  // namespace cedr
