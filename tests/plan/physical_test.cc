#include "plan/physical.h"

#include <gtest/gtest.h>

#include "lang/binder.h"
#include "lang/parser.h"
#include "workload/machines.h"

namespace cedr {
namespace {

Catalog TestCatalog() {
  Catalog catalog = workload::MachineCatalog();
  SchemaPtr s = Schema::Make({{"id", ValueType::kInt64}});
  catalog["A"] = s;
  catalog["B"] = s;
  catalog["C"] = s;
  return catalog;
}

Result<std::unique_ptr<plan::PhysicalPlan>> BuildText(
    const std::string& text) {
  CEDR_ASSIGN_OR_RETURN(ast::Query query, ParseQuery(text));
  CEDR_ASSIGN_OR_RETURN(plan::BoundQuery bound, Bind(query, TestCatalog()));
  return plan::BuildPhysicalPlan(bound);
}

TEST(PhysicalTest, Cidr07ExamplePlan) {
  auto plan = BuildText(workload::Cidr07ExampleQuery()).ValueOrDie();
  // Expect a sequence feeding an unless.
  ASSERT_NE(plan->output, nullptr);
  EXPECT_EQ(plan->output->name(), "unless");
  ASSERT_EQ(plan->inputs.count("INSTALL"), 1u);
  ASSERT_EQ(plan->inputs.count("SHUTDOWN"), 1u);
  ASSERT_EQ(plan->inputs.count("RESTART"), 1u);
  // RESTART feeds the unless's port 1.
  auto restart = plan->inputs.at("RESTART");
  ASSERT_EQ(restart.size(), 1u);
  EXPECT_EQ(restart[0].first->name(), "unless");
  EXPECT_EQ(restart[0].second, 1);
}

TEST(PhysicalTest, LeafFilterInsertsSelect) {
  auto plan = BuildText(
                  "EVENT Q WHEN SEQUENCE(A AS a, B AS b, 10)\n"
                  "WHERE {a.id = 7}")
                  .ValueOrDie();
  auto entries = plan->inputs.at("A");
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].first->name(), "filter:a");
}

TEST(PhysicalTest, OutputProjectionAppended) {
  auto plan = BuildText(
                  "EVENT Q WHEN SEQUENCE(A AS a, B AS b, 10)\n"
                  "OUTPUT a.id")
                  .ValueOrDie();
  EXPECT_EQ(plan->output->name(), "output");
}

TEST(PhysicalTest, SlicesAppended) {
  auto plan =
      BuildText("EVENT Q WHEN SEQUENCE(A, B, 10) #[1, 5)").ValueOrDie();
  EXPECT_EQ(plan->output->name(), "valid_slice");
  auto plan2 =
      BuildText("EVENT Q WHEN SEQUENCE(A, B, 10) @[1, 5)").ValueOrDie();
  EXPECT_EQ(plan2->output->name(), "occurrence_slice");
}

TEST(PhysicalTest, SpecAppliedToAllOperators) {
  auto plan = BuildText(
                  "EVENT Q WHEN SEQUENCE(A, B, 10) CONSISTENCY MIDDLE")
                  .ValueOrDie();
  for (const auto& op : plan->operators) {
    EXPECT_TRUE(op->spec().IsMiddle()) << op->name();
  }
}

TEST(PhysicalTest, SameTypeFeedingTwoLeaves) {
  auto plan = BuildText("EVENT Q WHEN SEQUENCE(A, A, 10)").ValueOrDie();
  EXPECT_EQ(plan->inputs.at("A").size(), 2u);
}

TEST(PhysicalTest, ToStringListsOperators) {
  auto plan = BuildText(workload::Cidr07ExampleQuery()).ValueOrDie();
  std::string s = plan->ToString();
  EXPECT_NE(s.find("sequence"), std::string::npos);
  EXPECT_NE(s.find("unless"), std::string::npos);
  EXPECT_NE(s.find("INSTALL"), std::string::npos);
}

TEST(PhysicalTest, CancelWhenPlan) {
  auto plan = BuildText(
                  "EVENT Q WHEN CANCEL-WHEN(SEQUENCE(A, B, 10), C)")
                  .ValueOrDie();
  EXPECT_EQ(plan->output->name(), "cancel_when");
  EXPECT_EQ(plan->inputs.at("C")[0].second, 1);
}

TEST(PhysicalTest, NotPlanUsesLookback) {
  auto plan = BuildText(
                  "EVENT Q WHEN NOT(C, SEQUENCE(A, B, 10))")
                  .ValueOrDie();
  EXPECT_EQ(plan->output->name(), "not");
}

}  // namespace
}  // namespace cedr
