// The layout of a pattern output: an ALL or ATLEAST composite lists its
// contributors in declaration order, whichever arrives first, so OUTPUT,
// enclosing predicates and negation windows read each contributor where
// it was declared.
#include <gtest/gtest.h>

#include "denotation/patterns.h"
#include "engine/query.h"
#include "pattern/instance.h"
#include "pattern/negation.h"
#include "testing/helpers.h"

namespace cedr {
namespace {

using denotation::StarEqual;
using testing::KV;
using testing::RunMultiPort;

SchemaPtr KSchema() { return Schema::Make({{"k", ValueType::kInt64}}); }
SchemaPtr JSchema() { return Schema::Make({{"j", ValueType::kInt64}}); }

/// A and C carry k; B carries j, or k when `b_schema` says so.
Catalog LayoutCatalog(SchemaPtr b_schema) {
  return {{"A", KSchema()}, {"B", std::move(b_schema)}, {"C", KSchema()}};
}

Event Ev(EventId id, Time vs, const SchemaPtr& schema, int64_t value) {
  return MakeEvent(id, vs, TimeAdd(vs, 1), Row(schema, {Value(value)}));
}

/// Runs `text` over the arrivals in order and returns the converged output.
EventList RunQuery(
    const std::string& text, const Catalog& catalog,
    const std::vector<std::pair<std::string, Event>>& arrivals) {
  auto query = CompiledQuery::Compile(text, catalog, ConsistencySpec::Middle())
                   .ValueOrDie();
  Time cs = 1;
  for (const auto& [type, e] : arrivals) {
    EXPECT_TRUE(query->Push(type, InsertOf(e, cs++)).ok());
  }
  EXPECT_TRUE(query->Finish().ok());
  return query->sink().Ideal();
}

TEST(LayoutTest, AllOutputReadsEachContributorWhereItWasDeclared) {
  const Event b = Ev(1, 5, JSchema(), 2);
  const Event a = Ev(2, 7, KSchema(), 1);
  EventList out = RunQuery(
      "EVENT Q WHEN ALL(A AS a, B AS b, 10) OUTPUT a.k AS ak, b.j AS bj",
      LayoutCatalog(JSchema()), {{"B", b}, {"A", a}});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].payload.at(0).AsInt64(), 1);  // ak
  EXPECT_EQ(out[0].payload.at(1).AsInt64(), 2);  // bj
  ASSERT_EQ(out[0].cbt.size(), 2u);
  EXPECT_EQ(out[0].cbt[0]->id, a.id);
  // The latest contributor gives Vs, the earliest Ve.
  EXPECT_EQ(out[0].vs, 7);
  EXPECT_EQ(out[0].ve, 15);
}

TEST(LayoutTest, EnclosingPredicateReadsTheDeclaredContributor) {
  // b.k = 2 equals the first C's k; only a.k = 1 may be compared.
  const Event b = Ev(1, 5, KSchema(), 2);
  const Event a = Ev(2, 7, KSchema(), 1);
  const Event c2 = Ev(3, 20, KSchema(), 2);
  const Event c1 = Ev(4, 30, KSchema(), 1);
  EventList out = RunQuery(
      "EVENT Q WHEN SEQUENCE(ALL(A AS a, B AS b, 10), C AS c, 100) "
      "WHERE {a.k = c.k}",
      LayoutCatalog(KSchema()), {{"B", b}, {"A", a}, {"C", c2}, {"C", c1}});
  ASSERT_EQ(out.size(), 1u);
  ASSERT_EQ(out[0].cbt.size(), 2u);
  EXPECT_EQ(out[0].cbt[1]->id, c1.id);
}

TEST(LayoutTest, NegationPredicateReadsTheDeclaredContributor) {
  const std::string text =
      "EVENT Q WHEN UNLESS(ALL(A AS a, B AS b, 10), C AS c, 5) "
      "WHERE {a.k = c.k}";
  const Event b = Ev(1, 5, JSchema(), 2);
  const Event a = Ev(2, 7, KSchema(), 1);
  // A C with another key cannot block; one with a's key does.
  EXPECT_EQ(RunQuery(text, LayoutCatalog(JSchema()),
                     {{"B", b}, {"A", a}, {"C", Ev(3, 9, KSchema(), 2)}})
                .size(),
            1u);
  EXPECT_TRUE(RunQuery(text, LayoutCatalog(JSchema()),
                       {{"B", b}, {"A", a}, {"C", Ev(3, 9, KSchema(), 1)}})
                  .empty());
}

TEST(LayoutTest, OutputWithoutAFixedLayoutCarriesNoSchema) {
  // A match of ANY(A, B) binds A or B, so the composite slice a_k, b_j,
  // c_k cannot describe the payload (a.k, c.k).
  const Catalog catalog = LayoutCatalog(JSchema());
  EventList out = RunQuery(
      "EVENT Q WHEN ALL(ANY(A AS a, B AS b), C AS c, 10)", catalog,
      {{"A", Ev(1, 1, KSchema(), 7)}, {"C", Ev(2, 3, KSchema(), 9)}});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].payload.size(), 2u);
  EXPECT_EQ(out[0].payload.schema(), nullptr);
}

TEST(LayoutTest, NotWindowSpansTheEarliestToTheLatestContributor) {
  // ALL(A, B, 20) over B@5, A@7: declared A first, arrived B first.
  const Event a = MakeEvent(1, 7, 8, KV(0, 1));
  const Event b = MakeEvent(2, 5, 6, KV(0, 2));
  const Event all = MakeCompositeEvent(
      {std::make_shared<const Event>(a), std::make_shared<const Event>(b)},
      20, nullptr);
  EXPECT_EQ(all.vs, 7);
  EXPECT_EQ(all.ve, 25);
  for (Time c_vs : {6, 8}) {
    const EventList blockers = {MakeEvent(3, c_vs, c_vs + 1, KV(0, 3))};
    NegationOp op(NegationWindow::Not(/*lookback=*/20), nullptr,
                  ConsistencySpec::Middle());
    auto result = RunMultiPort(
        &op, {{InsertOf(all, all.vs)}, {InsertOf(blockers[0], c_vs)}});
    ASSERT_TRUE(result.status.ok());
    EventList ideal = denotation::NotSequence(blockers, {all});
    EXPECT_TRUE(StarEqual(result.Ideal(), ideal));
    // Only C@6 lies strictly between B@5 and A@7.
    EXPECT_EQ(ideal.size(), c_vs == 6 ? 0u : 1u) << "C@" << c_vs;
  }
}

}  // namespace
}  // namespace cedr
