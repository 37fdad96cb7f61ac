// SC modes (Section 3.2) through the full language pipeline: WITH
// (FIRST | LAST | EACH, CONSUME | REUSE) on contributor parameters.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "engine/query.h"

namespace cedr {
namespace {

Catalog TestCatalog() {
  SchemaPtr s = Schema::Make({{"id", ValueType::kInt64}});
  return {{"A", s}, {"B", s}};
}

Row P(int64_t id) {
  return Row(Schema::Make({{"id", ValueType::kInt64}}), {Value(id)});
}

std::unique_ptr<CompiledQuery> Compile(
    const std::string& when,
    ConsistencySpec spec = ConsistencySpec::Middle()) {
  return CompiledQuery::Compile("EVENT Q WHEN " + when, TestCatalog(), spec)
      .ValueOrDie();
}

void Feed(CompiledQuery* query) {
  // Two A events then two B events, all within scope.
  ASSERT_TRUE(
      query->Push("A", InsertOf(MakeEvent(1, 1, 2, P(1)), 1)).ok());
  ASSERT_TRUE(
      query->Push("A", InsertOf(MakeEvent(2, 2, 3, P(2)), 2)).ok());
  ASSERT_TRUE(
      query->Push("B", InsertOf(MakeEvent(3, 5, 6, P(3)), 5)).ok());
  ASSERT_TRUE(
      query->Push("B", InsertOf(MakeEvent(4, 6, 7, P(4)), 6)).ok());
  ASSERT_TRUE(query->Finish().ok());
}

TEST(ScModeLangTest, DefaultEachReuseMatchesAllPairs) {
  auto query = Compile("SEQUENCE(A, B, 20)");
  Feed(query.get());
  EXPECT_EQ(query->sink().Ideal().size(), 4u);  // 2 x 2
}

TEST(ScModeLangTest, FirstSelectionPicksEarliestA) {
  auto query = Compile("SEQUENCE(A WITH (FIRST), B, 20)");
  Feed(query.get());
  EventList out = query->sink().Ideal();
  ASSERT_EQ(out.size(), 2u);  // one per B
  for (const Event& e : out) {
    EXPECT_EQ(e.cbt[0]->id, 1u);  // always the first A
  }
}

TEST(ScModeLangTest, LastSelectionPicksLatestA) {
  auto query = Compile("SEQUENCE(A WITH (LAST), B, 20)");
  Feed(query.get());
  EventList out = query->sink().Ideal();
  ASSERT_EQ(out.size(), 2u);
  for (const Event& e : out) {
    EXPECT_EQ(e.cbt[0]->id, 2u);  // always the most recent A
  }
}

TEST(ScModeLangTest, ConsumeRemovesUsedContributors) {
  auto query = Compile("SEQUENCE(A WITH (CONSUME), B, 20)");
  Feed(query.get());
  // First B consumes both As (one match per stored A under EACH
  // selection); the second B finds the store empty.
  EventList out = query->sink().Ideal();
  for (const Event& e : out) {
    EXPECT_EQ(e.cbt[1]->id, 3u) << "second B must find no A";
  }
  EXPECT_EQ(out.size(), 2u);
}

TEST(ScModeLangTest, FirstConsumeGivesOneToOnePairing) {
  // The classic chronicle policy: each B consumes exactly the earliest
  // remaining A.
  auto query = Compile("SEQUENCE(A WITH (FIRST, CONSUME), B, 20)");
  Feed(query.get());
  EventList out = query->sink().Ideal();
  ASSERT_EQ(out.size(), 2u);
  std::set<EventId> used_as;
  for (const Event& e : out) used_as.insert(e.cbt[0]->id);
  EXPECT_EQ(used_as.size(), 2u);  // A1 with B1, A2 with B2
}

// FIRST and LAST choose a candidate on its time bounds before the WHERE
// predicate runs, so a correlated query must not narrow the candidates
// to the arrival's key: the chosen A has another id and nothing matches.
void FeedCorrelated(CompiledQuery* query, int64_t first_id,
                    int64_t second_id) {
  ASSERT_TRUE(
      query->Push("A", InsertOf(MakeEvent(1, 1, 2, P(first_id)), 1)).ok());
  ASSERT_TRUE(
      query->Push("A", InsertOf(MakeEvent(2, 2, 3, P(second_id)), 2)).ok());
  ASSERT_TRUE(query->Push("B", InsertOf(MakeEvent(3, 5, 6, P(2)), 5)).ok());
  ASSERT_TRUE(query->Finish().ok());
}

TEST(ScModeLangTest, FirstSelectionIgnoresCorrelationWhenChoosing) {
  auto query = Compile(
      "SEQUENCE(A AS x WITH (FIRST), B AS y, 10) WHERE {x.id = y.id}");
  FeedCorrelated(query.get(), /*first_id=*/1, /*second_id=*/2);
  EXPECT_TRUE(query->sink().Ideal().empty());
}

TEST(ScModeLangTest, LastSelectionIgnoresCorrelationWhenChoosing) {
  auto query = Compile(
      "SEQUENCE(A AS x WITH (LAST), B AS y, 10) WHERE {x.id = y.id}");
  FeedCorrelated(query.get(), /*first_id=*/2, /*second_id=*/1);
  EXPECT_TRUE(query->sink().Ideal().empty());
}

// ALL binds its contributors in any order, but FIRST and LAST choose
// within the same time bounds as SEQUENCE: a candidate placed before the
// arrival it completes lies within the scope before it, and one placed
// after lies within the scope of the match's first contributor. What is
// chosen does not depend on when sync points trim the stores.
std::vector<std::vector<EventId>> Matches(const CompiledQuery& query) {
  std::vector<std::vector<EventId>> out;
  for (const Event& e : query.sink().Ideal()) {
    std::vector<EventId> ids;
    for (const EventRef& c : e.cbt) ids.push_back(c->id);
    out.push_back(std::move(ids));
  }
  std::sort(out.begin(), out.end());
  return out;
}

void FeedAt(CompiledQuery* query, const std::string& type, EventId id,
            Time vs) {
  ASSERT_TRUE(
      query->Push(type, InsertOf(MakeEvent(id, vs, vs + 1, P(id)), vs))
          .ok());
}

TEST(ScModeLangTest, AllFirstChoosesWithinTheArrivalsScope) {
  for (ConsistencySpec spec :
       {ConsistencySpec::Strong(), ConsistencySpec::Middle()}) {
    auto query = Compile("ALL(A AS x WITH (FIRST), B AS y, 10)", spec);
    FeedAt(query.get(), "A", 1, 1);
    FeedAt(query.get(), "A", 2, 15);
    FeedAt(query.get(), "B", 3, 20);
    ASSERT_TRUE(query->Finish().ok());
    // A@1 is out of scope for B@20, so FIRST takes A@15.
    EXPECT_EQ(Matches(*query), (std::vector<std::vector<EventId>>{{2, 3}}))
        << spec.ToString();
  }
}

TEST(ScModeLangTest, AllLastChoosesOnEachSideOfTheArrival) {
  for (ConsistencySpec spec :
       {ConsistencySpec::Strong(), ConsistencySpec::Middle()}) {
    auto query = Compile("ALL(A AS x WITH (LAST), B AS y, 10)", spec);
    FeedAt(query.get(), "A", 1, 1);
    FeedAt(query.get(), "A", 2, 8);
    FeedAt(query.get(), "B", 3, 5);
    ASSERT_TRUE(query->Finish().ok());
    // (A@1, B@5), the last A before B@5, and (B@5, A@8), listed in
    // declaration order.
    EXPECT_EQ(Matches(*query),
              (std::vector<std::vector<EventId>>{{1, 3}, {2, 3}}))
        << spec.ToString();
  }
}

}  // namespace
}  // namespace cedr
