#include "engine/service.h"

#include <gtest/gtest.h>

#include "denotation/ideal.h"
#include "denotation/patterns.h"
#include "testing/helpers.h"
#include "workload/machines.h"

namespace cedr {
namespace {

SchemaPtr MachineSchema() { return workload::MachineEventSchema(); }

Row Payload(int64_t machine) {
  return Row(MachineSchema(), {Value(machine), Value("b")});
}

CedrService MakeService() {
  CedrService service;
  EXPECT_TRUE(service.RegisterEventType("INSTALL", MachineSchema()).ok());
  EXPECT_TRUE(service.RegisterEventType("SHUTDOWN", MachineSchema()).ok());
  EXPECT_TRUE(service.RegisterEventType("RESTART", MachineSchema()).ok());
  return service;
}

TEST(ServiceTest, TypeRegistrationIdempotentButConsistent) {
  CedrService service = MakeService();
  EXPECT_TRUE(service.RegisterEventType("INSTALL", MachineSchema()).ok());
  SchemaPtr other = Schema::Make({{"x", ValueType::kInt64}});
  EXPECT_EQ(service.RegisterEventType("INSTALL", other).code(),
            StatusCode::kAlreadyExists);
  EXPECT_FALSE(service.RegisterEventType("NULLSCHEMA", nullptr).ok());
  // Type names are non-empty and space-free.
  EXPECT_EQ(service.RegisterEventType("", MachineSchema()).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service.RegisterEventType("MY TYPE", MachineSchema()).code(),
            StatusCode::kInvalidArgument);
}

TEST(ServiceTest, QueriesNeedKnownTypes) {
  CedrService service;
  auto r = service.RegisterQuery("EVENT Q WHEN SEQUENCE(A, B, 10)");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kBindError);
}

TEST(ServiceTest, DuplicateQueryNamesRejected) {
  CedrService service = MakeService();
  std::string text = "EVENT Q WHEN SEQUENCE(INSTALL, SHUTDOWN, 40)";
  ASSERT_TRUE(service.RegisterQuery(text).ok());
  EXPECT_EQ(service.RegisterQuery(text).status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_TRUE(service.UnregisterQuery("Q").ok());
  EXPECT_TRUE(service.RegisterQuery(text).ok());
  EXPECT_FALSE(service.UnregisterQuery("ZZZ").ok());
}

TEST(ServiceTest, EndToEndRoutingAndResults) {
  CedrService service = MakeService();
  ASSERT_TRUE(service
                  .RegisterQuery(
                      "EVENT Pair WHEN SEQUENCE(INSTALL AS x, SHUTDOWN AS "
                      "y, 40) WHERE {x.Machine_Id = y.Machine_Id}",
                      ConsistencySpec::Middle())
                  .ok());
  ASSERT_TRUE(service
                  .RegisterQuery(
                      "EVENT Alert WHEN UNLESS(SEQUENCE(INSTALL AS x, "
                      "SHUTDOWN AS y, 40), RESTART AS z, 10) WHERE "
                      "CorrelationKey(Machine_Id, EQUAL)",
                      ConsistencySpec::Middle())
                  .ok());
  EXPECT_EQ(service.QueryNames().size(), 2u);

  ASSERT_TRUE(service.Publish("INSTALL", MakeEvent(1, 2, kInfinity,
                                                   Payload(7)))
                  .ok());
  ASSERT_TRUE(service.Publish("SHUTDOWN", MakeEvent(2, 20, kInfinity,
                                                    Payload(7)))
                  .ok());
  ASSERT_TRUE(service.Publish("RESTART", MakeEvent(3, 25, kInfinity,
                                                   Payload(7)))
                  .ok());
  ASSERT_TRUE(service.Finish().ok());

  const CompiledQuery* pair = service.GetQuery("Pair").ValueOrDie();
  EXPECT_EQ(pair->sink().Ideal().size(), 1u);
  const CompiledQuery* alert = service.GetQuery("Alert").ValueOrDie();
  EXPECT_TRUE(alert->sink().Ideal().empty());  // restart suppressed it
}

TEST(ServiceTest, PublishedRootTimeIsTheValidStart) {
  // A primitive's root time is its Vs whatever the provider sent, so a
  // canceling event before the detection started does not cancel it.
  CedrService service;
  for (const char* type : {"A", "B", "C"}) {
    ASSERT_TRUE(
        service.RegisterEventType(type, testing::KeyValueSchema()).ok());
  }
  ASSERT_TRUE(service
                  .RegisterQuery("EVENT Q WHEN CANCEL-WHEN(SEQUENCE(A AS x, "
                                 "B AS y, 10), C AS z)",
                                 ConsistencySpec::Middle())
                  .ok());
  Event a = MakeEvent(1, 40, 41, testing::KV(0, 1));
  a.rt = 0;
  const Event b = MakeEvent(2, 45, 46, testing::KV(0, 2));
  const Event c = MakeEvent(3, 5, 6, testing::KV(0, 3));
  ASSERT_TRUE(service.Publish("C", c).ok());
  ASSERT_TRUE(service.Publish("A", a).ok());
  ASSERT_TRUE(service.Publish("B", b).ok());
  ASSERT_TRUE(service.Finish().ok());

  a.rt = a.vs;
  EventList ideal =
      denotation::CancelWhen(denotation::Sequence({{a}, {b}}, 10), {c});
  ASSERT_EQ(ideal.size(), 1u);
  const CompiledQuery* q = service.GetQuery("Q").ValueOrDie();
  EXPECT_TRUE(denotation::StarEqual(q->sink().Ideal(), ideal))
      << denotation::ToTableString(q->sink().Ideal());
}

TEST(ServiceTest, PublishValidation) {
  CedrService service = MakeService();
  EXPECT_EQ(service.Publish("NOPE", MakeEvent(1, 1, 2)).code(),
            StatusCode::kNotFound);
  // Wrong payload schema.
  Row wrong(Schema::Make({{"z", ValueType::kBool}}), {Value(true)});
  EXPECT_EQ(service.Publish("INSTALL", MakeEvent(1, 1, 2, wrong)).code(),
            StatusCode::kInvalidArgument);
}

TEST(ServiceTest, RetractionValidation) {
  CedrService service = MakeService();
  Event e = MakeEvent(1, 2, 10, Payload(7));
  ASSERT_TRUE(service.Publish("INSTALL", e).ok());
  EXPECT_FALSE(service.PublishRetraction("INSTALL", e, 12).ok());
  // A retraction cannot end before the event starts, and a rejected one
  // consumes no arrival stamp.
  const Time before = service.now();
  EXPECT_EQ(service.PublishRetraction("INSTALL", e, 1).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service.now(), before);
  EXPECT_TRUE(service.PublishRetraction("INSTALL", e, 5).ok());
  // Shrinking to the start (a full retraction) stays legal.
  EXPECT_TRUE(service.PublishRetraction("INSTALL", e, 2).ok());
}

TEST(ServiceTest, SyncPointsDriveBlockingQueries) {
  CedrService service = MakeService();
  ASSERT_TRUE(service
                  .RegisterQuery(
                      "EVENT Strong WHEN SEQUENCE(INSTALL AS x, SHUTDOWN "
                      "AS y, 40) WHERE {x.Machine_Id = y.Machine_Id} "
                      "CONSISTENCY STRONG")
                  .ok());
  ASSERT_TRUE(service.Publish("INSTALL", MakeEvent(1, 2, kInfinity,
                                                   Payload(7)))
                  .ok());
  ASSERT_TRUE(service.Publish("SHUTDOWN", MakeEvent(2, 5, kInfinity,
                                                    Payload(7)))
                  .ok());
  const CompiledQuery* q = service.GetQuery("Strong").ValueOrDie();
  EXPECT_TRUE(q->sink().Ideal().empty());  // still blocked
  ASSERT_TRUE(service.PublishSyncPoint("INSTALL", 50).ok());
  ASSERT_TRUE(service.PublishSyncPoint("SHUTDOWN", 50).ok());
  ASSERT_TRUE(service.PublishSyncPoint("RESTART", 50).ok());
  EXPECT_EQ(q->sink().inserts(), 1u);  // released by the guarantees
  ASSERT_TRUE(service.Finish().ok());
}

TEST(ServiceTest, EmptyLifetimeRejected) {
  CedrService service = MakeService();
  EXPECT_EQ(service.Publish("INSTALL", MakeEvent(1, 5, 5, Payload(1)))
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service.Publish("INSTALL", MakeEvent(1, 5, 3, Payload(1)))
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(ServiceTest, RetractionOfNeverPublishedEventRejected) {
  CedrService service = MakeService();
  Event published = MakeEvent(1, 2, 10, Payload(7));
  ASSERT_TRUE(service.Publish("INSTALL", published).ok());
  // Never published at all.
  Event ghost = MakeEvent(99, 2, 10, Payload(7));
  EXPECT_EQ(service.PublishRetraction("INSTALL", ghost, 5).code(),
            StatusCode::kNotFound);
  // Published, but on a different type.
  EXPECT_EQ(service.PublishRetraction("SHUTDOWN", published, 5).code(),
            StatusCode::kNotFound);
  // Unknown type outranks the never-published check.
  EXPECT_EQ(service.PublishRetraction("NOPE", published, 5).code(),
            StatusCode::kNotFound);
}

TEST(ServiceTest, SyncPointsMustStrictlyAdvance) {
  CedrService service = MakeService();
  EXPECT_EQ(service.PublishSyncPoint("NOPE", 10).code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(service.PublishSyncPoint("INSTALL", 10).ok());
  // Duplicate.
  EXPECT_EQ(service.PublishSyncPoint("INSTALL", 10).code(),
            StatusCode::kInvalidArgument);
  // Regressive.
  EXPECT_EQ(service.PublishSyncPoint("INSTALL", 4).code(),
            StatusCode::kInvalidArgument);
  // Sync points are tracked per type; another type is unaffected.
  ASSERT_TRUE(service.PublishSyncPoint("SHUTDOWN", 4).ok());
  // A rejected sync point must not have corrupted the tracker.
  ASSERT_TRUE(service.PublishSyncPoint("INSTALL", 11).ok());
}

TEST(ServiceTest, RejectedCallsBurnNoArrivalTime) {
  // Determinism on recovery: a failed publish must not consume a cs
  // stamp (failed calls are not journaled, so replay would otherwise
  // drift).
  CedrService service = MakeService();
  Time before = service.now();
  EXPECT_FALSE(service.Publish("NOPE", MakeEvent(1, 1, 2)).ok());
  EXPECT_FALSE(service.Publish("INSTALL", MakeEvent(1, 5, 5)).ok());
  EXPECT_FALSE(
      service.PublishRetraction("INSTALL", MakeEvent(9, 1, 4), 2).ok());
  EXPECT_EQ(service.now(), before);
  ASSERT_TRUE(service.Publish("INSTALL", MakeEvent(1, 1, 2)).ok());
  EXPECT_EQ(service.now(), before + 1);
}

TEST(ServiceTest, FinishIsTerminal) {
  CedrService service = MakeService();
  ASSERT_TRUE(service.Finish().ok());
  EXPECT_FALSE(service.Publish("INSTALL", MakeEvent(1, 1, 2,
                                                    Payload(1)))
                   .ok());
  EXPECT_FALSE(service.RegisterQuery("EVENT Q WHEN ANY(INSTALL)").ok());
  EXPECT_TRUE(service.Finish().ok());  // idempotent
}

}  // namespace
}  // namespace cedr
