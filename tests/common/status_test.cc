#include "common/status.h"

#include <gtest/gtest.h>

#include "common/result.h"

namespace cedr {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
  EXPECT_EQ(st.message(), "");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("bad window");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(), "bad window");
  EXPECT_EQ(st.ToString(), "Invalid argument: bad window");
}

TEST(StatusTest, AllFactoriesProduceDistinctCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::NotImplemented("x").code(), StatusCode::kNotImplemented);
  EXPECT_EQ(Status::ParseError("x").code(), StatusCode::kParseError);
  EXPECT_EQ(Status::BindError("x").code(), StatusCode::kBindError);
  EXPECT_EQ(Status::PlanError("x").code(), StatusCode::kPlanError);
  EXPECT_EQ(Status::ExecutionError("x").code(), StatusCode::kExecutionError);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::DataLoss("x").code(), StatusCode::kDataLoss);
  EXPECT_EQ(Status::Corruption("x").code(), StatusCode::kCorruption);
}

TEST(StatusTest, DurabilityCodesDistinguishMissingFromInvalid) {
  // kDataLoss: durable bytes are absent or truncated. kCorruption:
  // bytes are present but fail validation. Recovery treats them
  // differently, so they must stay distinct codes with distinct text.
  Status lost = Status::DataLoss("journal tail torn");
  Status bad = Status::Corruption("checksum mismatch");
  EXPECT_FALSE(lost.ok());
  EXPECT_FALSE(bad.ok());
  EXPECT_NE(lost.code(), bad.code());
  EXPECT_EQ(lost.ToString(), "Data loss: journal tail torn");
  EXPECT_EQ(bad.ToString(), "Corruption: checksum mismatch");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Internal("a"));
  EXPECT_EQ(Status::OK(), Status());
}

TEST(StatusTest, CopiesShareState) {
  Status a = Status::Internal("boom");
  Status b = a;
  EXPECT_EQ(b.message(), "boom");
  EXPECT_EQ(a, b);
}

Status Fails() { return Status::OutOfRange("nope"); }
Status Propagates() {
  CEDR_RETURN_NOT_OK(Fails());
  return Status::Internal("unreachable");
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  EXPECT_EQ(Propagates().code(), StatusCode::kOutOfRange);
}

Result<int> GiveInt(bool ok) {
  if (!ok) return Status::NotFound("no int");
  return 42;
}

Result<int> UseAssignOrReturn(bool ok) {
  CEDR_ASSIGN_OR_RETURN(int v, GiveInt(ok));
  return v + 1;
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = GiveInt(true);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie(), 42);
  EXPECT_EQ(r.ValueOr(-1), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = GiveInt(false);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.ValueOr(-1), -1);
}

TEST(ResultDeathTest, ValueOrDieOnAnErrorPrintsTheStatusAndAborts) {
  Result<int> r = GiveInt(false);
  EXPECT_DEATH(r.ValueOrDie(), "ValueOrDie on an error: .*no int");
  EXPECT_DEATH(std::move(r).ValueOrDie(), "no int");
  const Result<std::unique_ptr<int>> empty = Status::NotFound("no ptr");
  EXPECT_DEATH(empty.ValueOrDie(), "no ptr");
}

TEST(ResultTest, AssignOrReturnMacro) {
  Result<int> ok = UseAssignOrReturn(true);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.ValueOrDie(), 43);
  Result<int> err = UseAssignOrReturn(false);
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(5);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).ValueOrDie();
  EXPECT_EQ(*v, 5);
}

}  // namespace
}  // namespace cedr
