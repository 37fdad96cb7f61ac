#include "engine/executor.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "engine/source.h"
#include "testing/fault.h"
#include "workload/machines.h"

namespace cedr {
namespace {

TEST(StreamBuilderTest, StampsMonotoneArrival) {
  StreamBuilder builder;
  builder.Insert(1, 5, 10).Cti(4).Insert(2, 7, 12);
  std::vector<Message> stream = std::move(builder).Build();
  ASSERT_EQ(stream.size(), 3u);
  EXPECT_EQ(stream[0].cs, 1);
  EXPECT_EQ(stream[1].cs, 2);
  EXPECT_EQ(stream[2].cs, 3);
  EXPECT_EQ(stream[0].event.cs, 1);
}

TEST(StreamBuilderTest, RetractCarriesOriginal) {
  StreamBuilder builder;
  Event e = MakeEvent(1, 5, 100);
  builder.Insert(e).Retract(e, 50);
  auto stream = std::move(builder).Build();
  EXPECT_EQ(stream[1].kind, MessageKind::kRetract);
  EXPECT_EQ(stream[1].new_ve, 50);
  EXPECT_EQ(stream[1].event.id, 1u);
}

TEST(MergeByArrivalTest, OrdersByCsStable) {
  LabeledStream a{"A", {CtiOf(1, 5), CtiOf(2, 9)}};
  LabeledStream b{"B", {CtiOf(3, 5), CtiOf(4, 7)}};
  auto merged = MergeByArrival({a, b});
  ASSERT_EQ(merged.size(), 4u);
  EXPECT_EQ(merged[0].first, "A");   // cs 5, stream A first (stable)
  EXPECT_EQ(merged[1].first, "B");   // cs 5
  EXPECT_EQ(merged[2].first, "B");   // cs 7
  EXPECT_EQ(merged[3].first, "A");   // cs 9
}

TEST(ExecutorTest, FansOutToMultipleQueries) {
  std::string text =
      "EVENT Q WHEN SEQUENCE(INSTALL, SHUTDOWN, 40)";
  auto q1 = CompiledQuery::Compile(text, workload::MachineCatalog(),
                                   ConsistencySpec::Middle())
                .ValueOrDie();
  auto q2 = CompiledQuery::Compile(text, workload::MachineCatalog(),
                                   ConsistencySpec::Strong())
                .ValueOrDie();
  Executor executor;
  executor.Register(q1.get());
  executor.Register(q2.get());

  Row payload(workload::MachineEventSchema(), {Value(1), Value("b")});
  LabeledStream installs{
      "INSTALL", {InsertOf(MakeEvent(1, 1, kInfinity, payload), 1)}};
  LabeledStream shutdowns{
      "SHUTDOWN", {InsertOf(MakeEvent(2, 5, kInfinity, payload), 5)}};
  ASSERT_TRUE(executor.Run({installs, shutdowns}).ok());
  EXPECT_EQ(q1->sink().Ideal().size(), 1u);
  EXPECT_EQ(q2->sink().Ideal().size(), 1u);
}

TEST(ExecutorTest, EmptyRunFinishesCleanly) {
  auto query = CompiledQuery::Compile(
                   "EVENT Q WHEN SEQUENCE(INSTALL, SHUTDOWN, 40)",
                   workload::MachineCatalog(), ConsistencySpec::Strong())
                   .ValueOrDie();
  Executor executor;
  executor.Register(query.get());
  ASSERT_TRUE(executor.Run({}).ok());
  EXPECT_TRUE(query->sink().Ideal().empty());
}

std::vector<LabeledStream> SmallMachineStreams(uint64_t seed) {
  workload::MachineConfig config;
  config.num_machines = 6;
  config.num_sessions = 80;
  config.max_session_length = 40;
  config.restart_scope = 10;
  config.session_interval = 5;
  config.seed = seed;
  workload::MachineStreams streams =
      workload::GenerateMachineEvents(config);
  return {{"INSTALL", streams.installs},
          {"SHUTDOWN", streams.shutdowns},
          {"RESTART", streams.restarts}};
}

std::vector<std::unique_ptr<CompiledQuery>> CompileSuite() {
  std::vector<std::unique_ptr<CompiledQuery>> queries;
  const std::string text = workload::Cidr07ExampleQuery();
  for (ConsistencySpec spec :
       {ConsistencySpec::Strong(), ConsistencySpec::Middle(),
        ConsistencySpec::Weak(30), ConsistencySpec::Custom(0, 100)}) {
    queries.push_back(CompiledQuery::Compile(text,
                                             workload::MachineCatalog(),
                                             spec)
                          .ValueOrDie());
  }
  return queries;
}

TEST(ExecutorTest, FansOutToAllQueries) {
  auto streams = SmallMachineStreams(21);
  auto serial_suite = CompileSuite();
  auto parallel_suite = CompileSuite();

  Executor serial;
  for (auto& q : serial_suite) serial.Register(q.get());
  ASSERT_TRUE(serial.Run(streams).ok());

  Executor parallel(ExecutorConfig{4, 64});
  for (auto& q : parallel_suite) parallel.Register(q.get());
  EXPECT_EQ(parallel.workers(), 4);
  ASSERT_TRUE(parallel.Run(streams).ok());

  for (size_t i = 0; i < serial_suite.size(); ++i) {
    EXPECT_TRUE(testing::PhysicallyIdentical(
        serial_suite[i]->sink().messages(),
        parallel_suite[i]->sink().messages()))
        << "query " << i;
  }
}

TEST(ExecutorTest, SingleWorkerAndTinyBatchesMatchSerial) {
  auto streams = SmallMachineStreams(5);
  auto serial_suite = CompileSuite();
  Executor serial;
  for (auto& q : serial_suite) serial.Register(q.get());
  ASSERT_TRUE(serial.Run(streams).ok());

  for (const ExecutorConfig config :
       {ExecutorConfig{1, 1024}, ExecutorConfig{2, 1},
        ExecutorConfig{8, 7}}) {
    auto suite = CompileSuite();
    Executor parallel(config);
    for (auto& q : suite) parallel.Register(q.get());
    ASSERT_TRUE(parallel.Run(streams).ok());
    for (size_t i = 0; i < suite.size(); ++i) {
      EXPECT_TRUE(testing::PhysicallyIdentical(
          serial_suite[i]->sink().messages(),
          suite[i]->sink().messages()))
          << "workers " << config.workers << " batch " << config.batch_size
          << " query " << i;
    }
  }
}

TEST(ExecutorTest, IncrementalPushMatchesRun) {
  auto streams = SmallMachineStreams(9);
  auto run_suite = CompileSuite();
  Executor run_exec(ExecutorConfig{4, 32});
  for (auto& q : run_suite) run_exec.Register(q.get());
  ASSERT_TRUE(run_exec.Run(streams).ok());

  auto push_suite = CompileSuite();
  Executor push_exec(ExecutorConfig{4, 32});
  for (auto& q : push_suite) push_exec.Register(q.get());
  for (const auto& [type, msg] : MergeByArrival(streams)) {
    ASSERT_TRUE(push_exec.Push(type, msg).ok());
  }
  ASSERT_TRUE(push_exec.Finish().ok());

  for (size_t i = 0; i < run_suite.size(); ++i) {
    EXPECT_TRUE(testing::PhysicallyIdentical(
        run_suite[i]->sink().messages(), push_suite[i]->sink().messages()))
        << "query " << i;
  }
}

TEST(ExecutorTest, ErrorFromAnyQueryPropagates) {
  auto suite = CompileSuite();
  Executor parallel(ExecutorConfig{4, 16});
  for (auto& q : suite) parallel.Register(q.get());
  ASSERT_TRUE(parallel.Finish().ok());
  // Every query is finished; a further push must fail, not crash.
  Status st = parallel.Push(
      "INSTALL", InsertOf(MakeEvent(1, 1, kInfinity,
                                    Row(workload::MachineEventSchema(),
                                        {Value(1), Value("b")})),
                          1));
  EXPECT_FALSE(st.ok());
}

TEST(ExecutorTest, EmptyRunWithWorkersFinishesCleanly) {
  auto suite = CompileSuite();
  Executor parallel(ExecutorConfig{4, 16});
  for (auto& q : suite) parallel.Register(q.get());
  ASSERT_TRUE(parallel.Run({}).ok());
  for (auto& q : suite) EXPECT_TRUE(q->sink().Ideal().empty());
}

/// A Cidr07 query whose every routed message fails (or throws) in the
/// fault hook.
std::unique_ptr<CompiledQuery> CompileVictim(CompiledQuery::FaultHook hook) {
  auto victim = CompiledQuery::Compile(workload::Cidr07ExampleQuery(),
                                       workload::MachineCatalog())
                    .ValueOrDie();
  victim->set_fault_hook(std::move(hook));
  return victim;
}

TEST(ExecutorTest, FailingQueryDoesNotStarveLaterQueries) {
  const std::vector<TypedMessage> merged =
      MergeByArrival(SmallMachineStreams(3));
  ASSERT_GE(merged.size(), 2u);
  const std::string text = workload::Cidr07ExampleQuery();
  auto solo =
      CompiledQuery::Compile(text, workload::MachineCatalog()).ValueOrDie();
  auto sibling =
      CompiledQuery::Compile(text, workload::MachineCatalog()).ValueOrDie();
  auto victim = CompileVictim([](const std::string&, const Message&) {
    return Status::ExecutionError("poisoned");
  });

  Executor exec;
  EXPECT_EQ(exec.workers(), 1);
  exec.Register(victim.get());
  exec.Register(sibling.get());
  const std::span<const TypedMessage> all(merged);
  const size_t half = merged.size() / 2;
  Status first = exec.PushBatch(all.first(half));
  EXPECT_EQ(first.code(), StatusCode::kExecutionError);
  EXPECT_EQ(first.message(), "poisoned");
  EXPECT_TRUE(exec.PushBatch(all.subspan(half)).ok());
  EXPECT_TRUE(exec.Finish().ok());
  EXPECT_EQ(exec.Quarantined(), std::vector<size_t>{0});

  ASSERT_TRUE(solo->PushBatch(all).ok());
  ASSERT_TRUE(solo->Finish().ok());
  EXPECT_TRUE(testing::PhysicallyIdentical(solo->sink().messages(),
                                           sibling->sink().messages()));
}

TEST(ExecutorTest, ThrowIsQuarantinedAtEveryWorkerCount) {
  const std::vector<TypedMessage> merged =
      MergeByArrival(SmallMachineStreams(4));
  for (int workers : {1, 2, 4}) {
    auto victim = CompileVictim(
        [](const std::string&, const Message&) -> Status {
          throw std::runtime_error("chaos");
        });
    auto sibling = CompiledQuery::Compile(workload::Cidr07ExampleQuery(),
                                          workload::MachineCatalog())
                       .ValueOrDie();
    Executor exec(ExecutorConfig{workers, 64});
    exec.Register(victim.get());
    exec.Register(sibling.get());
    Status st = exec.PushBatch(merged);
    EXPECT_EQ(st.code(), StatusCode::kExecutionError) << workers;
    EXPECT_EQ(st.message(), "query threw: chaos") << workers;
    EXPECT_EQ(exec.Quarantined(), std::vector<size_t>{0}) << workers;
    EXPECT_EQ(victim->sink().terminal().message(), "query threw: chaos");
    EXPECT_TRUE(exec.Finish().ok()) << workers;
  }
}

TEST(ExecutorTest, FailedFinishIsQuarantined) {
  const std::string text = workload::Cidr07ExampleQuery();
  auto closed =
      CompiledQuery::Compile(text, workload::MachineCatalog()).ValueOrDie();
  auto sibling =
      CompiledQuery::Compile(text, workload::MachineCatalog()).ValueOrDie();
  Executor exec;
  exec.Register(closed.get());
  exec.Register(sibling.get());
  closed->CloseWithError(Status::ExecutionError("gone"));

  Status st = exec.Finish();
  EXPECT_EQ(st.code(), StatusCode::kExecutionError);
  EXPECT_EQ(st.message(), "gone");
  EXPECT_EQ(exec.Quarantined(), std::vector<size_t>{0});
  EXPECT_EQ(exec.terminal(0).message(), "gone");
  EXPECT_EQ(exec.num_quarantined(), 1u);

  // The sibling finished normally: its output ends in the CTI(inf) of
  // the end of input.
  EXPECT_TRUE(exec.terminal(1).ok());
  EXPECT_FALSE(sibling->sink().closed());
  ASSERT_FALSE(sibling->sink().messages().empty());
  EXPECT_EQ(sibling->sink().messages().back().kind, MessageKind::kCti);
  EXPECT_EQ(sibling->sink().messages().back().time, kInfinity);
  EXPECT_TRUE(exec.Finish().ok()) << "the fault is reported once";
}

}  // namespace
}  // namespace cedr
