// Deterministic fault injection: crash/recover must be invisible
// (physically identical output at every consistency level), and damaged
// durable state must be rejected with the typed kCorruption/kDataLoss
// errors - never a crash, never silently wrong output.
#include "testing/fault.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "io/snapshot.h"
#include "stream/equivalence.h"
#include "workload/disorder.h"
#include "workload/machines.h"

namespace cedr {
namespace testing {
namespace {

ServiceScenario MachineScenario(uint64_t seed, ConsistencySpec spec,
                                double disorder) {
  workload::MachineConfig config;
  config.num_machines = 5;
  config.num_sessions = 50;
  config.max_session_length = 30;
  config.restart_scope = 8;
  config.session_interval = 5;
  config.seed = seed;
  workload::MachineStreams streams =
      workload::GenerateMachineEvents(config);
  DisorderConfig dconfig;
  dconfig.disorder_fraction = disorder;
  dconfig.max_delay = disorder > 0 ? 8 : 0;
  dconfig.cti_period = 12;
  dconfig.seed = seed * 7 + 1;

  ServiceScenario scenario;
  scenario.catalog = workload::MachineCatalog();
  scenario.queries = {
      {workload::Cidr07ExampleQuery(/*hours=*/30, /*minutes=*/8), spec}};
  scenario.feed = MergeFeeds({
      FeedOf("INSTALL", ApplyDisorder(streams.installs, dconfig)),
      FeedOf("SHUTDOWN", ApplyDisorder(streams.shutdowns, dconfig)),
      FeedOf("RESTART", ApplyDisorder(streams.restarts, dconfig)),
  });
  return scenario;
}

std::vector<ConsistencySpec> Levels() {
  return {ConsistencySpec::Strong(), ConsistencySpec::Middle(),
          ConsistencySpec::Weak(20)};
}

// A crash past a sync point recovers from a sealed snapshot, not by
// replaying the journal from its first record.
void ExpectSealedBefore(const ServiceScenario& scenario, size_t crash_after) {
  if (!SyncPointWithin(scenario.feed, crash_after)) return;
  EXPECT_GT(JournalBaseAt(scenario, crash_after).ValueOrDie(), 0u)
      << "crash after " << crash_after << " calls";
}

TEST(FaultInjectionTest, CrashRecoveryIsInvisibleAtEveryLevel) {
  for (const ConsistencySpec& spec : Levels()) {
    ServiceScenario scenario = MachineScenario(3, spec, /*disorder=*/0.3);
    RunOutputs baseline = RunUninterrupted(scenario).ValueOrDie();
    for (double fraction : {0.1, 0.5, 0.9}) {
      size_t crash_after =
          static_cast<size_t>(scenario.feed.size() * fraction);
      ExpectSealedBefore(scenario, crash_after);
      RunOutputs crashed =
          RunWithCrash(scenario, crash_after).ValueOrDie();
      EXPECT_TRUE(PhysicallyIdentical(baseline, crashed))
          << "spec " << spec.ToString() << " crash at " << crash_after;
    }
  }
}

TEST(FaultInjectionTest, CrashAtEveryBoundaryOfASmallFeed) {
  ServiceScenario scenario =
      MachineScenario(9, ConsistencySpec::Middle(), /*disorder=*/0.0);
  scenario.feed.resize(40);
  RunOutputs baseline = RunUninterrupted(scenario).ValueOrDie();
  for (size_t crash = 0; crash <= scenario.feed.size(); ++crash) {
    ExpectSealedBefore(scenario, crash);
    RunOutputs crashed = RunWithCrash(scenario, crash).ValueOrDie();
    EXPECT_TRUE(PhysicallyIdentical(baseline, crashed))
        << "crash after " << crash << " calls";
  }
}

TEST(FaultInjectionTest, DoubleCrashStillRecovers) {
  ServiceScenario scenario =
      MachineScenario(5, ConsistencySpec::Strong(), /*disorder=*/0.3);
  RunOutputs baseline = RunUninterrupted(scenario).ValueOrDie();

  // First crash at 1/3, recover, second crash at 2/3, recover, finish.
  // Each crash keeps the durable bytes and the output delivered so far.
  size_t third = scenario.feed.size() / 3;
  std::unique_ptr<CedrService> first = RunPrefix(scenario, third).ValueOrDie();
  RunOutputs delivered = OutputsOf(*first);
  std::string snapshot = first->snapshot_bytes();
  std::string journal = first->journal_bytes();
  first.reset();

  std::unique_ptr<CedrService> second =
      CedrService::Recover(snapshot, journal).ValueOrDie();
  for (size_t i = third; i < 2 * third; ++i) {
    ASSERT_TRUE(second->Apply(scenario.feed[i]).ok());
  }
  delivered = JoinOutputs(delivered, *second).ValueOrDie();
  snapshot = second->snapshot_bytes();
  journal = second->journal_bytes();
  second.reset();

  std::unique_ptr<CedrService> third_run =
      CedrService::Recover(snapshot, journal).ValueOrDie();
  for (size_t i = 2 * third; i < scenario.feed.size(); ++i) {
    ASSERT_TRUE(third_run->Apply(scenario.feed[i]).ok());
  }
  ASSERT_TRUE(third_run->Finish().ok());
  EXPECT_TRUE(PhysicallyIdentical(
      baseline, JoinOutputs(delivered, *third_run).ValueOrDie()));
}

TEST(FaultInjectionTest, UnregisterQueryReplaysAcrossACrash) {
  ServiceScenario scenario =
      MachineScenario(9, ConsistencySpec::Middle(), /*disorder=*/0.0);
  // Between two sync points, after some publishes, unregister the query
  // and register it again under the same name. Both crash points below
  // - right after the cycle, and right before the next sync point -
  // leave kUnregisterQuery in the journal suffix that recovery replays;
  // without it the re-registration would fail as a duplicate.
  auto is_sync = [](const io::JournalRecord& call) {
    return call.op == io::JournalOp::kSyncPoint;
  };
  auto first = std::find_if(scenario.feed.begin(), scenario.feed.end(),
                            is_sync);
  ASSERT_NE(first, scenario.feed.end());
  auto next = std::find_if(first + 1, scenario.feed.end(), is_sync);
  ASSERT_NE(next, scenario.feed.end());
  ASSERT_GE(next - first, 2) << "need a publish between the sync points";
  const size_t cycle_at = static_cast<size_t>(first - scenario.feed.begin()) +
                          static_cast<size_t>(next - first) / 2;
  const size_t next_sync = static_cast<size_t>(next - scenario.feed.begin());

  io::JournalRecord unregister;
  unregister.op = io::JournalOp::kUnregisterQuery;
  unregister.name = "CIDR07_Example";
  io::JournalRecord reregister;
  reregister.op = io::JournalOp::kRegisterQuery;
  reregister.text = scenario.queries[0].text;
  reregister.has_spec = true;
  reregister.spec = *scenario.queries[0].spec;
  scenario.feed.insert(scenario.feed.begin() + cycle_at,
                       {unregister, reregister});
  // A short tail after the next sync point is enough to finish on.
  scenario.feed.resize(std::min(scenario.feed.size(), next_sync + 2 + 40));

  RunOutputs baseline = RunUninterrupted(scenario).ValueOrDie();
  ASSERT_FALSE(baseline.at("CIDR07_Example").empty());
  for (size_t crash : {cycle_at + 2, next_sync + 2}) {
    ExpectSealedBefore(scenario, crash);
    RunOutputs crashed = RunWithCrash(scenario, crash).ValueOrDie();
    EXPECT_TRUE(PhysicallyIdentical(baseline, crashed))
        << "crash after " << crash << " calls";
  }
}

// Captures the durable bytes of a partially-run scenario.
void DurableBytesAt(const ServiceScenario& scenario, size_t calls,
                    std::string* snapshot, std::string* journal) {
  std::unique_ptr<CedrService> service =
      RunPrefix(scenario, calls).ValueOrDie();
  *snapshot = service->snapshot_bytes();
  *journal = service->journal_bytes();
}

TEST(FaultInjectionTest, FlippedSnapshotBitIsCorruption) {
  ServiceScenario scenario =
      MachineScenario(7, ConsistencySpec::Strong(), /*disorder=*/0.3);
  std::string snapshot;
  std::string journal;
  DurableBytesAt(scenario, scenario.feed.size() / 2, &snapshot, &journal);

  FaultInjector injector(11);
  // Flip a bit inside the payload region (past magic + version), so the
  // failure is deterministically a checksum mismatch.
  size_t pos = 8 + 4 + 8 +
               injector.PickIndex(snapshot.size() - (8 + 4 + 8 + 4));
  snapshot[pos] ^= 0x20;
  Result<std::unique_ptr<CedrService>> got =
      CedrService::Recover(snapshot, journal);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kCorruption);
}

TEST(FaultInjectionTest, TruncatedSnapshotIsDataLoss) {
  ServiceScenario scenario =
      MachineScenario(7, ConsistencySpec::Middle(), /*disorder=*/0.0);
  std::string snapshot;
  std::string journal;
  DurableBytesAt(scenario, scenario.feed.size() / 2, &snapshot, &journal);

  FaultInjector injector(13);
  std::string damaged = snapshot;
  injector.Truncate(&damaged);
  Result<std::unique_ptr<CedrService>> got =
      CedrService::Recover(damaged, journal);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kDataLoss);
}

TEST(FaultInjectionTest, MismatchedJournalEpochIsDataLoss) {
  ServiceScenario scenario =
      MachineScenario(7, ConsistencySpec::Middle(), /*disorder=*/0.0);
  std::string snapshot_a;
  std::string journal_a;
  DurableBytesAt(scenario, 5, &snapshot_a, &journal_a);
  std::string snapshot_b;
  std::string journal_b;
  DurableBytesAt(scenario, scenario.feed.size(), &snapshot_b, &journal_b);

  // Pair an old snapshot with a journal from a later epoch: records are
  // missing in between, which must be detected, not silently replayed.
  // A checkpoint was sealed in between, so the two epochs' base indexes
  // differ.
  io::JournalContents a = io::ReadJournal(journal_a).ValueOrDie();
  io::JournalContents b = io::ReadJournal(journal_b).ValueOrDie();
  ASSERT_LT(a.base_index, b.base_index);
  Result<std::unique_ptr<CedrService>> got =
      CedrService::Recover(snapshot_a, journal_b);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kDataLoss);
}

TEST(FaultInjectionTest, PreviousSnapshotVersionIsCorruption) {
  // Each version changes the plan-state layout (version 5 keeps a
  // pattern operator's composites on its candidates), so a snapshot of
  // the previous version is refused rather than misread.
  ServiceScenario scenario =
      MachineScenario(7, ConsistencySpec::Middle(), /*disorder=*/0.0);
  std::string snapshot;
  std::string journal;
  DurableBytesAt(scenario, scenario.feed.size() / 2, &snapshot, &journal);
  ASSERT_TRUE(CedrService::Recover(snapshot, journal).ok());

  io::BinaryWriter version;
  version.PutU32(io::kSnapshotVersion - 1);
  snapshot.replace(/*magic*/ 8, 4, version.bytes());
  Result<std::unique_ptr<CedrService>> got =
      CedrService::Recover(snapshot, journal);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kCorruption);
}

TEST(FaultInjectionTest, RandomDamageSweepNeverCrashesOrLies) {
  // Seeded sweep: random crash point, random damage to either artifact.
  // Every outcome must be a typed rejection (kCorruption/kDataLoss) or
  // a successful recovery - and a "successful" recovery from a
  // journal truncated exactly at a record boundary replays a prefix,
  // so it must still finish cleanly.
  ServiceScenario scenario =
      MachineScenario(15, ConsistencySpec::Middle(), /*disorder=*/0.3);
  for (uint64_t seed = 0; seed < 24; ++seed) {
    FaultInjector injector(seed);
    size_t crash_after = injector.PickIndex(scenario.feed.size());
    std::string snapshot;
    std::string journal;
    DurableBytesAt(scenario, crash_after, &snapshot, &journal);

    enum { kFlipSnap, kFlipJournal, kTruncSnap, kTruncJournal };
    switch (injector.PickIndex(4)) {
      case kFlipSnap:
        injector.FlipBit(&snapshot);
        break;
      case kFlipJournal:
        injector.FlipBit(&journal);
        break;
      case kTruncSnap:
        injector.Truncate(&snapshot);
        break;
      default:
        injector.Truncate(&journal);
        break;
    }

    Result<std::unique_ptr<CedrService>> got =
        CedrService::Recover(snapshot, journal);
    if (!got.ok()) {
      StatusCode code = got.status().code();
      EXPECT_TRUE(code == StatusCode::kCorruption ||
                  code == StatusCode::kDataLoss)
          << "seed " << seed << ": " << got.status().ToString();
      continue;
    }
    // Boundary truncation of the journal is indistinguishable from "the
    // last calls never happened"; the recovered prefix must still run.
    std::unique_ptr<CedrService> service = std::move(got).ValueOrDie();
    EXPECT_TRUE(service->Finish().ok()) << "seed " << seed;
  }
}

TEST(FaultInjectorTest, DamageIsDeterministicPerSeed) {
  std::string original(64, '\x5A');
  std::string a = original;
  std::string b = original;
  FaultInjector ia(42);
  FaultInjector ib(42);
  ia.FlipBit(&a);
  ib.FlipBit(&b);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, original);

  std::string c = original;
  FaultInjector ic(43);
  ic.FlipBit(&c);
  // Different seed, (almost surely) different damage.
  EXPECT_NE(c, a);
}

}  // namespace
}  // namespace testing
}  // namespace cedr
