// Recovery under disorder (the hard case): out-of-order streams whose
// delayed messages span the checkpoint barrier - an event held in a
// strong query's alignment buffer at checkpoint time, or a retraction
// whose insert was already folded into the snapshot. At every
// consistency level the recovered run must be physically identical to
// the uninterrupted one, and therefore also canonically equivalent
// (Definition 1).
#include <gtest/gtest.h>

#include "stream/equivalence.h"
#include "testing/fault.h"
#include "workload/disorder.h"
#include "workload/financial.h"
#include "workload/machines.h"
#include "workload/news.h"

namespace cedr {
namespace testing {
namespace {

ServiceScenario DisorderedMachines(uint64_t seed, ConsistencySpec spec) {
  workload::MachineConfig config;
  config.num_machines = 4;
  config.num_sessions = 40;
  config.max_session_length = 25;
  config.restart_scope = 6;
  config.session_interval = 4;
  config.seed = seed;
  workload::MachineStreams streams =
      workload::GenerateMachineEvents(config);
  // Heavy disorder relative to the sync cadence: delays (up to 15) are
  // longer than the CTI period (10), so in-flight messages regularly
  // straddle the sync points where checkpoints are taken.
  DisorderConfig dconfig;
  dconfig.disorder_fraction = 0.5;
  dconfig.max_delay = 15;
  dconfig.cti_period = 10;
  dconfig.seed = seed * 13 + 2;

  ServiceScenario scenario;
  scenario.catalog = workload::MachineCatalog();
  scenario.queries = {
      {workload::Cidr07ExampleQuery(/*hours=*/25, /*minutes=*/6), spec}};
  scenario.feed = MergeFeeds({
      FeedOf("INSTALL", ApplyDisorder(streams.installs, dconfig)),
      FeedOf("SHUTDOWN", ApplyDisorder(streams.shutdowns, dconfig)),
      FeedOf("RESTART", ApplyDisorder(streams.restarts, dconfig)),
  });
  return scenario;
}

// A crash past a sync point recovers from a sealed snapshot, not by
// replaying the journal from its first record.
void ExpectSealedBefore(const ServiceScenario& scenario, size_t crash_after) {
  if (!SyncPointWithin(scenario.feed, crash_after)) return;
  EXPECT_GT(JournalBaseAt(scenario, crash_after).ValueOrDie(), 0u)
      << "crash after " << crash_after << " calls";
}

// Restores a Checkpoint taken at the last sync point among the first
// `calls` feed calls, finishes the feed on the restored service, and
// joins the output delivered before the checkpoint. Seals skip most sync
// points, so a crash recovers from an earlier barrier; this restores
// the barrier nearest the crash.
RunOutputs RestoredAtLastSyncPoint(const ServiceScenario& scenario,
                                   size_t calls) {
  size_t sync_end = calls;  // feed index just past the last sync point
  while (sync_end > 0 &&
         scenario.feed[sync_end - 1].op != io::JournalOp::kSyncPoint) {
    --sync_end;
  }
  std::unique_ptr<CedrService> original =
      RunPrefix(scenario, sync_end).ValueOrDie();
  io::BinaryWriter w;
  EXPECT_TRUE(original->Checkpoint(&w).ok());
  io::BinaryReader r(w.bytes());
  std::unique_ptr<CedrService> restored =
      CedrService::Restore(&r).ValueOrDie();
  EXPECT_TRUE(r.ExpectEnd().ok());
  for (size_t i = sync_end; i < scenario.feed.size(); ++i) {
    EXPECT_TRUE(restored->Apply(scenario.feed[i]).ok()) << "call " << i;
  }
  EXPECT_TRUE(restored->Finish().ok());
  return JoinOutputs(OutputsOf(*original), *restored).ValueOrDie();
}

struct Input {
  const char* label;
  uint64_t seed;
  ConsistencySpec spec;
  std::vector<double> crash_fractions;
};

TEST(RecoveryDisorderTest, DisorderSpanningTheBarrierAtEveryLevel) {
  // Seed 31 at every level, plus two more disorder draws: seed 37 at
  // strong crashing late in the feed, and seed 41 at middle.
  const std::vector<Input> inputs = {
      {"strong", 31, ConsistencySpec::Strong(), {0.25, 0.5, 0.75}},
      {"middle", 31, ConsistencySpec::Middle(), {0.25, 0.5, 0.75}},
      {"weak", 31, ConsistencySpec::Weak(20), {0.25, 0.5, 0.75}},
      {"strong", 37, ConsistencySpec::Strong(), {0.3, 0.6, 0.95}},
      {"middle", 41, ConsistencySpec::Middle(), {0.5}},
  };
  for (const Input& input : inputs) {
    ServiceScenario scenario = DisorderedMachines(input.seed, input.spec);
    RunOutputs baseline = RunUninterrupted(scenario).ValueOrDie();
    for (double fraction : input.crash_fractions) {
      size_t crash_after =
          static_cast<size_t>(scenario.feed.size() * fraction);
      ExpectSealedBefore(scenario, crash_after);
      RunOutputs crashed =
          RunWithCrash(scenario, crash_after).ValueOrDie();
      // Strong: the recovered stream is message-for-message identical.
      // Middle/weak hold the same here because recovery is replay-exact,
      // which subsumes the canonical-equivalence requirement.
      EXPECT_TRUE(PhysicallyIdentical(baseline, crashed))
          << input.label << " seed " << input.seed << " crash at "
          << crash_after;
      for (const auto& [name, stream] : baseline) {
        EXPECT_TRUE(
            LogicallyEquivalent(stream, crashed.at(name)))
            << input.label << " seed " << input.seed
            << " not canonically equivalent, crash at " << crash_after;
      }
      EXPECT_TRUE(PhysicallyIdentical(
          baseline, RestoredAtLastSyncPoint(scenario, crash_after)))
          << input.label << " seed " << input.seed
          << " restored at the last sync point before " << crash_after;
    }
  }
}

TEST(RecoveryDisorderTest, RetractionsAcrossTheBarrier) {
  // Financial feed with provider corrections: a retraction can arrive
  // after the checkpoint of the insert it corrects, so the repair
  // machinery's counters must round-trip for identical repair ids.
  workload::TradeConfig config;
  config.num_trades = 120;
  config.bust_fraction = 0.2;
  config.seed = 19;
  std::vector<Message> trades = workload::GenerateTrades(config);

  ServiceScenario scenario;
  scenario.catalog = {{"TRADE", workload::TradeSchema()},
                      {"QUOTE", workload::QuoteSchema()}};
  scenario.queries = {{
      "EVENT RapidFire\n"
      "WHEN SEQUENCE(TRADE AS a, TRADE AS b, 30)\n"
      "WHERE {a.Trader = b.Trader}",
      ConsistencySpec::Middle(),
  }};
  scenario.feed = FeedOf("TRADE", trades);

  RunOutputs baseline = RunUninterrupted(scenario).ValueOrDie();
  for (double fraction : {0.2, 0.5, 0.8}) {
    size_t crash_after =
        static_cast<size_t>(scenario.feed.size() * fraction);
    ExpectSealedBefore(scenario, crash_after);
    RunOutputs crashed = RunWithCrash(scenario, crash_after).ValueOrDie();
    EXPECT_TRUE(PhysicallyIdentical(baseline, crashed))
        << "crash at " << crash_after;
  }
}

TEST(RecoveryDisorderTest, NewsCorrelationSurvivesCrashes) {
  // The market-sentiment workload: two disordered input streams whose
  // correlation the query tracks across the barrier.
  workload::NewsConfig config;
  config.num_news = 100;
  config.seed = 47;
  workload::NewsStreams streams = workload::GenerateNews(config);
  DisorderConfig dconfig;
  dconfig.disorder_fraction = 0.4;
  dconfig.max_delay = 12;
  dconfig.cti_period = 10;
  dconfig.seed = 5;
  std::vector<Message> news = ApplyDisorder(streams.news, dconfig);
  dconfig.seed = 99;
  std::vector<Message> indicators =
      ApplyDisorder(streams.indicators, dconfig);

  ServiceScenario scenario;
  scenario.catalog = workload::NewsCatalog();
  scenario.queries = {{
      "EVENT Signal\n"
      "WHEN SEQUENCE(NEWS AS n, INDICATOR AS i, 30)\n"
      "WHERE {n.Symbol = i.Symbol}",
      ConsistencySpec::Weak(25),
  }};
  scenario.feed = MergeFeeds(
      {FeedOf("NEWS", news), FeedOf("INDICATOR", indicators)});

  RunOutputs baseline = RunUninterrupted(scenario).ValueOrDie();
  for (double fraction : {0.25, 0.75}) {
    size_t crash_after =
        static_cast<size_t>(scenario.feed.size() * fraction);
    ExpectSealedBefore(scenario, crash_after);
    RunOutputs crashed = RunWithCrash(scenario, crash_after).ValueOrDie();
    EXPECT_TRUE(PhysicallyIdentical(baseline, crashed))
        << "crash at " << crash_after;
  }
}

}  // namespace
}  // namespace testing
}  // namespace cedr
