// Runtime consistency switching: the Section 5 seamless-switching
// property, exercised.
#include "engine/switching.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "denotation/patterns.h"
#include "engine/service.h"
#include "testing/fault.h"
#include "workload/disorder.h"
#include "workload/machines.h"

namespace cedr {
namespace {

std::string QueryText() {
  return "EVENT Switcher\n"
         "WHEN UNLESS(SEQUENCE(INSTALL AS x, SHUTDOWN AS y, 40),\n"
         "            RESTART AS z, 10)\n"
         "WHERE CorrelationKey(Machine_Id, EQUAL)";
}

struct Feed {
  std::vector<std::pair<std::string, Message>> merged;
  workload::MachineStreams streams;
};

Feed MakeFeed(uint64_t seed, bool disordered, int num_sessions = 150) {
  workload::MachineConfig config;
  config.num_machines = 6;
  config.num_sessions = num_sessions;
  config.max_session_length = 40;
  config.restart_scope = 10;
  config.session_interval = 6;
  config.seed = seed;
  Feed feed;
  feed.streams = workload::GenerateMachineEvents(config);
  DisorderConfig dconfig;
  dconfig.disorder_fraction = disordered ? 0.4 : 0.0;
  dconfig.max_delay = disordered ? 10 : 0;
  dconfig.cti_period = 12;
  dconfig.seed = seed * 3;
  std::vector<LabeledStream> streams = {
      {"INSTALL", ApplyDisorder(feed.streams.installs, dconfig)},
      {"SHUTDOWN", ApplyDisorder(feed.streams.shutdowns, dconfig)},
      {"RESTART", ApplyDisorder(feed.streams.restarts, dconfig)}};
  feed.merged = MergeByArrival(streams);
  return feed;
}

EventList PureRun(const Feed& feed, ConsistencySpec spec) {
  auto query = CompiledQuery::Compile(QueryText(),
                                      workload::MachineCatalog(), spec)
                   .ValueOrDie();
  for (const auto& [type, msg] : feed.merged) {
    EXPECT_TRUE(query->Push(type, msg).ok());
  }
  EXPECT_TRUE(query->Finish().ok());
  return query->sink().Ideal();
}

/// Retractions that reference no earlier insert, plus inserts of an
/// identity already inserted, plus CTIs that do not advance: 0 for a
/// well-formed stream.
size_t MalformedMessages(const std::vector<Message>& stream) {
  std::set<EventId> inserted;
  Time last_cti = kMinTime;
  size_t bad = 0;
  for (const Message& m : stream) {
    switch (m.kind) {
      case MessageKind::kInsert:
        if (!inserted.insert(m.event.id).second) ++bad;
        break;
      case MessageKind::kRetract:
        if (inserted.count(m.event.id) == 0) ++bad;
        break;
      case MessageKind::kCti:
        if (m.time <= last_cti) ++bad;
        last_cti = m.time;
        break;
    }
  }
  return bad;
}

TEST(SwitchingTest, MidStreamSwitchConvergesToPureRuns) {
  Feed feed = MakeFeed(3, /*disordered=*/true);
  EventList pure_strong = PureRun(feed, ConsistencySpec::Strong());
  EventList pure_middle = PureRun(feed, ConsistencySpec::Middle());
  ASSERT_TRUE(denotation::StarEqual(pure_strong, pure_middle));

  auto query = SwitchableQuery::Create(QueryText(),
                                       workload::MachineCatalog(),
                                       ConsistencySpec::Middle())
                   .ValueOrDie();
  size_t half = feed.merged.size() / 2;
  for (size_t i = 0; i < feed.merged.size(); ++i) {
    if (i == half) {
      ASSERT_TRUE(query->SwitchTo(ConsistencySpec::Strong()).ok());
    }
    ASSERT_TRUE(query->Push(feed.merged[i].first, feed.merged[i].second)
                    .ok());
  }
  ASSERT_TRUE(query->Finish().ok());
  EXPECT_EQ(query->switches(), 1);
  EXPECT_TRUE(query->current_spec().IsStrong());
  EXPECT_TRUE(denotation::StarEqual(query->Ideal(), pure_strong))
      << "spliced run diverged from the pure runs";
}

TEST(SwitchingTest, MultipleSwitchesStillConverge) {
  Feed feed = MakeFeed(5, /*disordered=*/true);
  EventList expected = PureRun(feed, ConsistencySpec::Middle());

  auto query = SwitchableQuery::Create(QueryText(),
                                       workload::MachineCatalog(),
                                       ConsistencySpec::Strong())
                   .ValueOrDie();
  size_t third = feed.merged.size() / 3;
  for (size_t i = 0; i < feed.merged.size(); ++i) {
    if (i == third) {
      ASSERT_TRUE(query->SwitchTo(ConsistencySpec::Middle()).ok());
    }
    if (i == 2 * third) {
      ASSERT_TRUE(query->SwitchTo(ConsistencySpec::Strong()).ok());
    }
    ASSERT_TRUE(query->Push(feed.merged[i].first, feed.merged[i].second)
                    .ok());
  }
  ASSERT_TRUE(query->Finish().ok());
  EXPECT_EQ(query->switches(), 2);
  EXPECT_TRUE(denotation::StarEqual(query->Ideal(), expected));
}

TEST(SwitchingTest, SwitchToSameSpecIsNoOp) {
  auto query = SwitchableQuery::Create(QueryText(),
                                       workload::MachineCatalog(),
                                       ConsistencySpec::Middle())
                   .ValueOrDie();
  ASSERT_TRUE(query->SwitchTo(ConsistencySpec::Middle()).ok());
  EXPECT_EQ(query->switches(), 0);
}

TEST(SwitchingTest, SwitchToSameSpecMidStreamIsNoOp) {
  // The no-op must hold with state in flight too: same-spec SwitchTo
  // after arbitrary input leaves the output untouched.
  Feed feed = MakeFeed(21, /*disordered=*/true);
  EventList expected = PureRun(feed, ConsistencySpec::Middle());
  auto query = SwitchableQuery::Create(QueryText(),
                                       workload::MachineCatalog(),
                                       ConsistencySpec::Middle())
                   .ValueOrDie();
  size_t half = feed.merged.size() / 2;
  for (size_t i = 0; i < feed.merged.size(); ++i) {
    if (i == half) {
      ASSERT_TRUE(query->SwitchTo(ConsistencySpec::Middle()).ok());
      EXPECT_EQ(query->switches(), 0);
    }
    ASSERT_TRUE(query->Push(feed.merged[i].first, feed.merged[i].second)
                    .ok());
  }
  ASSERT_TRUE(query->Finish().ok());
  EXPECT_EQ(query->switches(), 0);
  EXPECT_TRUE(denotation::StarEqual(query->Ideal(), expected));
}

TEST(SwitchingTest, SwitchBeforeAnyMessage) {
  // Switching a query that has consumed nothing replays an empty input:
  // the run must behave exactly as if created at the final level.
  Feed feed = MakeFeed(17, /*disordered=*/true);
  EventList expected = PureRun(feed, ConsistencySpec::Strong());
  auto query = SwitchableQuery::Create(QueryText(),
                                       workload::MachineCatalog(),
                                       ConsistencySpec::Middle())
                   .ValueOrDie();
  ASSERT_TRUE(query->SwitchTo(ConsistencySpec::Strong()).ok());
  EXPECT_EQ(query->switches(), 1);
  for (const auto& [type, msg] : feed.merged) {
    ASSERT_TRUE(query->Push(type, msg).ok());
  }
  ASSERT_TRUE(query->Finish().ok());
  EXPECT_TRUE(denotation::StarEqual(query->Ideal(), expected));
}

TEST(SwitchingTest, TwoSwitchesBetweenConsecutiveSyncPoints) {
  // Both switches land inside one sync interval (no barrier advance in
  // between), so the second replays the same retained input as the
  // first; the splice must still dedup to a convergent stream.
  Feed feed = MakeFeed(19, /*disordered=*/true);
  EventList expected = PureRun(feed, ConsistencySpec::Middle());
  auto query = SwitchableQuery::Create(QueryText(),
                                       workload::MachineCatalog(),
                                       ConsistencySpec::Middle())
                   .ValueOrDie();
  size_t half = feed.merged.size() / 2;
  bool switched = false;
  for (size_t i = 0; i < feed.merged.size(); ++i) {
    const auto& [type, msg] = feed.merged[i];
    if (i >= half && !switched && msg.kind != MessageKind::kCti) {
      // Down and straight back up, with no sync point in between.
      ASSERT_TRUE(query->SwitchTo(ConsistencySpec::Weak(30)).ok());
      ASSERT_TRUE(query->SwitchTo(ConsistencySpec::Middle()).ok());
      switched = true;
    }
    ASSERT_TRUE(query->Push(type, msg).ok());
  }
  ASSERT_TRUE(query->Finish().ok());
  EXPECT_EQ(query->switches(), 2);
  EXPECT_TRUE(denotation::StarEqual(query->Ideal(), expected));
}

TEST(SwitchingTest, SplicedStreamIsWellFormed) {
  // Retractions emitted after the switch must reference inserts emitted
  // before it (determinism of generated ids makes this hold).
  Feed feed = MakeFeed(7, /*disordered=*/true);
  auto query = SwitchableQuery::Create(QueryText(),
                                       workload::MachineCatalog(),
                                       ConsistencySpec::Middle())
                   .ValueOrDie();
  size_t half = feed.merged.size() / 2;
  for (size_t i = 0; i < feed.merged.size(); ++i) {
    if (i == half) {
      ASSERT_TRUE(query->SwitchTo(ConsistencySpec::Weak(30)).ok());
    }
    ASSERT_TRUE(query->Push(feed.merged[i].first, feed.merged[i].second)
                    .ok());
  }
  ASSERT_TRUE(query->Finish().ok());

  // Every retraction in the spliced stream matches a preceding insert.
  std::set<EventId> seen;
  size_t unmatched = 0;
  for (const Message& m : query->OutputMessages()) {
    if (m.kind == MessageKind::kInsert) seen.insert(m.event.id);
    if (m.kind == MessageKind::kRetract && seen.count(m.event.id) == 0) {
      ++unmatched;
    }
  }
  EXPECT_EQ(unmatched, 0u);
}

TEST(SwitchingTest, RetainedInputIsTrimmedAtSyncPoints) {
  // The replay buffer must not grow with the stream: at every common
  // sync point the input prefix is folded into a barrier snapshot and
  // dropped, so retention is bounded by the provider's sync cadence.
  Feed feed = MakeFeed(11, /*disordered=*/true);
  EventList expected = PureRun(feed, ConsistencySpec::Middle());

  auto query = SwitchableQuery::Create(QueryText(),
                                       workload::MachineCatalog(),
                                       ConsistencySpec::Strong())
                   .ValueOrDie();
  size_t max_retained = 0;
  size_t two_thirds = feed.merged.size() * 2 / 3;
  for (size_t i = 0; i < feed.merged.size(); ++i) {
    if (i == two_thirds) {
      // Switch after many trims: the barrier snapshot (not a full
      // replay) brings the new level up to date.
      ASSERT_TRUE(query->SwitchTo(ConsistencySpec::Middle()).ok());
    }
    ASSERT_TRUE(query->Push(feed.merged[i].first, feed.merged[i].second)
                    .ok());
    max_retained = std::max(max_retained, query->retained_input_size());
  }
  ASSERT_TRUE(query->Finish().ok());

  EXPECT_LT(max_retained, feed.merged.size() / 2)
      << "retained input grew with the stream instead of trimming";
  EXPECT_TRUE(denotation::StarEqual(query->Ideal(), expected));
}

TEST(SwitchingTest, BarrierSizeDoesNotGrowWithOutput) {
  // The barrier holds the plan state, not the output log: on a long
  // feed the log grows many times over while the barrier stays flat.
  // The plan state itself rises and falls with the pattern instances in
  // flight, so the reference is the largest barrier over the feed's
  // first tenth rather than the first one.
  Feed feed = MakeFeed(13, /*disordered=*/true, /*num_sessions=*/1500);
  auto query = SwitchableQuery::Create(QueryText(),
                                       workload::MachineCatalog(),
                                       ConsistencySpec::Middle())
                   .ValueOrDie();
  const size_t tenth = feed.merged.size() / 10;
  size_t early_barrier = 0;
  size_t early_log = 0;
  size_t max_barrier = 0;
  for (size_t i = 0; i < feed.merged.size(); ++i) {
    ASSERT_TRUE(query->Push(feed.merged[i].first, feed.merged[i].second)
                    .ok());
    max_barrier = std::max(max_barrier, query->barrier_bytes());
    if (i + 1 == tenth) {
      early_barrier = max_barrier;
      early_log = query->active().sink().messages().size();
    }
  }
  ASSERT_GT(early_barrier, 0u);
  EXPECT_GT(query->active().sink().messages().size(), 10 * early_log);
  EXPECT_LE(max_barrier, 2 * early_barrier)
      << "the barrier grew with the output history";
  EXPECT_GT(query->barriers(), 10u);
}

TEST(SwitchingTest, ServiceSnapshotSizeDoesNotGrowWithOutput) {
  // The CedrService twin of the test above: the service seals plan state
  // on the barrier's refresh rule, so on the same feed its sealed
  // snapshot stays flat while the output log grows many times over. The
  // one part that grows with the input is the ingress's published-id
  // set (8 bytes per published event), which is left out.
  Feed feed = MakeFeed(13, /*disordered=*/true, /*num_sessions=*/1500);
  CedrService service;
  for (const auto& [type, schema] : workload::MachineCatalog()) {
    ASSERT_TRUE(service.RegisterEventType(type, schema).ok());
  }
  const std::string name =
      service.RegisterQuery(QueryText(), ConsistencySpec::Middle())
          .ValueOrDie();
  const CollectingSink& sink = service.GetQuery(name).ValueOrDie()->sink();
  const size_t tenth = feed.merged.size() / 10;
  size_t published = 0;
  size_t seals = 0;
  size_t early_snapshot = 0;
  size_t early_log = 0;
  size_t max_snapshot = 0;
  for (size_t i = 0; i < feed.merged.size(); ++i) {
    const auto& [type, msg] = feed.merged[i];
    const size_t journal_before = service.journal_bytes().size();
    ASSERT_TRUE(service.Apply(testing::FeedOf(type, {msg}).front()).ok());
    if (msg.kind == MessageKind::kInsert) ++published;
    if (service.journal_bytes().size() < journal_before) {  // sealed
      ++seals;
      max_snapshot = std::max(
          max_snapshot, service.snapshot_bytes().size() - 8 * published);
    }
    if (i + 1 == tenth) {
      early_snapshot = max_snapshot;
      early_log = sink.messages().size();
    }
  }
  ASSERT_GT(early_snapshot, 0u);
  EXPECT_GT(sink.messages().size(), 10 * early_log);
  EXPECT_LE(max_snapshot, 2 * early_snapshot)
      << "the sealed snapshot grew with the output history";
  EXPECT_GT(seals, 10u);
}

TEST(SwitchingTest, SwitchStartsFromTheLatestCommonSyncPoint) {
  // However many barrier refreshes were skipped, the new level starts
  // from the retiring plan's state at the latest common sync point: the
  // switched query matches, message for message, a plan restored from a
  // snapshot taken exactly there.
  Feed feed = MakeFeed(29, /*disordered=*/true);
  const Catalog catalog = workload::MachineCatalog();
  auto query = SwitchableQuery::Create(QueryText(), catalog,
                                       ConsistencySpec::Strong())
                   .ValueOrDie();
  auto reference = CompiledQuery::Compile(QueryText(), catalog,
                                          ConsistencySpec::Strong())
                       .ValueOrDie();
  std::map<std::string, Time> ctis;
  Time frontier = kMinTime;
  std::string at_sync;
  size_t log_at_sync = 0;
  size_t sync_end = 0;  // feed index just past the latest sync point
  size_t i = 0;
  for (; i < feed.merged.size(); ++i) {
    // Switch once the barrier lags the latest common sync point.
    if (i >= feed.merged.size() / 2 &&
        query->retained_input_size() > i - sync_end) {
      break;
    }
    const auto& [type, msg] = feed.merged[i];
    ASSERT_TRUE(query->Push(type, msg).ok());
    ASSERT_TRUE(reference->Push(type, msg).ok());
    if (msg.kind != MessageKind::kCti) continue;
    Time& known = ctis[type];
    known = std::max(known, msg.time);
    if (ctis.size() < 3) continue;
    Time common = kInfinity;
    for (const auto& [t, cti] : ctis) common = std::min(common, cti);
    if (common <= frontier) continue;
    frontier = common;
    io::BinaryWriter w;
    ASSERT_TRUE(reference->SnapshotPlan(&w).ok());
    at_sync = w.Take();
    log_at_sync = reference->sink().messages().size();
    sync_end = i + 1;
  }
  ASSERT_LT(i, feed.merged.size()) << "every refresh was taken";
  ASSERT_TRUE(query->SwitchTo(ConsistencySpec::Middle()).ok());

  auto expected = CompiledQuery::Compile(QueryText(), catalog,
                                         ConsistencySpec::Middle())
                      .ValueOrDie();
  io::BinaryReader r(at_sync);
  ASSERT_TRUE(expected->RestorePlan(&r).ok());
  expected->SeedOutput(std::span<const Message>(reference->sink().messages())
                           .first(log_at_sync));
  for (size_t j = sync_end; j < feed.merged.size(); ++j) {
    const auto& [type, msg] = feed.merged[j];
    ASSERT_TRUE(expected->Push(type, msg).ok());
    if (j >= i) ASSERT_TRUE(query->Push(type, msg).ok());
  }
  EXPECT_TRUE(testing::PhysicallyIdentical(expected->sink().messages(),
                                           query->active().sink().messages()));
}

TEST(SwitchingTest, SwitchEverySeventhMessageAcrossLevelPairs) {
  // Switches at every phase relative to the sync points - between
  // skipped barrier refreshes, right after one, and after earlier
  // switches - for every ordered pair of levels. Each spliced stream is
  // well-formed and converges to the pure run at the final level.
  Feed feed = MakeFeed(23, /*disordered=*/true);
  const std::vector<ConsistencySpec> levels = {ConsistencySpec::Strong(),
                                               ConsistencySpec::Middle(),
                                               ConsistencySpec::Weak(30)};
  for (const ConsistencySpec& from : levels) {
    for (const ConsistencySpec& to : levels) {
      if (from == to) continue;
      SCOPED_TRACE(from.ToString() + " <-> " + to.ToString());
      auto query = SwitchableQuery::Create(QueryText(),
                                           workload::MachineCatalog(), from)
                       .ValueOrDie();
      for (size_t i = 0; i < feed.merged.size(); ++i) {
        if (i % 7 == 6) {
          ASSERT_TRUE(
              query->SwitchTo(query->current_spec() == from ? to : from)
                  .ok());
        }
        ASSERT_TRUE(
            query->Push(feed.merged[i].first, feed.merged[i].second).ok());
      }
      ASSERT_TRUE(query->Finish().ok());
      EXPECT_EQ(query->switches(), static_cast<int>(feed.merged.size() / 7));
      EXPECT_EQ(MalformedMessages(query->OutputMessages()), 0u);
      EXPECT_TRUE(denotation::StarEqual(
          query->Ideal(), PureRun(feed, query->current_spec())));
    }
  }
}

TEST(SwitchingTest, AdaptiveLoopWithPolicy) {
  // Drive the adaptive loop: check the buffer at every 100 messages and
  // switch when the wanted level changes. The converged answer is
  // unaffected when memory stays infinite.
  Feed feed = MakeFeed(9, /*disordered=*/true);
  EventList expected = PureRun(feed, ConsistencySpec::Middle());

  auto query = SwitchableQuery::Create(QueryText(),
                                       workload::MachineCatalog(),
                                       ConsistencySpec::Strong())
                   .ValueOrDie();
  for (size_t i = 0; i < feed.merged.size(); ++i) {
    if (i % 100 == 99) {
      // Aggressive buffer threshold: strong will trip it.
      ConsistencySpec want = query->Stats().max_buffer_size > 10
                                 ? ConsistencySpec::Middle()
                                 : ConsistencySpec::Strong();
      if (!(want == query->current_spec())) {
        ASSERT_TRUE(query->SwitchTo(want).ok());
      }
    }
    ASSERT_TRUE(query->Push(feed.merged[i].first, feed.merged[i].second)
                    .ok());
  }
  ASSERT_TRUE(query->Finish().ok());
  EXPECT_GE(query->switches(), 1);
  EXPECT_TRUE(denotation::StarEqual(query->Ideal(), expected));
}

}  // namespace
}  // namespace cedr
