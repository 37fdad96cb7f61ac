// Deterministic fault-injection harness for the durable CedrService.
//
// A scenario is a catalog, a set of standing queries, and a feed of
// ingress calls. The harness runs it uninterrupted or with a simulated
// crash after N accepted calls (drop the service, keep the durable
// bytes and the output its consumers received, recover, continue), and
// the FaultInjector deterministically damages the durable bytes (bit
// flips, truncation) to exercise the kCorruption/kDataLoss rejection
// paths. Everything is seeded, so every failure reproduces.
#ifndef CEDR_TESTING_FAULT_H_
#define CEDR_TESTING_FAULT_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "engine/service.h"
#include "engine/supervisor.h"

namespace cedr {
namespace testing {

/// Seeded byte-level damage for snapshots and journals.
class FaultInjector {
 public:
  explicit FaultInjector(uint64_t seed) : rng_(seed) {}

  /// Flips one random bit; no-op on empty bytes.
  void FlipBit(std::string* bytes);

  /// Drops a random non-empty suffix (at least one byte); no-op on
  /// empty bytes.
  void Truncate(std::string* bytes);

  /// Uniform in [0, n); 0 when n == 0.
  uint64_t PickIndex(uint64_t n);

 private:
  Rng rng_;
};

/// A registered query: text plus an optional consistency override.
struct ScenarioQuery {
  std::string text;
  std::optional<ConsistencySpec> spec;
};

/// A self-contained workload for the durable service. The feed reuses
/// io::JournalRecord as the call representation and is applied through
/// CedrService::Apply.
struct ServiceScenario {
  std::map<std::string, SchemaPtr> catalog;
  std::vector<ScenarioQuery> queries;
  std::vector<io::JournalRecord> feed;
};

/// Builds feed calls from a message stream of one event type (the
/// workload generators' output format). CTIs become sync points.
std::vector<io::JournalRecord> FeedOf(const std::string& type,
                                      const std::vector<Message>& stream);

/// Merges feeds by arrival (cs) order, stable within ties.
std::vector<io::JournalRecord> MergeFeeds(
    std::vector<std::vector<io::JournalRecord>> feeds);

/// Per-query physical output streams, keyed by query name.
using RunOutputs = std::map<std::string, std::vector<Message>>;

/// A service with the scenario's catalog and queries registered and its
/// first `calls` feed calls applied.
Result<std::unique_ptr<CedrService>> RunPrefix(
    const ServiceScenario& scenario, size_t calls);

/// Every registered query's sink log, keyed by query name.
RunOutputs OutputsOf(const CedrService& service);

/// The whole output a consumer of `resumed` has received, per query: the
/// first N messages of `delivered` (the logs, from position 0, of the run
/// `resumed` was restored or recovered from), then the resumed log, which
/// starts at N = sink().emitted() - messages().size(). kInternal when
/// `delivered` holds fewer than N messages.
Result<RunOutputs> JoinOutputs(const RunOutputs& delivered,
                               const CedrService& resumed);

/// Runs the scenario start to finish on one CedrService.
Result<RunOutputs> RunUninterrupted(const ServiceScenario& scenario);

/// Runs the scenario, crashes after `crash_after` accepted feed calls
/// (keeping only the durable bytes and the output already delivered),
/// recovers, finishes the feed on the recovered service, and joins the
/// delivered output to the recovered output (JoinOutputs).
Result<RunOutputs> RunWithCrash(const ServiceScenario& scenario,
                                size_t crash_after);

/// True when a sync point is among the first `calls` feed calls.
bool SyncPointWithin(const std::vector<io::JournalRecord>& feed,
                     size_t calls);

/// The base index of the journal a crash after `calls` feed calls leaves
/// behind: 0 until a sync point has sealed a snapshot.
Result<uint64_t> JournalBaseAt(const ServiceScenario& scenario,
                               size_t calls);

/// True when the two streams are identical message-for-message (same
/// kinds, events, ids, lifetimes, payloads, arrival stamps). Stronger
/// than logical equivalence: recovery must be invisible.
bool PhysicallyIdentical(const std::vector<Message>& a,
                         const std::vector<Message>& b);
bool PhysicallyIdentical(const RunOutputs& a, const RunOutputs& b);

// ---------------------------------------------------------------------
// Supervised harness: drives a SupervisedService the way a fleet of real
// providers would - per-source sequence numbering, backpressure retries,
// and reconnect-with-replay - all paced over the supervisor's logical
// clock so liveness deadlines and the governor actually fire.

/// One provider-side action in a supervised run.
struct SupervisedCall {
  enum class Action {
    kOffer,      ///< publish `call` (kPublish / kRetract / kSyncPoint)
    kReconnect,  ///< drop the connection, Reconnect(), replay history
  };
  Action action = Action::kOffer;
  std::string source;
  /// Logical tick at which the provider issues the action. The feed must
  /// be sorted by tick (MergeSupervisedFeeds keeps it that way).
  int64_t at_tick = 0;
  io::JournalRecord call;  ///< unused for kReconnect
};

/// A query registered under the supervisor, with an optional budget.
struct SupervisedQuery {
  std::string text;
  std::optional<ConsistencySpec> spec;
  std::optional<QueryBudget> budget;
};

struct SupervisedScenario {
  std::map<std::string, SchemaPtr> catalog;
  std::vector<SupervisedQuery> queries;
  /// source -> event types it owns.
  std::map<std::string, std::vector<std::string>> sources;
  std::vector<SupervisedCall> feed;
  /// Ticks to keep running after the feed and the ingress queue drain
  /// (lets liveness deadlines fire and the governor settle/restore).
  int64_t trailing_ticks = 8;
};

/// Paces a flat feed (testing::FeedOf / MergeFeeds output) for one
/// source: `calls_per_tick` calls per tick starting at `start_tick`.
std::vector<SupervisedCall> PaceFeed(
    const std::string& source, const std::vector<io::JournalRecord>& feed,
    int64_t start_tick = 0, int calls_per_tick = 8);

/// Interleaves supervised feeds by tick, stable within ties.
std::vector<SupervisedCall> MergeSupervisedFeeds(
    std::vector<std::vector<SupervisedCall>> feeds);

/// Everything observable from one supervised run.
struct SupervisedRun {
  RunOutputs outputs;  ///< spliced physical output streams per query
  std::map<std::string, EventList> ideals;  ///< converged logical output
  std::map<std::string, QueryStats> stats;  ///< StatsFor (incl. sheds)
  std::map<std::string, GovernorStatus> governors;
  std::map<std::string, SessionStats> sessions;
  /// Post-mortems of queries still quarantined at the end of the run.
  std::map<std::string, QuarantineReport> quarantines;
  ShedStats shed;
  std::string journal_bytes;
  int64_t ticks = 0;
  size_t max_queue_depth = 0;
  /// Calls re-offered after a kResourceExhausted rejection.
  uint64_t backpressure_retries = 0;
};

/// The supervised harnesses' shared setup: registers the scenario's
/// catalog and queries, then attaches its sources. kInvalidArgument when
/// the feed names a source the scenario does not attach.
Status RegisterScenario(SupervisedService* svc,
                        const SupervisedScenario& scenario);

/// The supervised harnesses' shared teardown: finishes `svc` and fills
/// every SupervisedRun field except `backpressure_retries` (the
/// providers' business) from it.
Status FinishSupervisedRun(SupervisedService* svc,
                           const SupervisedScenario& scenario,
                           SupervisedRun* run);

/// Optional per-tick hook for RunSupervised: called with the service and
/// the upcoming tick number immediately before every Tick() (including
/// the trailing ticks). The chaos harness's injection point.
using TickHook = std::function<Status(SupervisedService*, int64_t)>;

/// Runs the scenario start to finish. Providers assign their own
/// sequence numbers; a call rejected with kResourceExhausted is retried
/// on a later tick with the same sequence number (later calls of that
/// source queue behind it, preserving per-source order); kReconnect
/// replays the provider's history from the returned resume point, which
/// the session layer must absorb idempotently.
Result<SupervisedRun> RunSupervised(const SupervisedScenario& scenario,
                                    SupervisorConfig config = {},
                                    const TickHook& on_tick = {});

// ---------------------------------------------------------------------
// Chaos harness: composable fault schedules injected into a supervised
// run through the supervisor's deterministic fault seams
// (SetQueryFaultHook, ChargeWatchdogCost, ReviveQuery). Everything is
// seeded and virtual-time driven, so every failure reproduces exactly.

/// One injected fault in a chaos schedule.
struct ChaosFault {
  enum class Kind {
    /// Fault hook returns kExecutionError on every routed message: the
    /// "poison event" a bad payload or operator bug would produce.
    kPoisonStatus,
    /// Fault hook throws std::runtime_error: an escaped exception on
    /// the routing path (including pool workers).
    kThrow,
    /// Charges virtual watchdog cost over the tick deadline every tick
    /// for `duration_ticks`: a query that stopped keeping up.
    kSlow,
  };
  Kind kind = Kind::kPoisonStatus;
  /// Index of the targeted query among the supervisor's QueryNames()
  /// (sorted order), modulo the query count.
  size_t query_index = 0;
  /// Tick at which the fault arms.
  int64_t at_tick = 1;
  /// kSlow only: ticks the overload persists.
  int64_t duration_ticks = 8;
  /// When > 0, ReviveQuery this many ticks after the quarantine is
  /// observed (the quarantine-then-recover schedule); 0 = never revive.
  int64_t revive_after_ticks = 0;
};

struct ChaosSchedule {
  uint64_t seed = 0;
  std::vector<ChaosFault> faults;
};

/// Seeded schedule generator: 1..min(2, num_queries) faults with
/// distinct targets, kinds and timing derived from `seed`. Faults arm
/// inside the first quarter of `horizon_ticks` so live traffic is still
/// flowing when they bite.
ChaosSchedule GenerateChaosSchedule(uint64_t seed, size_t num_queries,
                                    int64_t horizon_ticks);

/// What happened to one scheduled fault (index-aligned with
/// ChaosSchedule::faults).
struct ChaosIncident {
  std::string query;
  ChaosFault fault;
  /// Tick the quarantine was observed (report.at_tick); -1 = the fault
  /// never quarantined its target.
  int64_t quarantined_at = -1;
  int64_t time_to_quarantine = -1;
  /// Tick ReviveQuery ran; -1 = not revived.
  int64_t revived_at = -1;
  /// Post-mortem captured at quarantine time (survives revival).
  QuarantineReport report;
};

struct ChaosRun {
  SupervisedRun run;
  std::vector<ChaosIncident> incidents;
};

/// Runs the scenario with the schedule's faults injected. The watchdog
/// is force-enabled (with a wall-clock-proof deadline) when the
/// schedule contains a kSlow fault.
Result<ChaosRun> RunChaos(const SupervisedScenario& scenario,
                          const ChaosSchedule& schedule,
                          SupervisorConfig config = {});

}  // namespace testing
}  // namespace cedr

#endif  // CEDR_TESTING_FAULT_H_
