// SupervisedService: the live-operation robustness layer around the
// CEDR engine. The paper's stream model assumes providers that can
// stall, lag, or die, and its Section 5 future work asks for
// consistency-sensitive optimization that switches levels under load.
// The supervisor provides both:
//
//   * a per-source session layer (engine/session.h): sequence-checked,
//     epoch-fenced ingress with reconnect-and-replay driven by the
//     journal's epoch records;
//   * liveness tracking against a logical clock: a source that misses
//     its heartbeat deadline is declared silent and the configured
//     policy runs (synthesize a sync point at the live frontier / hold /
//     quarantine), so strong and middle queries stop stalling forever on
//     one dead provider;
//   * bounded ingress: a fixed-capacity queue drained at a fixed rate
//     per tick. When the queue is full, a seeded shedding policy drops
//     weak-consistency-repairable messages first (provider retractions,
//     then inserts; never sync points); if nothing is sheddable the call
//     is rejected with kResourceExhausted and a retry-after hint. Every
//     shed and rejection is recorded in QueryStats;
//   * a closed-loop governor: per-query budgets (consistency/budget.h)
//     are checked against QueryStats every tick, and sustained violation
//     degrades the query strong -> middle -> weak through
//     SwitchableQuery::SwitchTo (splicing at common sync points);
//     sustained calm restores the requested level rung by rung.
//     Retraction-based repair covers the degraded window, so the
//     converged output equals an unpressured run wherever no messages
//     were shed.
//
// Fault domains (see DESIGN.md, "Fault domains & admission control"):
//
//   * every query runs inside an error barrier. A query whose push
//     fails — by Status or by throwing — is *quarantined*: its state is
//     snapshotted for post-mortem, its sink closed with the terminal
//     error, and it is excluded from routing; the process and every
//     other query are unaffected. ReviveQuery rebuilds a quarantined
//     query from a Recover replica of the journal (journal order is
//     arrival-stamp order, so the replayed state is bit-identical to a
//     never-faulted run);
//   * a watchdog gives each query a per-tick routing deadline: a query
//     over its deadline for N consecutive ticks is force-degraded down
//     the governor ladder, and past a second threshold quarantined
//     (phase kQuarantined);
//   * per-tenant admission control: sessions and queries are grouped
//     under tenant ids, each tenant holding quotas on registered
//     queries/sources, share of the ingress queue, and admitted calls
//     per tick. Over-quota calls are rejected with kResourceExhausted
//     and a retry-after hint proportional to the current overload, and
//     the governor degrades/restores tenants independently via
//     per-tenant aggregate budgets.
//
// Every accepted ingress call and every epoch boundary is journaled, so
// Recover() rebuilds the supervisor - sessions, fencing state, queries,
// and routed history - from the journal alone.
#ifndef CEDR_ENGINE_SUPERVISOR_H_
#define CEDR_ENGINE_SUPERVISOR_H_

#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "consistency/budget.h"
#include "engine/ingress.h"
#include "engine/session.h"
#include "engine/switching.h"
#include "engine/worker_pool.h"
#include "io/journal.h"

namespace cedr {

/// The `source` tag journaled on supervisor-synthesized calls.
inline constexpr char kSupervisorSource[] = "@supervisor";

struct IngressConfig {
  /// Maximum queued ingress calls across all sources.
  size_t queue_capacity = 256;
  /// Queued calls applied per Tick. Overload = offered rate above this.
  int drain_per_tick = 32;
};

/// Hysteresis of the governor, which checks every budgeted query (and
/// every tenant aggregate budget) once per tick. A query registered
/// without a budget - and every query re-registered by Recover, since
/// budgets are configuration, not journaled history - is unlimited and
/// never governed. The ladder bottoms out at Weak(0).
struct GovernorConfig {
  /// Consecutive over-budget checks before stepping down one rung.
  int degrade_after = 2;
  /// Consecutive in-budget checks before stepping back up one rung.
  int restore_after = 4;
};

struct WatchdogConfig {
  bool enabled = false;
  /// Per-query routing budget per tick, in microseconds: wall time spent
  /// pushing batches into the query plus any virtually charged cost
  /// (ChargeWatchdogCost, the deterministic chaos-testing seam).
  int64_t tick_deadline_us = 50'000;
  /// Consecutive over-deadline ticks before the governor force-degrades
  /// the query one rung (and keeps stepping down while it stays over).
  int degrade_after = 2;
  /// Consecutive over-deadline ticks before the query is quarantined.
  int quarantine_after = 4;
};

/// Per-tenant resource quotas. A tenant with no explicit quota gets
/// `TenantPolicy::default_quota` (unbounded unless configured).
struct TenantQuota {
  static constexpr size_t kUnboundedSize =
      std::numeric_limits<size_t>::max();
  static constexpr uint64_t kUnboundedCount =
      std::numeric_limits<uint64_t>::max();

  /// Standing queries the tenant may register.
  size_t max_queries = kUnboundedSize;
  /// Sources the tenant may attach.
  size_t max_sources = kUnboundedSize;
  /// Ingress calls the tenant may hold in the shared bounded queue.
  size_t max_queue_share = kUnboundedSize;
  /// Ingress calls the tenant may have admitted per tick.
  uint64_t max_calls_per_tick = kUnboundedCount;
  /// Aggregate budget over all the tenant's queries: sustained violation
  /// degrades every query of the tenant one rung (independently of other
  /// tenants); sustained calm restores them. Unlimited() disables
  /// tenant-level governing.
  QueryBudget aggregate;
};

struct TenantPolicy {
  /// Explicit per-tenant quotas, keyed by tenant id.
  std::map<std::string, TenantQuota> quotas;
  /// Quota of tenants without an explicit entry (including the anonymous
  /// default tenant "").
  TenantQuota default_quota;
};

struct RoutingConfig {
  /// Total workers (including the draining thread) fanning each drained
  /// ingress batch across the registered queries; 1 routes serially on
  /// the draining thread. Parallelism is across queries - each query's
  /// plan stays single-threaded and receives the identical
  /// arrival-ordered batch, so output is bit-identical for every worker
  /// count (see DESIGN.md, "Parallel execution & batching"). Staged
  /// routes are flushed at least every 512 calls within one drain (a cap
  /// on route-batch memory, not a semantic boundary).
  int route_workers = 1;
};

struct SupervisorConfig {
  SessionConfig session;
  IngressConfig ingress;
  GovernorConfig governor;
  RoutingConfig routing;
  WatchdogConfig watchdog;
  TenantPolicy tenants;
};

/// Supervisor-wide ingress accounting.
struct ShedStats {
  uint64_t shed_inserts = 0;      // load shedding: queue was full
  uint64_t shed_retractions = 0;  // load shedding (repairable first)
  uint64_t shed_late = 0;         // below a synthesized sync frontier
  uint64_t dropped_invalid = 0;   // failed at drain (e.g. retraction of
                                  // a shed insert)
  uint64_t backpressure_rejections = 0;
  uint64_t synthesized_syncs = 0;

  uint64_t TotalShed() const {
    return shed_inserts + shed_retractions + shed_late + dropped_invalid;
  }
};

enum class GovernorPhase { kSteady, kDegraded, kRestoring, kQuarantined };

const char* GovernorPhaseToString(GovernorPhase phase);

struct GovernorStatus {
  ConsistencySpec requested;
  ConsistencySpec current;
  GovernorPhase phase = GovernorPhase::kSteady;
  /// Position on the degradation ladder (0 = requested level).
  size_t rung = 0;
  uint64_t degrades = 0;
  uint64_t restores = 0;
};

/// Post-mortem of a quarantined query.
struct QuarantineReport {
  std::string query;
  /// The fault that killed it (also the sink's terminal status).
  Status fault;
  /// Where the barrier caught it: "push", "watchdog", "switch", or
  /// "finish".
  std::string origin;
  /// Logical tick of the quarantine.
  int64_t at_tick = 0;
  /// CompiledQuery::SnapshotPlan of the plan state at the fault, for
  /// offline inspection; it does not grow with the output. Empty when the
  /// faulted plan could not be snapshotted.
  std::string post_mortem;
};

/// Observable per-tenant accounting.
struct TenantStatus {
  std::string tenant;
  size_t queries = 0;
  size_t sources = 0;
  /// Ingress calls currently queued for this tenant.
  size_t queued = 0;
  uint64_t admitted = 0;
  uint64_t rejected_queue_share = 0;
  uint64_t rejected_rate = 0;
  uint64_t rejected_registration = 0;
  /// Tenant-level governor state (aggregate-budget driven).
  bool degraded = false;
  uint64_t degrades = 0;
  uint64_t restores = 0;
};

/// One source's delivery picture inside a SupervisorSnapshot.
struct SessionSnapshot {
  std::string source;
  SourceState state = SourceState::kLive;
  uint64_t epoch = 0;
  uint64_t next_seq = 0;
  SessionStats stats;
};

/// One query's consistency-switching state inside a SupervisorSnapshot:
/// what its level switches have cost and what a next one would replay.
struct QuerySwitchingSnapshot {
  std::string query;
  int switches = 0;
  /// SwitchableQuery::barriers(), barrier_bytes() and
  /// retained_input_size().
  uint64_t barriers = 0;
  size_t barrier_bytes = 0;
  size_t retained_input = 0;
};

/// Point-in-time observable state of the whole supervisor: per-session
/// delivery counters (duplicates, gaps, out-of-order and stale-epoch
/// rejects), per-tenant rejection accounting, shed totals, ingress
/// queue occupancy, the retry-after hint the next rejection would
/// carry, and per-query switching cost. The operational dashboard
/// behind the netchaos bench and the README runbook.
struct SupervisorSnapshot {
  int64_t now_ticks = 0;
  size_t queue_depth = 0;
  size_t max_queue_depth = 0;
  size_t queue_capacity = 0;
  int64_t retry_after_hint = 0;
  ShedStats shed;
  std::vector<SessionSnapshot> sessions;  ///< ascending source name
  std::vector<TenantStatus> tenants;      ///< ascending tenant id
  std::vector<QuerySwitchingSnapshot> queries;  ///< ascending query name
};

/// Human-readable dump of a snapshot (QueryStats::ToString's sibling).
std::string FormatSupervisorStats(const SupervisorSnapshot& snapshot);

class SupervisedService {
 public:
  /// Session coordinates every ingress call must carry: which source it
  /// came from, the epoch the provider believes it is in (from
  /// AttachSource / Reconnect), and the per-source sequence number.
  struct Ingress {
    std::string source;
    uint64_t epoch = 0;
    uint64_t seq = 0;
  };

  explicit SupervisedService(SupervisorConfig config = {});

  Status RegisterEventType(const std::string& name, SchemaPtr schema);

  /// Registers a governed standing query under `tenant` ("" = the
  /// anonymous default tenant). `spec_override` replaces the query's own
  /// CONSISTENCY clause, as in CompiledQuery::Compile. Without a budget
  /// the query is never governed. Rejected with kResourceExhausted when
  /// the tenant is at its query quota.
  Result<std::string> RegisterQuery(
      const std::string& text,
      std::optional<ConsistencySpec> spec_override = std::nullopt,
      std::optional<QueryBudget> budget = std::nullopt,
      const std::string& tenant = {});

  /// Creates a session for `source` owning `types` (each event type has
  /// exactly one publishing source), grouped under `tenant`. Journaled
  /// as an epoch-0 record. Rejected with kResourceExhausted when the
  /// tenant is at its source quota.
  Status AttachSource(const std::string& source,
                      const std::vector<std::string>& types,
                      const std::string& tenant = {});

  /// Declares a provider reconnect: bumps the source's epoch (fencing
  /// stale calls), revives a silent/quarantined source, and returns the
  /// resume point for provider-side replay. Journaled.
  Result<SourceSession::ResumePoint> Reconnect(const std::string& source);

  // Ingress. Accepted calls enter the bounded queue and are applied by
  // Tick(); kResourceExhausted (with a retry-after hint in the message)
  // means back off - the call consumed no sequence number and may be
  // retried verbatim.
  Status Publish(const Ingress& ingress, const std::string& type,
                 Event event);
  Status PublishRetraction(const Ingress& ingress, const std::string& type,
                           const Event& original, Time new_end);
  Status PublishSyncPoint(const Ingress& ingress, const std::string& type,
                          Time t);

  /// Advances the logical clock one tick: drains up to
  /// `ingress.drain_per_tick` queued calls, runs the liveness scan
  /// (deadline misses trigger the configured policy), and runs the
  /// governor.
  Status Tick();

  /// Drains everything still queued, restores every degraded query to
  /// its requested level (splicing repairs the degraded window), and
  /// finishes all queries.
  Status Finish();

  int64_t now_ticks() const { return now_ticks_; }
  size_t queue_depth() const { return queue_.size(); }
  /// High-water mark of the ingress queue; never exceeds the capacity.
  size_t max_queue_depth() const { return max_queue_depth_; }
  const ShedStats& shed() const { return shed_; }
  const io::JournalWriter& journal() const { return journal_; }
  const SupervisorConfig& config() const { return config_; }

  std::vector<std::string> QueryNames() const;
  Result<const SwitchableQuery*> GetQuery(const std::string& name) const;
  Result<GovernorStatus> GovernorOf(const std::string& name) const;
  Result<const SourceSession*> Session(const std::string& source) const;

  // Fault domains.

  /// Post-mortem of a quarantined query (kNotFound while the query is
  /// live or unknown).
  Result<QuarantineReport> QuarantineOf(const std::string& name) const;
  /// Names of currently quarantined queries, ascending.
  std::vector<std::string> QuarantinedQueries() const;
  /// Rebuilds a quarantined query at its requested level: Recover builds
  /// a replica from the journal and the query adopts the replica's plan
  /// (journal order is arrival-stamp order, so the revived state — and
  /// all future output — is bit-identical to a never-faulted run), then
  /// returns to routing at phase kSteady. The replay costs a Recover of
  /// every query. kInvalidArgument when the query is not quarantined; the
  /// replica's fault when the query faults again during the replay (it
  /// stays quarantined).
  Status ReviveQuery(const std::string& name);
  /// Testing/chaos seam: installs a hook invoked on every message pushed
  /// into the query, before the plan sees it. A non-OK return or a throw
  /// trips the error barrier and quarantines the query. nullptr clears.
  Status SetQueryFaultHook(const std::string& name,
                           CompiledQuery::FaultHook hook);
  /// Testing/chaos seam: charges `us` microseconds of virtual routing
  /// cost to the query's current tick, so watchdog behavior is
  /// deterministic without real sleeps.
  Status ChargeWatchdogCost(const std::string& name, int64_t us);

  // Tenants.

  std::vector<std::string> TenantNames() const;
  Result<TenantStatus> TenantOf(const std::string& tenant) const;
  /// The retry-after hint (ticks) the next global-backpressure rejection
  /// would carry: proportional to queue depth plus the decaying
  /// recent-rejection backlog.
  int64_t SuggestedRetryAfterTicks() const;

  /// Point-in-time snapshot of sessions, tenants, shed totals, and queue
  /// occupancy (see SupervisorSnapshot).
  SupervisorSnapshot StatsSnapshot() const;

  /// The query's plan statistics merged with the supervisor's ingress
  /// accounting for its input types (sheds, rejections, synthesized
  /// sync points) - the complete cost/fidelity picture for one query.
  Result<QueryStats> StatsFor(const std::string& name) const;

  /// Rebuilds a supervisor from its journal: re-registers catalog and
  /// queries, replays epoch records into session fencing state, and
  /// re-routes every journaled ingress call. Budgets and policies come
  /// from `config` (configuration is not history). The logical clock
  /// restarts at zero with every surviving source considered live.
  static Result<std::unique_ptr<SupervisedService>> Recover(
      const std::string& journal_bytes, SupervisorConfig config = {});

 private:
  /// Hysteresis state of one budget (a query's own, or a tenant's
  /// aggregate): consecutive over- and in-budget checks, and the total
  /// blocking the next check's delta is measured from.
  struct BudgetStreak {
    int over = 0;
    int calm = 0;
    Time last_total_blocking = 0;
    /// Checks `budget` against the current footprint and buffer and the
    /// blocking accrued since the last check; extends the matching streak
    /// and resets the other. True when the budget is violated.
    bool Check(const QueryBudget& budget, size_t footprint, size_t buffer,
               Time total_blocking);
  };

  struct Governed {
    std::unique_ptr<SwitchableQuery> query;
    QueryBudget budget;
    std::string tenant;
    /// Degradation ladder, strongest first; ladder[0] == requested.
    std::vector<ConsistencySpec> ladder;
    /// Everything GovernorOf reports except `current`, which is read off
    /// the query.
    GovernorStatus status;
    BudgetStreak streak;
    /// Watchdog: consecutive over-deadline ticks.
    int slow_streak = 0;
    /// Watchdog: routing cost charged this tick, microseconds (wall time
    /// plus virtual charges); reset by the watchdog every tick.
    int64_t tick_cost_us = 0;
  };

  /// Per-tenant admission and governor state.
  struct TenantState {
    TenantQuota quota;
    uint64_t admitted_this_tick = 0;
    BudgetStreak streak;
    /// What TenantOf reports.
    TenantStatus status;
  };

  /// Per-event-type ingress accounting (for StatsFor attribution).
  struct TypeShed {
    uint64_t inserts = 0;
    uint64_t retractions = 0;
    uint64_t rejected = 0;
    uint64_t synthesized = 0;
  };

  /// The query named `name`; kNotFound when there is none.
  Result<const Governed*> FindQuery(const std::string& name) const;
  Result<Governed*> FindQuery(const std::string& name);
  /// Shared admission path: static validation, source ownership,
  /// backpressure/shedding, session admission, then enqueue.
  Status Offer(const Ingress& ingress, io::JournalRecord record);
  /// Counts one backpressure rejection of a call of `type` and returns
  /// kResourceExhausted: `reason`, then a retry-after hint for a backlog
  /// of `depth` calls (1 tick without a depth), taken after the count.
  Status RejectCall(const std::string& type, const std::string& reason,
                    std::optional<size_t> depth);
  /// Removes queued call `index` and returns it, releasing its tenant's
  /// queue share.
  io::JournalRecord Dequeue(size_t index);
  /// Applies one accepted call: sheds a sync point overtaken while
  /// queued, stamps through the ingress core (whose reference check
  /// fails with kNotFound), journals the call, then *stages* the message
  /// for routing. Staged messages are routed by FlushStaged, called at
  /// every drain boundary, after synthesized sync points, before a query
  /// registers, and whenever 512 are staged.
  Status ApplyNow(const io::JournalRecord& record);
  /// Routes the staged batch across every query.
  void FlushStaged();
  /// Fans the batch out over the routing pool, one guarded task per live
  /// query; a task that fails or throws quarantines its query, so the
  /// batch itself always routes.
  void RouteBatch(std::span<const TypedMessage> batch);
  /// Sheds one queued message (retractions first, then inserts; choice
  /// among candidates seeded with a fixed seed, so runs reproduce). With `tenant_filter` only that tenant's
  /// queued calls are candidates (a tenant over its queue share sheds
  /// its own repairable traffic, never a neighbor's). False when nothing
  /// is sheddable.
  bool TryShedOne(const std::string* tenant_filter = nullptr);
  Status DrainSome(int budget);
  Status CheckLiveness();
  /// Seals a faulting query: snapshots its state into a
  /// QuarantineReport, closes its sink with the fault, and excludes it
  /// from routing and governing (phase kQuarantined). Idempotent.
  void QuarantineQuery(const std::string& name, Governed* g,
                       const Status& fault, const char* origin);
  /// Moves a governed query to ladder rung `rung` through a guarded
  /// SwitchTo, restarts its blocking baseline from the new plan, and
  /// records the step: down counts a degrade (phase kDegraded), up
  /// counts a restore (phase kRestoring, or kSteady at rung 0). A failed
  /// switch quarantines the query and returns false.
  bool SwitchRung(const std::string& name, Governed* g, size_t rung);
  /// Per-tick deadline enforcement (no-op unless watchdog.enabled).
  Status RunWatchdog();
  /// Finds-or-creates the tenant's state, quota from config.
  TenantState& TenantFor(const std::string& tenant);
  /// Retry-after hint proportional to `depth` plus the rejection
  /// backlog, in drain-rate units; always >= 1.
  int64_t RetryAfterHint(size_t depth) const;
  /// Synthesizes sync points at `target` for every type the source
  /// owns, journaled under kSupervisorSource.
  Status SynthesizeFor(SourceSession* session, Time target);
  Status RunGovernor();

  SupervisorConfig config_;
  /// Catalog, published ids, drained sync points and the cs clock.
  IngressCore ingress_;
  std::map<std::string, SourceSession> sessions_;
  std::map<std::string, std::string> type_owner_;  // type -> source
  std::map<std::string, Governed> queries_;
  std::deque<io::JournalRecord> queue_;
  /// Applied-but-not-yet-routed messages; nonempty only inside a drain.
  std::vector<TypedMessage> staged_batch_;
  /// Routing pool of `routing.route_workers` (size 1 runs inline).
  std::unique_ptr<WorkerPool> route_pool_;
  io::JournalWriter journal_;
  Rng shed_rng_;
  std::map<std::string, Time> last_offered_sync_;  // admission-level
  std::map<std::string, TypeShed> type_shed_;
  ShedStats shed_;
  /// Post-mortems of quarantined queries, keyed by query name; erased on
  /// ReviveQuery.
  std::map<std::string, QuarantineReport> quarantine_;
  std::map<std::string, TenantState> tenants_;
  /// source -> tenant, for every attached source.
  std::map<std::string, std::string> source_tenant_;
  /// Overload estimate behind the retry-after hint: bumped per
  /// rejection, decayed by the drain rate every tick. Makes consecutive
  /// rejections carry growing hints even while the queue sits pinned at
  /// capacity.
  uint64_t reject_backlog_ = 0;
  size_t max_queue_depth_ = 0;
  int64_t now_ticks_ = 0;
  bool finished_ = false;
};

}  // namespace cedr

#endif  // CEDR_ENGINE_SUPERVISOR_H_
