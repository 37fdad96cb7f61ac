#include "engine/supervisor.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/format.h"
#include "io/serde.h"

namespace cedr {

namespace {

/// Staged routes are flushed at least this often within one drain.
constexpr size_t kMaxRouteBatch = 512;
/// Seed of the shedding policy's victim selection.
constexpr uint64_t kShedSeed = 0xCED5;

/// Sync time of a queued ingress call (vs for inserts, new_ve for
/// retractions, t for sync points).
Time CallSyncTime(const io::JournalRecord& rec) {
  switch (rec.op) {
    case io::JournalOp::kPublish:
      return rec.event.vs;
    case io::JournalOp::kRetract:
      return rec.new_ve;
    case io::JournalOp::kSyncPoint:
      return rec.time;
    default:
      return kMinTime;
  }
}

std::vector<std::string> SplitTypes(const std::string& joined) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= joined.size()) {
    size_t space = joined.find(' ', start);
    if (space == std::string::npos) space = joined.size();
    if (space > start) out.push_back(joined.substr(start, space - start));
    start = space + 1;
  }
  return out;
}

std::string JoinTypes(const std::vector<std::string>& types) {
  std::string out;
  for (const std::string& t : types) {
    if (!out.empty()) out += ' ';
    out += t;
  }
  return out;
}

const char* DisplayTenant(const std::string& tenant) {
  return tenant.empty() ? "<default>" : tenant.c_str();
}

/// The keys of a name-keyed map, ascending.
template <typename Map>
std::vector<std::string> KeysOf(const Map& map) {
  std::vector<std::string> keys;
  keys.reserve(map.size());
  for (const auto& entry : map) keys.push_back(entry.first);
  return keys;
}

/// Degradation ladder of a query requested at `spec`, strongest first.
std::vector<ConsistencySpec> LadderFor(const ConsistencySpec& spec) {
  std::vector<ConsistencySpec> ladder = {spec};
  ConsistencySpec effective = spec.Effective();
  if (effective.max_blocking > 0) {
    // Non-blocking rung at the same memory: optimistic emission with
    // full repair of whatever the requested level remembered.
    ladder.push_back(ConsistencySpec::Custom(0, effective.max_memory));
  }
  if (effective.max_memory == kInfinity) {
    ladder.push_back(ConsistencySpec::Weak(0));
  }
  // Drop rungs equal to their predecessor (e.g. a weak request has a
  // one-rung ladder and is never degraded).
  std::vector<ConsistencySpec> out;
  for (const ConsistencySpec& s : ladder) {
    if (out.empty() || !(out.back() == s)) out.push_back(s);
  }
  return out;
}

}  // namespace

const char* GovernorPhaseToString(GovernorPhase phase) {
  switch (phase) {
    case GovernorPhase::kSteady:
      return "steady";
    case GovernorPhase::kDegraded:
      return "degraded";
    case GovernorPhase::kRestoring:
      return "restoring";
    case GovernorPhase::kQuarantined:
      return "quarantined";
  }
  return "?";
}

SupervisedService::SupervisedService(SupervisorConfig config)
    : config_(config),
      route_pool_(std::make_unique<WorkerPool>(config.routing.route_workers)),
      shed_rng_(kShedSeed) {}

Status SupervisedService::RegisterEventType(const std::string& name,
                                            SchemaPtr schema) {
  if (finished_) return Status::ExecutionError("supervisor already finished");
  CEDR_ASSIGN_OR_RETURN(bool added, ingress_.RegisterType(name, schema));
  if (!added) return Status::OK();
  io::JournalRecord rec;
  rec.op = io::JournalOp::kRegisterType;
  rec.name = name;
  rec.schema = std::move(schema);
  journal_.Append(rec);
  return Status::OK();
}

Result<std::string> SupervisedService::RegisterQuery(
    const std::string& text, std::optional<ConsistencySpec> spec_override,
    std::optional<QueryBudget> budget, const std::string& tenant) {
  if (finished_) return Status::ExecutionError("supervisor already finished");
  // Calls staged before the registration must not reach the new query
  // (only a journal replay ever stages outside a drain).
  FlushStaged();
  TenantState& tenant_state = TenantFor(tenant);
  if (tenant_state.status.queries >= tenant_state.quota.max_queries) {
    ++tenant_state.status.rejected_registration;
    return Status::ResourceExhausted(
        StrCat("tenant '", DisplayTenant(tenant), "' is at its query quota (",
               tenant_state.quota.max_queries, "); retry after ",
               RetryAfterHint(queue_.size()), " ticks"));
  }
  CEDR_ASSIGN_OR_RETURN(
      std::unique_ptr<SwitchableQuery> query,
      SwitchableQuery::Create(text, ingress_.catalog(), spec_override));
  std::string name = query->active().bound().name;
  if (queries_.count(name) > 0) {
    return Status::AlreadyExists(
        StrCat("a query named '", name, "' is already registered"));
  }
  Governed governed;
  governed.status.requested = query->current_spec();
  governed.budget = budget.value_or(QueryBudget());
  governed.tenant = tenant;
  governed.ladder = LadderFor(governed.status.requested);
  governed.query = std::move(query);
  queries_.emplace(name, std::move(governed));
  ++tenant_state.status.queries;

  io::JournalRecord rec;
  rec.op = io::JournalOp::kRegisterQuery;
  rec.name = name;
  rec.text = text;
  rec.has_spec = spec_override.has_value();
  if (rec.has_spec) rec.spec = *spec_override;
  // The otherwise-unused source field carries the tenant, so old
  // journals (empty tenant) replay byte-identically.
  rec.source = tenant;
  journal_.Append(rec);
  return name;
}

Status SupervisedService::AttachSource(
    const std::string& source, const std::vector<std::string>& types,
    const std::string& tenant) {
  if (finished_) return Status::ExecutionError("supervisor already finished");
  if (source.empty() || source == kSupervisorSource) {
    return Status::InvalidArgument("invalid source name");
  }
  TenantState& tenant_state = TenantFor(tenant);
  if (tenant_state.status.sources >= tenant_state.quota.max_sources) {
    ++tenant_state.status.rejected_registration;
    return Status::ResourceExhausted(
        StrCat("tenant '", DisplayTenant(tenant),
               "' is at its source quota (", tenant_state.quota.max_sources,
               "); retry after ", RetryAfterHint(queue_.size()), " ticks"));
  }
  if (sessions_.count(source) > 0) {
    return Status::AlreadyExists(
        StrCat("source '", source, "' is already attached"));
  }
  if (types.empty()) {
    return Status::InvalidArgument(
        StrCat("source '", source, "' must own at least one event type"));
  }
  for (const std::string& type : types) {
    if (ingress_.catalog().count(type) == 0) {
      return Status::NotFound(StrCat("unknown event type '", type, "'"));
    }
    auto owner = type_owner_.find(type);
    if (owner != type_owner_.end()) {
      return Status::AlreadyExists(
          StrCat("event type '", type, "' is already owned by source '",
                 owner->second, "'"));
    }
  }
  for (const std::string& type : types) type_owner_[type] = source;
  sessions_.emplace(source,
                    SourceSession(source, config_.session, types));
  source_tenant_[source] = tenant;
  ++tenant_state.status.sources;

  io::JournalRecord rec;
  rec.op = io::JournalOp::kEpoch;
  rec.name = source;
  rec.seq = 0;
  rec.text = JoinTypes(types);
  // Tenant rides in the otherwise-unused source field (see
  // RegisterQuery).
  rec.source = tenant;
  journal_.Append(rec);
  return Status::OK();
}

Result<SourceSession::ResumePoint> SupervisedService::Reconnect(
    const std::string& source) {
  if (finished_) return Status::ExecutionError("supervisor already finished");
  auto it = sessions_.find(source);
  if (it == sessions_.end()) {
    return Status::NotFound(StrCat("no source named '", source, "'"));
  }
  SourceSession::ResumePoint resume = it->second.Reconnect(now_ticks_);
  io::JournalRecord rec;
  rec.op = io::JournalOp::kEpoch;
  rec.name = source;
  rec.seq = resume.epoch;
  journal_.Append(rec);
  return resume;
}

bool SupervisedService::TryShedOne(const std::string* tenant_filter) {
  // Weak-consistency-repairable messages go first: a dropped provider
  // retraction is exactly the "lost correction" weak consistency is
  // defined to tolerate. Inserts go next (real data loss, recorded).
  // Sync points are never shed - they carry guarantees, and dropping
  // one can wedge strong queries, which is what shedding exists to
  // prevent.
  for (io::JournalOp victim_op :
       {io::JournalOp::kRetract, io::JournalOp::kPublish}) {
    std::vector<size_t> candidates;
    for (size_t i = 0; i < queue_.size(); ++i) {
      if (queue_[i].op != victim_op) continue;
      if (tenant_filter != nullptr &&
          source_tenant_.at(queue_[i].source) != *tenant_filter) {
        continue;
      }
      candidates.push_back(i);
    }
    if (candidates.empty()) continue;
    const io::JournalRecord victim =
        Dequeue(candidates[shed_rng_.NextBounded(candidates.size())]);
    TypeShed& per_type = type_shed_[victim.name];
    if (victim_op == io::JournalOp::kRetract) {
      ++shed_.shed_retractions;
      ++per_type.retractions;
    } else {
      ++shed_.shed_inserts;
      ++per_type.inserts;
    }
    return true;
  }
  return false;
}

io::JournalRecord SupervisedService::Dequeue(size_t index) {
  io::JournalRecord record = std::move(queue_[index]);
  queue_.erase(queue_.begin() + static_cast<ptrdiff_t>(index));
  size_t& queued = TenantFor(source_tenant_.at(record.source)).status.queued;
  if (queued > 0) --queued;
  return record;
}

Status SupervisedService::RejectCall(const std::string& type,
                                     const std::string& reason,
                                     std::optional<size_t> depth) {
  ++shed_.backpressure_rejections;
  ++type_shed_[type].rejected;
  ++reject_backlog_;
  const int64_t hint = depth.has_value() ? RetryAfterHint(*depth) : 1;
  return Status::ResourceExhausted(
      StrCat(reason, "; retry after ", hint, " ticks"));
}

Status SupervisedService::Offer(const Ingress& ingress,
                                io::JournalRecord record) {
  if (finished_) return Status::ExecutionError("supervisor already finished");
  auto session_it = sessions_.find(ingress.source);
  if (session_it == sessions_.end()) {
    return Status::NotFound(
        StrCat("no source named '", ingress.source, "'"));
  }
  SourceSession& session = session_it->second;
  record.source = ingress.source;
  record.seq = ingress.seq;
  CEDR_RETURN_NOT_OK(ingress_.Validate(record));
  auto owner = type_owner_.find(record.name);
  if (owner == type_owner_.end() || owner->second != record.source) {
    return Status::InvalidArgument(
        StrCat("source '", record.source, "' does not own event type '",
               record.name, "'"));
  }

  // Tenant admission, then global backpressure, all before session
  // admission - a rejected call burns no sequence number and the
  // provider can retry it verbatim. Every rejection grows
  // reject_backlog_, so consecutive rejections carry growing retry-after
  // hints even while the queue sits pinned at capacity.
  const std::string& tenant_id = source_tenant_.at(ingress.source);
  TenantState& tenant_state = TenantFor(tenant_id);
  TenantStatus& tenant_status = tenant_state.status;
  if (tenant_state.admitted_this_tick >=
      tenant_state.quota.max_calls_per_tick) {
    ++tenant_status.rejected_rate;
    return RejectCall(record.name,
                      StrCat("tenant '", DisplayTenant(tenant_id),
                             "' is over its ",
                             tenant_state.quota.max_calls_per_tick,
                             " calls/tick quota"),
                      std::nullopt);
  }
  if (tenant_status.queued >= tenant_state.quota.max_queue_share &&
      !TryShedOne(&tenant_id)) {
    ++tenant_status.rejected_queue_share;
    return RejectCall(
        record.name,
        StrCat("tenant '", DisplayTenant(tenant_id),
               "' is over its queue share (", tenant_status.queued, "/",
               tenant_state.quota.max_queue_share, " calls)"),
        tenant_status.queued);
  }
  if (queue_.size() >= config_.ingress.queue_capacity && !TryShedOne()) {
    return RejectCall(record.name,
                      StrCat("ingress queue full (", queue_.size(), "/",
                             config_.ingress.queue_capacity, " calls)"),
                      queue_.size());
  }

  CEDR_ASSIGN_OR_RETURN(bool fresh, session.Admit(ingress.epoch,
                                                  ingress.seq, now_ticks_));
  if (!fresh) return Status::OK();  // replay duplicate, already applied

  // Calls below a synthesized frontier arrive from a source that was
  // declared silent after the supervisor spoke for it: accepting them
  // would falsify the synthesized guarantee, so they are shed and
  // accounted, not applied. A sync point at exactly the frontier is
  // redundant (the frontier already guarantees it) and is shed too.
  if (session.synthesized_frontier() != kMinTime) {
    const Time sync_time = CallSyncTime(record);
    if (sync_time < session.synthesized_frontier() ||
        (record.op == io::JournalOp::kSyncPoint &&
         sync_time <= session.synthesized_frontier())) {
      ++session.mutable_stats()->late_after_synthesis;
      ++shed_.shed_late;
      return Status::OK();
    }
  }

  // The must-advance check runs only after admission: a stale sync point
  // from a silenced source is late traffic, shed above, not a protocol
  // violation.
  if (record.op == io::JournalOp::kSyncPoint) {
    CEDR_RETURN_NOT_OK(IngressCore::CheckSyncAdvance(
        record.name, record.time, last_offered_sync_));
    last_offered_sync_[record.name] = record.time;
  }
  queue_.push_back(std::move(record));
  max_queue_depth_ = std::max(max_queue_depth_, queue_.size());
  ++tenant_state.admitted_this_tick;
  ++tenant_status.admitted;
  ++tenant_status.queued;
  return Status::OK();
}

Status SupervisedService::Publish(const Ingress& ingress,
                                  const std::string& type, Event event) {
  return Offer(ingress, io::PublishCall(type, std::move(event)));
}

Status SupervisedService::PublishRetraction(const Ingress& ingress,
                                            const std::string& type,
                                            const Event& original,
                                            Time new_end) {
  return Offer(ingress, io::RetractCall(type, original, new_end));
}

Status SupervisedService::PublishSyncPoint(const Ingress& ingress,
                                           const std::string& type, Time t) {
  return Offer(ingress, io::SyncCall(type, t));
}

Status SupervisedService::ApplyNow(const io::JournalRecord& record) {
  if (record.op == io::JournalOp::kSyncPoint &&
      !IngressCore::CheckSyncAdvance(record.name, record.time,
                                     ingress_.last_sync())
           .ok()) {
    // Overtaken by a synthesized sync point while queued: the guarantee
    // it carried is already subsumed.
    ++shed_.shed_late;
    return Status::OK();
  }
  CEDR_ASSIGN_OR_RETURN(Message msg, ingress_.Stamp(record));
  journal_.Append(record);
  staged_batch_.emplace_back(record.name, std::move(msg));
  if (staged_batch_.size() >= kMaxRouteBatch) FlushStaged();
  return Status::OK();
}

void SupervisedService::FlushStaged() {
  if (staged_batch_.empty()) return;
  RouteBatch(staged_batch_);
  staged_batch_.clear();
}

void SupervisedService::RouteBatch(std::span<const TypedMessage> batch) {
  // Every query filters the shared batch by its own input types
  // (SwitchableQuery::PushBatch), so the batch is handed to each query
  // verbatim. Parallelism is across queries: one task per query, each
  // plan single-threaded, no shared mutable state between tasks.
  //
  // Each task runs inside its query's fault domain (GuardQuery): a
  // Status failure or a throw quarantines that query after the batch
  // barrier, while its siblings and the process are unaffected (the
  // batch itself always routes OK).
  std::vector<std::pair<const std::string, Governed>*> targets;
  for (auto& entry : queries_) {
    if (entry.second.status.phase == GovernorPhase::kQuarantined) continue;
    targets.push_back(&entry);
  }
  if (targets.empty()) return;
  const bool timed = config_.watchdog.enabled;
  std::vector<Status> statuses(targets.size());
  route_pool_->ParallelFor(targets.size(), [&](size_t i) {
    Governed& g = targets[i]->second;
    statuses[i] = GuardQuery([&] {
      if (!timed) return g.query->PushBatch(batch);
      const auto start = std::chrono::steady_clock::now();
      Status pushed = g.query->PushBatch(batch);
      // Each task writes only its own query's counter, so this is
      // race-free on pool workers.
      g.tick_cost_us +=
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - start)
              .count();
      return pushed;
    });
  });
  for (size_t i = 0; i < statuses.size(); ++i) {
    auto& [name, g] = *targets[i];
    if (!statuses[i].ok()) QuarantineQuery(name, &g, statuses[i], "push");
  }
}

Status SupervisedService::DrainSome(int budget) {
  for (int i = 0; i < budget && !queue_.empty(); ++i) {
    io::JournalRecord record = Dequeue(0);
    // A message can become stale while queued (its source was silenced
    // and the supervisor synthesized past it).
    auto session_it = sessions_.find(record.source);
    if (session_it != sessions_.end() &&
        session_it->second.synthesized_frontier() != kMinTime &&
        CallSyncTime(record) < session_it->second.synthesized_frontier()) {
      ++session_it->second.mutable_stats()->late_after_synthesis;
      ++shed_.shed_late;
      continue;
    }
    Status applied = ApplyNow(record);
    if (applied.code() == StatusCode::kNotFound) {
      // Reference to something shed earlier: drop the call, keep the
      // pump running. The loss is recorded, never silent.
      ++shed_.dropped_invalid;
      ++type_shed_[record.name].retractions;
      continue;
    }
    CEDR_RETURN_NOT_OK(applied);
  }
  // Drain boundary: route everything staged, so liveness and the
  // governor see fully up-to-date queries.
  FlushStaged();
  return Status::OK();
}

Status SupervisedService::SynthesizeFor(SourceSession* session,
                                        Time target) {
  for (const std::string& type : session->types()) {
    io::JournalRecord rec = io::SyncCall(type, target);
    rec.source = kSupervisorSource;
    Result<Message> cti = ingress_.Stamp(rec);
    if (!cti.ok()) continue;  // the type's frontier is already past target
    journal_.Append(rec);
    staged_batch_.emplace_back(type, std::move(cti).ValueOrDie());
    Time& offered = last_offered_sync_[type];
    offered = std::max(offered, target);
    ++shed_.synthesized_syncs;
    ++type_shed_[type].synthesized;
    ++session->mutable_stats()->synthesized_syncs;
  }
  // Routed like a drain's batch.
  FlushStaged();
  return Status::OK();
}

Status SupervisedService::CheckLiveness() {
  // The live frontier: the latest sync point drained on any type
  // (kMinTime before the first).
  Time frontier = kMinTime;
  for (const auto& [type, t] : ingress_.last_sync()) {
    frontier = std::max(frontier, t);
  }
  for (auto& [name, session] : sessions_) {
    const LivenessPolicy policy = session.config().on_silence;
    if (session.DeadlineMissed(now_ticks_)) {
      if (policy == LivenessPolicy::kHold) {
        // Strong semantics: wait as long as it takes. The transition is
        // still recorded so operators can see the stall.
        session.MarkSilent(kMinTime);
        continue;
      }
      if (policy == LivenessPolicy::kQuarantine) {
        session.MarkQuarantined(frontier);
      } else {
        session.MarkSilent(frontier);
      }
      if (frontier != kMinTime) {
        CEDR_RETURN_NOT_OK(SynthesizeFor(&session, frontier));
      }
      continue;
    }
    // A source that stays down must not pin the frontier: as live
    // sources advance, keep re-synthesizing so the silent source's
    // guarantee tracks the live frontier.
    if (policy != LivenessPolicy::kHold &&
        session.state() != SourceState::kLive && frontier != kMinTime &&
        frontier > session.synthesized_frontier()) {
      session.RaiseFrontier(frontier);
      CEDR_RETURN_NOT_OK(SynthesizeFor(&session, frontier));
    }
  }
  return Status::OK();
}

bool SupervisedService::BudgetStreak::Check(const QueryBudget& budget,
                                            size_t footprint, size_t buffer,
                                            Time total_blocking) {
  const Duration blocking_delta =
      std::max<Time>(0, total_blocking - last_total_blocking);
  last_total_blocking = total_blocking;
  const bool violated = budget.Violated(footprint, buffer, blocking_delta);
  over = violated ? over + 1 : 0;
  calm = violated ? 0 : calm + 1;
  return violated;
}

Status SupervisedService::RunGovernor() {
  const GovernorConfig& gov = config_.governor;
  for (auto& [name, g] : queries_) {
    if (g.status.phase == GovernorPhase::kQuarantined) continue;
    if (g.budget.Unlimited() || g.ladder.size() < 2) continue;
    QueryStats stats = g.query->Stats();
    const size_t rung = g.status.rung;
    if (g.streak.Check(g.budget, stats.CurFootprint(), stats.cur_buffer_size,
                       stats.total_blocking)) {
      if (g.streak.over >= gov.degrade_after && rung + 1 < g.ladder.size() &&
          SwitchRung(name, &g, rung + 1)) {
        g.streak.over = 0;
      }
    } else if (g.streak.calm >= gov.restore_after && rung > 0 &&
               // Per-query restores are suppressed while the query's
               // tenant is degraded: the tenant governor restores its
               // queries together.
               !TenantFor(g.tenant).status.degraded &&
               SwitchRung(name, &g, rung - 1)) {
      g.streak.calm = 0;
    }
  }

  // Tenant-level governing: each tenant's aggregate budget is checked
  // against the sum of its live queries' stats. Sustained violation
  // degrades every query of the tenant one rung - independently of
  // other tenants - and sustained calm restores them together.
  for (auto& [tenant_id, ts] : tenants_) {
    if (ts.quota.aggregate.Unlimited() || ts.status.queries == 0) continue;
    std::vector<std::pair<const std::string*, Governed*>> live;
    size_t footprint = 0;
    size_t buffer = 0;
    Time blocking = 0;
    for (auto& [qname, g] : queries_) {
      if (g.tenant != tenant_id) continue;
      if (g.status.phase == GovernorPhase::kQuarantined) continue;
      QueryStats stats = g.query->Stats();
      footprint += stats.CurFootprint();
      buffer += stats.cur_buffer_size;
      blocking += stats.total_blocking;
      live.emplace_back(&qname, &g);
    }
    if (live.empty()) continue;
    bool moved = false;
    if (ts.streak.Check(ts.quota.aggregate, footprint, buffer, blocking)) {
      if (ts.streak.over < gov.degrade_after) continue;
      ts.streak.over = 0;
      for (auto [qname, g] : live) {
        if (g->status.rung + 1 >= g->ladder.size()) continue;
        moved |= SwitchRung(*qname, g, g->status.rung + 1);
      }
      if (moved) {
        if (!ts.status.degraded) ++ts.status.degrades;
        ts.status.degraded = true;
      }
    } else {
      if (!ts.status.degraded) {
        ts.streak.calm = 0;
        continue;
      }
      if (ts.streak.calm < gov.restore_after) continue;
      ts.streak.calm = 0;
      bool fully_restored = true;
      for (auto [qname, g] : live) {
        if (g->status.rung == 0) continue;
        if (!SwitchRung(*qname, g, g->status.rung - 1)) continue;
        moved = true;
        if (g->status.rung > 0) fully_restored = false;
      }
      if (moved) ++ts.status.restores;
      if (fully_restored) ts.status.degraded = false;
    }
  }
  return Status::OK();
}

void SupervisedService::QuarantineQuery(const std::string& name,
                                        Governed* g, const Status& fault,
                                        const char* origin) {
  if (g->status.phase == GovernorPhase::kQuarantined) return;
  QuarantineReport report;
  report.query = name;
  report.fault = fault;
  report.origin = origin;
  report.at_tick = now_ticks_;
  // Best-effort post-mortem: the faulted plan may be too broken to
  // snapshot; the report is filed either way.
  io::BinaryWriter w;
  Status snap =
      GuardQuery([&] { return g->query->active().SnapshotPlan(&w); });
  if (snap.ok()) report.post_mortem = w.Take();
  g->query->CloseWithError(fault);
  g->status.phase = GovernorPhase::kQuarantined;
  quarantine_.insert_or_assign(name, std::move(report));
}

bool SupervisedService::SwitchRung(const std::string& name, Governed* g,
                                   size_t rung) {
  GovernorStatus& status = g->status;
  const bool degrade = rung > status.rung;
  status.rung = rung;
  Status switched = GuardQuery(
      [&] { return g->query->SwitchTo(g->ladder[rung]).status(); });
  if (!switched.ok()) {
    QuarantineQuery(name, g, switched, "switch");
    return false;
  }
  g->streak.last_total_blocking = g->query->Stats().total_blocking;
  if (degrade) {
    ++status.degrades;
    status.phase = GovernorPhase::kDegraded;
  } else {
    ++status.restores;
    status.phase =
        rung == 0 ? GovernorPhase::kSteady : GovernorPhase::kRestoring;
  }
  return true;
}

Status SupervisedService::RunWatchdog() {
  if (!config_.watchdog.enabled) return Status::OK();
  for (auto& [name, g] : queries_) {
    const int64_t cost = std::exchange(g.tick_cost_us, 0);
    if (g.status.phase == GovernorPhase::kQuarantined) continue;
    if (cost <= config_.watchdog.tick_deadline_us) {
      g.slow_streak = 0;
      continue;
    }
    ++g.slow_streak;
    if (g.slow_streak >= config_.watchdog.quarantine_after) {
      QuarantineQuery(
          name, &g,
          Status::ResourceExhausted(StrCat(
              "watchdog: query '", name, "' exceeded its ",
              config_.watchdog.tick_deadline_us, "us tick deadline for ",
              g.slow_streak, " consecutive ticks")),
          "watchdog");
      continue;
    }
    // Force-degrade one rung per over-deadline tick past the threshold;
    // a query that stays slow walks the whole ladder down before the
    // quarantine threshold ends it.
    if (g.slow_streak >= config_.watchdog.degrade_after &&
        g.status.rung + 1 < g.ladder.size() &&
        SwitchRung(name, &g, g.status.rung + 1)) {
      g.streak.over = 0;
      g.streak.calm = 0;
    }
  }
  return Status::OK();
}

SupervisedService::TenantState& SupervisedService::TenantFor(
    const std::string& tenant) {
  auto [it, added] = tenants_.try_emplace(tenant);
  if (added) {
    auto quota = config_.tenants.quotas.find(tenant);
    it->second.quota = quota != config_.tenants.quotas.end()
                           ? quota->second
                           : config_.tenants.default_quota;
    it->second.status.tenant = tenant;
  }
  return it->second;
}

int64_t SupervisedService::RetryAfterHint(size_t depth) const {
  const int64_t drain = std::max(1, config_.ingress.drain_per_tick);
  const int64_t backlog =
      static_cast<int64_t>(depth) + static_cast<int64_t>(reject_backlog_);
  return std::max<int64_t>(1, backlog / drain);
}

int64_t SupervisedService::SuggestedRetryAfterTicks() const {
  return RetryAfterHint(queue_.size());
}

SupervisorSnapshot SupervisedService::StatsSnapshot() const {
  SupervisorSnapshot snap;
  snap.now_ticks = now_ticks_;
  snap.queue_depth = queue_.size();
  snap.max_queue_depth = max_queue_depth_;
  snap.queue_capacity = config_.ingress.queue_capacity;
  snap.retry_after_hint = SuggestedRetryAfterTicks();
  snap.shed = shed_;
  for (const auto& [source, session] : sessions_) {
    snap.sessions.push_back({source, session.state(), session.epoch(),
                             session.next_seq(), session.stats()});
  }
  for (const auto& [tenant, state] : tenants_) {
    snap.tenants.push_back(state.status);
  }
  for (const auto& [name, g] : queries_) {
    snap.queries.push_back({name, g.query->switches(), g.query->barriers(),
                            g.query->barrier_bytes(),
                            g.query->retained_input_size()});
  }
  return snap;
}

std::string FormatSupervisorStats(const SupervisorSnapshot& snap) {
  std::string out = StrCat(
      "supervisor @tick ", snap.now_ticks, ": queue ", snap.queue_depth, "/",
      snap.queue_capacity, " (peak ", snap.max_queue_depth,
      "), retry-after hint ", snap.retry_after_hint, " ticks\n", "  shed: ",
      snap.shed.shed_inserts, " inserts, ", snap.shed.shed_retractions,
      " retractions, ", snap.shed.shed_late, " late, ",
      snap.shed.dropped_invalid, " invalid; ",
      snap.shed.backpressure_rejections, " backpressure rejections, ",
      snap.shed.synthesized_syncs, " synthesized syncs\n");
  for (const SessionSnapshot& s : snap.sessions) {
    out += StrCat("  source '", s.source, "' [",
                  SourceStateToString(s.state), "] epoch ", s.epoch,
                  " next-seq ", s.next_seq, ": ", s.stats.accepted,
                  " accepted, ", s.stats.duplicates, " duplicates, ",
                  s.stats.gaps, " gaps, ", s.stats.out_of_order_rejects,
                  " out-of-order rejects, ", s.stats.stale_epoch_rejects,
                  " stale-epoch rejects, ", s.stats.quarantine_rejects,
                  " quarantine rejects, ", s.stats.reconnects,
                  " reconnects\n");
  }
  for (const TenantStatus& t : snap.tenants) {
    out += StrCat("  tenant '", t.tenant.empty() ? "<default>" : t.tenant,
                  "'", t.degraded ? " [degraded]" : "", ": ", t.queries,
                  " queries, ", t.sources, " sources, ", t.queued,
                  " queued, ", t.admitted, " admitted; rejected: ",
                  t.rejected_queue_share, " queue-share, ", t.rejected_rate,
                  " rate, ", t.rejected_registration, " registration\n");
  }
  for (const QuerySwitchingSnapshot& q : snap.queries) {
    out += StrCat("  query '", q.query, "': ", q.switches, " switches, ",
                  q.barriers, " barriers, barrier ", q.barrier_bytes,
                  " bytes, ", q.retained_input, " retained inputs\n");
  }
  return out;
}

Status SupervisedService::Tick() {
  if (finished_) return Status::ExecutionError("supervisor already finished");
  ++now_ticks_;
  for (auto& [tenant, state] : tenants_) state.admitted_this_tick = 0;
  // One tick works off one drain quantum of rejection backlog, so the
  // retry-after hint decays as the overload clears.
  const uint64_t drain =
      static_cast<uint64_t>(std::max(1, config_.ingress.drain_per_tick));
  reject_backlog_ -= std::min(reject_backlog_, drain);
  CEDR_RETURN_NOT_OK(DrainSome(config_.ingress.drain_per_tick));
  CEDR_RETURN_NOT_OK(CheckLiveness());
  CEDR_RETURN_NOT_OK(RunWatchdog());
  return RunGovernor();
}

Status SupervisedService::Finish() {
  if (finished_) return Status::OK();
  while (!queue_.empty()) {
    CEDR_RETURN_NOT_OK(DrainSome(static_cast<int>(queue_.size())));
  }
  // Recovery replays ApplyNow directly (no DrainSome), so a staged
  // batch can still be pending here.
  FlushStaged();
  // Restore every degraded query to its requested level before the
  // final convergence: the splice repairs the degraded window, so the
  // converged ideal matches an unpressured run wherever nothing was
  // shed.
  // Quarantined queries are skipped throughout: their streams died with
  // their terminal error, they do not converge or end.
  finished_ = true;
  for (auto& [name, g] : queries_) {
    if (g.status.phase == GovernorPhase::kQuarantined) continue;
    if (g.status.rung != 0 && !SwitchRung(name, &g, 0)) continue;
    Status ended = GuardQuery([&] { return g.query->Finish(); });
    if (!ended.ok()) QuarantineQuery(name, &g, ended, "finish");
  }
  io::JournalRecord rec;
  rec.op = io::JournalOp::kFinish;
  journal_.Append(rec);
  return Status::OK();
}

std::vector<std::string> SupervisedService::QueryNames() const {
  return KeysOf(queries_);
}

Result<const SupervisedService::Governed*> SupervisedService::FindQuery(
    const std::string& name) const {
  auto it = queries_.find(name);
  if (it == queries_.end()) {
    return Status::NotFound(StrCat("no query named '", name, "'"));
  }
  return &it->second;
}

Result<SupervisedService::Governed*> SupervisedService::FindQuery(
    const std::string& name) {
  CEDR_ASSIGN_OR_RETURN(const Governed* g,
                        std::as_const(*this).FindQuery(name));
  return const_cast<Governed*>(g);
}

Result<const SwitchableQuery*> SupervisedService::GetQuery(
    const std::string& name) const {
  CEDR_ASSIGN_OR_RETURN(const Governed* g, FindQuery(name));
  return static_cast<const SwitchableQuery*>(g->query.get());
}

Result<GovernorStatus> SupervisedService::GovernorOf(
    const std::string& name) const {
  CEDR_ASSIGN_OR_RETURN(const Governed* g, FindQuery(name));
  GovernorStatus status = g->status;
  status.current = g->query->current_spec();
  return status;
}

Result<const SourceSession*> SupervisedService::Session(
    const std::string& source) const {
  auto it = sessions_.find(source);
  if (it == sessions_.end()) {
    return Status::NotFound(StrCat("no source named '", source, "'"));
  }
  return static_cast<const SourceSession*>(&it->second);
}

Result<QueryStats> SupervisedService::StatsFor(
    const std::string& name) const {
  CEDR_ASSIGN_OR_RETURN(const Governed* g, FindQuery(name));
  QueryStats stats = g->query->Stats();
  for (const std::string& type : g->query->active().InputTypes()) {
    auto shed = type_shed_.find(type);
    if (shed == type_shed_.end()) continue;
    stats.shed_inserts += shed->second.inserts;
    stats.shed_retractions += shed->second.retractions;
    stats.rejected_backpressure += shed->second.rejected;
    stats.synthesized_ctis += shed->second.synthesized;
  }
  return stats;
}

Result<QuarantineReport> SupervisedService::QuarantineOf(
    const std::string& name) const {
  auto it = quarantine_.find(name);
  if (it == quarantine_.end()) {
    return Status::NotFound(
        StrCat("query '", name, "' is not quarantined"));
  }
  return it->second;
}

std::vector<std::string> SupervisedService::QuarantinedQueries() const {
  return KeysOf(quarantine_);
}

Status SupervisedService::SetQueryFaultHook(const std::string& name,
                                            CompiledQuery::FaultHook hook) {
  CEDR_ASSIGN_OR_RETURN(Governed* g, FindQuery(name));
  g->query->set_fault_hook(std::move(hook));
  return Status::OK();
}

Status SupervisedService::ChargeWatchdogCost(const std::string& name,
                                             int64_t us) {
  CEDR_ASSIGN_OR_RETURN(Governed* g, FindQuery(name));
  g->tick_cost_us += std::max<int64_t>(0, us);
  return Status::OK();
}

std::vector<std::string> SupervisedService::TenantNames() const {
  return KeysOf(tenants_);
}

Result<TenantStatus> SupervisedService::TenantOf(
    const std::string& tenant) const {
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) {
    return Status::NotFound(
        StrCat("no tenant named '", DisplayTenant(tenant), "'"));
  }
  return it->second.status;
}

Status SupervisedService::ReviveQuery(const std::string& name) {
  if (finished_) return Status::ExecutionError("supervisor already finished");
  CEDR_ASSIGN_OR_RETURN(Governed* g, FindQuery(name));
  if (g->status.phase != GovernorPhase::kQuarantined) {
    return Status::InvalidArgument(
        StrCat("query '", name, "' is not quarantined"));
  }
  // Rebuild through the one replay there is: a Recover replica of the
  // journal, whose clean copy of the query (at its requested level: a
  // replay never governs) the query adopts. Journal order is
  // arrival-stamp order, so the replica reproduces the exact stamps of
  // the live run and the revived query - state and all future output -
  // is bit-identical to one that never faulted.
  CEDR_ASSIGN_OR_RETURN(std::unique_ptr<SupervisedService> replica,
                        Recover(journal_.bytes(), config_));
  CEDR_ASSIGN_OR_RETURN(Governed* fresh, replica->FindQuery(name));
  if (fresh->status.phase == GovernorPhase::kQuarantined) {
    return replica->quarantine_.at(name).fault;
  }
  g->query = std::move(fresh->query);
  g->status.phase = GovernorPhase::kSteady;
  g->status.rung = 0;
  g->streak = BudgetStreak{0, 0, g->query->Stats().total_blocking};
  g->slow_streak = 0;
  g->tick_cost_us = 0;
  quarantine_.erase(name);
  return Status::OK();
}

Result<std::unique_ptr<SupervisedService>> SupervisedService::Recover(
    const std::string& journal_bytes, SupervisorConfig config) {
  CEDR_ASSIGN_OR_RETURN(io::JournalContents journal,
                        io::ReadJournal(journal_bytes));
  if (journal.base_index != 0) {
    return Status::DataLoss(
        StrCat("supervisor journal starts at record ", journal.base_index,
               "; journal-only recovery needs the full history"));
  }
  auto svc = std::make_unique<SupervisedService>(config);
  uint64_t index = 0;
  for (const io::JournalRecord& record : journal.records) {
    Status applied = Status::OK();
    switch (record.op) {
      case io::JournalOp::kRegisterType:
        applied = svc->RegisterEventType(record.name, record.schema);
        break;
      case io::JournalOp::kRegisterQuery: {
        std::optional<ConsistencySpec> spec;
        if (record.has_spec) spec = record.spec;
        // The tenant rides in the otherwise-unused source field (empty
        // on pre-tenant journals = the anonymous default tenant).
        applied = svc->RegisterQuery(record.text, spec, std::nullopt,
                                     record.source)
                      .status();
        break;
      }
      case io::JournalOp::kEpoch:
        if (record.seq == 0) {
          applied = svc->AttachSource(record.name, SplitTypes(record.text),
                                      record.source);
        } else {
          auto it = svc->sessions_.find(record.name);
          if (it == svc->sessions_.end()) {
            applied = Status::Corruption(
                StrCat("epoch record for unattached source '", record.name,
                       "'"));
          } else {
            it->second.RestoreProgress(record.seq, it->second.next_seq());
            // Route the calls staged before it first, as the live run
            // did before its Reconnect, and journal it like Reconnect.
            svc->FlushStaged();
            svc->journal_.Append(record);
          }
        }
        break;
      case io::JournalOp::kPublish:
      case io::JournalOp::kRetract:
      case io::JournalOp::kSyncPoint: {
        // Journaled calls were accepted and routed before the crash;
        // re-route them directly (no queue, no liveness - history, not
        // live traffic) and advance the owning session's progress.
        applied = svc->ApplyNow(record);
        if (applied.ok() && record.source != kSupervisorSource &&
            !record.source.empty()) {
          auto it = svc->sessions_.find(record.source);
          if (it != svc->sessions_.end()) {
            it->second.RestoreProgress(it->second.epoch(), record.seq + 1);
          }
        }
        break;
      }
      case io::JournalOp::kFinish:
        applied = svc->Finish();
        break;
      default:
        applied = Status::Corruption("journal record has an unknown op");
        break;
    }
    if (!applied.ok()) {
      return Status::Corruption(
          StrCat("supervisor journal record ", index,
                 " no longer replays: ", applied.ToString()));
    }
    ++index;
  }
  // Replay stages routes like a live drain does; flush the tail batch.
  svc->FlushStaged();
  return svc;
}

}  // namespace cedr
