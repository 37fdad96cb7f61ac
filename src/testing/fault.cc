#include "testing/fault.h"

#include <algorithm>
#include <deque>
#include <stdexcept>

#include "common/format.h"

namespace cedr {
namespace testing {

void FaultInjector::FlipBit(std::string* bytes) {
  if (bytes->empty()) return;
  uint64_t byte = rng_.NextBounded(bytes->size());
  int bit = static_cast<int>(rng_.NextBounded(8));
  (*bytes)[byte] = static_cast<char>((*bytes)[byte] ^ (1 << bit));
}

void FaultInjector::Truncate(std::string* bytes) {
  if (bytes->empty()) return;
  uint64_t keep = rng_.NextBounded(bytes->size());  // < size: drops >= 1
  bytes->resize(keep);
}

uint64_t FaultInjector::PickIndex(uint64_t n) {
  return n == 0 ? 0 : rng_.NextBounded(n);
}

std::vector<io::JournalRecord> FeedOf(const std::string& type,
                                      const std::vector<Message>& stream) {
  std::vector<io::JournalRecord> feed;
  feed.reserve(stream.size());
  for (const Message& m : stream) {
    io::JournalRecord rec;
    switch (m.kind) {
      case MessageKind::kInsert:
        rec = io::PublishCall(type, m.event);
        break;
      case MessageKind::kRetract:
        rec = io::RetractCall(type, m.event, m.new_ve);
        break;
      case MessageKind::kCti:
        rec = io::SyncCall(type, m.time);
        break;
    }
    // Keep the stream's arrival stamp for merge ordering; the service
    // restamps on publish.
    rec.event.cs = m.cs;
    feed.push_back(std::move(rec));
  }
  return feed;
}

std::vector<io::JournalRecord> MergeFeeds(
    std::vector<std::vector<io::JournalRecord>> feeds) {
  struct Tagged {
    io::JournalRecord rec;
    Time at;
    size_t source;
    size_t pos;
  };
  std::vector<Tagged> all;
  for (size_t s = 0; s < feeds.size(); ++s) {
    for (size_t i = 0; i < feeds[s].size(); ++i) {
      Time at = feeds[s][i].op == io::JournalOp::kSyncPoint
                    ? feeds[s][i].time
                    : feeds[s][i].event.cs;
      all.push_back(Tagged{std::move(feeds[s][i]), at, s, i});
    }
  }
  std::stable_sort(all.begin(), all.end(), [](const Tagged& a,
                                              const Tagged& b) {
    if (a.at != b.at) return a.at < b.at;
    if (a.source != b.source) return a.source < b.source;
    return a.pos < b.pos;
  });
  std::vector<io::JournalRecord> merged;
  merged.reserve(all.size());
  for (Tagged& t : all) merged.push_back(std::move(t.rec));
  return merged;
}

Result<std::unique_ptr<CedrService>> RunPrefix(
    const ServiceScenario& scenario, size_t calls) {
  auto service = std::make_unique<CedrService>();
  for (const auto& [name, schema] : scenario.catalog) {
    CEDR_RETURN_NOT_OK(service->RegisterEventType(name, schema));
  }
  for (const ScenarioQuery& q : scenario.queries) {
    CEDR_RETURN_NOT_OK(service->RegisterQuery(q.text, q.spec).status());
  }
  for (size_t i = 0; i < calls && i < scenario.feed.size(); ++i) {
    CEDR_RETURN_NOT_OK(service->Apply(scenario.feed[i]));
  }
  return service;
}

RunOutputs OutputsOf(const CedrService& service) {
  RunOutputs outputs;
  for (const std::string& name : service.QueryNames()) {
    outputs[name] =
        service.GetQuery(name).ValueOrDie()->sink().messages();
  }
  return outputs;
}

Result<RunOutputs> JoinOutputs(const RunOutputs& delivered,
                               const CedrService& resumed) {
  RunOutputs joined;
  for (const std::string& name : resumed.QueryNames()) {
    const CollectingSink& sink = resumed.GetQuery(name).ValueOrDie()->sink();
    const size_t start = sink.emitted() - sink.messages().size();
    auto it = delivered.find(name);
    const size_t have = it == delivered.end() ? 0 : it->second.size();
    if (have < start) {
      return Status::Internal(
          StrCat("query '", name, "' resumed at output position ", start,
                 " but only ", have, " messages were delivered"));
    }
    std::vector<Message>& out = joined[name];
    if (start > 0) {
      out.assign(it->second.begin(),
                 it->second.begin() + static_cast<std::ptrdiff_t>(start));
    }
    out.insert(out.end(), sink.messages().begin(), sink.messages().end());
  }
  return joined;
}

Result<RunOutputs> RunUninterrupted(const ServiceScenario& scenario) {
  CEDR_ASSIGN_OR_RETURN(std::unique_ptr<CedrService> service,
                        RunPrefix(scenario, scenario.feed.size()));
  CEDR_RETURN_NOT_OK(service->Finish());
  return OutputsOf(*service);
}

Result<RunOutputs> RunWithCrash(const ServiceScenario& scenario,
                                size_t crash_after) {
  RunOutputs delivered;
  std::string snapshot_bytes;
  std::string journal_bytes;
  {
    CEDR_ASSIGN_OR_RETURN(std::unique_ptr<CedrService> service,
                          RunPrefix(scenario, crash_after));
    // Crash: the process dies; the durable bytes survive, and so does
    // the output its consumers already received.
    delivered = OutputsOf(*service);
    snapshot_bytes = service->snapshot_bytes();
    journal_bytes = service->journal_bytes();
  }
  CEDR_ASSIGN_OR_RETURN(std::unique_ptr<CedrService> recovered,
                        CedrService::Recover(snapshot_bytes, journal_bytes));
  for (size_t i = crash_after; i < scenario.feed.size(); ++i) {
    CEDR_RETURN_NOT_OK(recovered->Apply(scenario.feed[i]));
  }
  CEDR_RETURN_NOT_OK(recovered->Finish());
  return JoinOutputs(delivered, *recovered);
}

bool SyncPointWithin(const std::vector<io::JournalRecord>& feed,
                     size_t calls) {
  calls = std::min(calls, feed.size());
  return std::any_of(feed.begin(),
                     feed.begin() + static_cast<std::ptrdiff_t>(calls),
                     [](const io::JournalRecord& call) {
                       return call.op == io::JournalOp::kSyncPoint;
                     });
}

Result<uint64_t> JournalBaseAt(const ServiceScenario& scenario,
                               size_t calls) {
  CEDR_ASSIGN_OR_RETURN(std::unique_ptr<CedrService> service,
                        RunPrefix(scenario, calls));
  CEDR_ASSIGN_OR_RETURN(io::JournalContents journal,
                        io::ReadJournal(service->journal_bytes()));
  return journal.base_index;
}

bool PhysicallyIdentical(const std::vector<Message>& a,
                         const std::vector<Message>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    // Byte equality of the serialized forms covers every field,
    // including lineage and payload values.
    io::BinaryWriter wa;
    io::BinaryWriter wb;
    io::WriteMessage(&wa, a[i]);
    io::WriteMessage(&wb, b[i]);
    if (wa.bytes() != wb.bytes()) return false;
  }
  return true;
}

bool PhysicallyIdentical(const RunOutputs& a, const RunOutputs& b) {
  if (a.size() != b.size()) return false;
  for (const auto& [name, stream] : a) {
    auto it = b.find(name);
    if (it == b.end()) return false;
    if (!PhysicallyIdentical(stream, it->second)) return false;
  }
  return true;
}

std::vector<SupervisedCall> PaceFeed(
    const std::string& source, const std::vector<io::JournalRecord>& feed,
    int64_t start_tick, int calls_per_tick) {
  if (calls_per_tick < 1) calls_per_tick = 1;
  std::vector<SupervisedCall> paced;
  paced.reserve(feed.size());
  for (size_t i = 0; i < feed.size(); ++i) {
    SupervisedCall call;
    call.source = source;
    call.at_tick = start_tick + static_cast<int64_t>(i) / calls_per_tick;
    call.call = feed[i];
    paced.push_back(std::move(call));
  }
  return paced;
}

std::vector<SupervisedCall> MergeSupervisedFeeds(
    std::vector<std::vector<SupervisedCall>> feeds) {
  struct Tagged {
    SupervisedCall call;
    size_t feed;
    size_t pos;
  };
  std::vector<Tagged> all;
  for (size_t f = 0; f < feeds.size(); ++f) {
    for (size_t i = 0; i < feeds[f].size(); ++i) {
      all.push_back(Tagged{std::move(feeds[f][i]), f, i});
    }
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const Tagged& a, const Tagged& b) {
                     if (a.call.at_tick != b.call.at_tick) {
                       return a.call.at_tick < b.call.at_tick;
                     }
                     if (a.feed != b.feed) return a.feed < b.feed;
                     return a.pos < b.pos;
                   });
  std::vector<SupervisedCall> merged;
  merged.reserve(all.size());
  for (Tagged& t : all) merged.push_back(std::move(t.call));
  return merged;
}

namespace {

/// Provider-side connection state: the sequence counter, the epoch the
/// provider believes it is in, the full send history (for replay), and
/// calls awaiting retry after a backpressure rejection.
struct Provider {
  uint64_t epoch = 0;
  uint64_t next_seq = 0;
  std::vector<io::JournalRecord> history;  // indexed by assigned seq
  std::deque<std::pair<uint64_t, io::JournalRecord>> pending;
};

Status OfferTo(SupervisedService* svc, const std::string& source,
               const Provider& p, uint64_t seq,
               const io::JournalRecord& call) {
  SupervisedService::Ingress ingress{source, p.epoch, seq};
  switch (call.op) {
    case io::JournalOp::kPublish:
      return svc->Publish(ingress, call.name, call.event);
    case io::JournalOp::kRetract:
      return svc->PublishRetraction(ingress, call.name, call.event,
                                    call.new_ve);
    case io::JournalOp::kSyncPoint:
      return svc->PublishSyncPoint(ingress, call.name, call.time);
    default:
      return Status::InvalidArgument(
          "supervised feed calls must be publish/retract/sync");
  }
}

}  // namespace

Status RegisterScenario(SupervisedService* svc,
                        const SupervisedScenario& scenario) {
  for (const auto& [name, schema] : scenario.catalog) {
    CEDR_RETURN_NOT_OK(svc->RegisterEventType(name, schema));
  }
  for (const SupervisedQuery& q : scenario.queries) {
    CEDR_RETURN_NOT_OK(svc->RegisterQuery(q.text, q.spec, q.budget).status());
  }
  for (const auto& [source, types] : scenario.sources) {
    CEDR_RETURN_NOT_OK(svc->AttachSource(source, types));
  }
  for (const SupervisedCall& action : scenario.feed) {
    if (scenario.sources.count(action.source) == 0) {
      return Status::InvalidArgument(StrCat(
          "feed references unattached source '", action.source, "'"));
    }
  }
  return Status::OK();
}

Status FinishSupervisedRun(SupervisedService* svc,
                           const SupervisedScenario& scenario,
                           SupervisedRun* run) {
  CEDR_RETURN_NOT_OK(svc->Finish());
  for (const std::string& name : svc->QueryNames()) {
    CEDR_ASSIGN_OR_RETURN(const SwitchableQuery* query, svc->GetQuery(name));
    run->outputs[name] = query->OutputMessages();
    run->ideals[name] = query->Ideal();
    CEDR_ASSIGN_OR_RETURN(run->stats[name], svc->StatsFor(name));
    CEDR_ASSIGN_OR_RETURN(run->governors[name], svc->GovernorOf(name));
  }
  for (const auto& [source, types] : scenario.sources) {
    CEDR_ASSIGN_OR_RETURN(const SourceSession* session, svc->Session(source));
    run->sessions[source] = session->stats();
  }
  for (const std::string& name : svc->QuarantinedQueries()) {
    CEDR_ASSIGN_OR_RETURN(run->quarantines[name], svc->QuarantineOf(name));
  }
  run->shed = svc->shed();
  run->journal_bytes = svc->journal().bytes();
  run->ticks = svc->now_ticks();
  run->max_queue_depth = svc->max_queue_depth();
  return Status::OK();
}

Result<SupervisedRun> RunSupervised(const SupervisedScenario& scenario,
                                    SupervisorConfig config,
                                    const TickHook& on_tick) {
  SupervisedService svc(config);
  CEDR_RETURN_NOT_OK(RegisterScenario(&svc, scenario));
  std::map<std::string, Provider> providers;
  for (const auto& entry : scenario.sources) providers.try_emplace(entry.first);

  SupervisedRun run;
  int64_t last_tick = scenario.feed.empty() ? 0 : scenario.feed.back().at_tick;
  // Generous bound: the feed, a full drain, and the trailing window.
  const int64_t tick_limit =
      last_tick + static_cast<int64_t>(scenario.feed.size()) +
      scenario.trailing_ticks + 10000;

  size_t next = 0;
  int64_t tick = 0;
  auto have_pending = [&providers] {
    for (const auto& [name, p] : providers) {
      if (!p.pending.empty()) return true;
    }
    return false;
  };
  while (next < scenario.feed.size() || have_pending() ||
         svc.queue_depth() > 0) {
    if (tick > tick_limit) {
      return Status::Internal(
          StrCat("supervised run made no progress by tick ", tick));
    }
    // Retries first: a pending call is older than anything offered this
    // tick, and later calls of its source are queued behind it.
    for (auto& [source, p] : providers) {
      while (!p.pending.empty()) {
        auto& [seq, call] = p.pending.front();
        Status offered = OfferTo(&svc, source, p, seq, call);
        if (offered.code() == StatusCode::kResourceExhausted) break;
        CEDR_RETURN_NOT_OK(offered);
        ++run.backpressure_retries;
        p.pending.pop_front();
      }
    }
    // This tick's feed actions.
    while (next < scenario.feed.size() &&
           scenario.feed[next].at_tick <= tick) {
      const SupervisedCall& action = scenario.feed[next];
      Provider& p = providers.at(action.source);
      if (action.action == SupervisedCall::Action::kReconnect) {
        CEDR_ASSIGN_OR_RETURN(SourceSession::ResumePoint resume,
                              svc.Reconnect(action.source));
        p.epoch = resume.epoch;
        // Replay everything the supervisor has not acknowledged. The
        // session layer drops any overlap as duplicates.
        p.pending.clear();
        for (uint64_t seq = resume.next_seq; seq < p.history.size(); ++seq) {
          p.pending.emplace_back(seq, p.history[seq]);
        }
      } else {
        uint64_t seq = p.next_seq++;
        p.history.push_back(action.call);
        if (!p.pending.empty()) {
          // Keep per-source order: queue behind the stalled call.
          p.pending.emplace_back(seq, action.call);
        } else {
          Status offered = OfferTo(&svc, action.source, p, seq, action.call);
          if (offered.code() == StatusCode::kResourceExhausted) {
            p.pending.emplace_back(seq, action.call);
          } else {
            CEDR_RETURN_NOT_OK(offered);
          }
        }
      }
      ++next;
    }
    if (on_tick) CEDR_RETURN_NOT_OK(on_tick(&svc, tick));
    CEDR_RETURN_NOT_OK(svc.Tick());
    ++tick;
  }
  for (int64_t t = 0; t < scenario.trailing_ticks; ++t) {
    if (on_tick) CEDR_RETURN_NOT_OK(on_tick(&svc, tick));
    CEDR_RETURN_NOT_OK(svc.Tick());
    ++tick;
  }
  CEDR_RETURN_NOT_OK(FinishSupervisedRun(&svc, scenario, &run));
  return run;
}

ChaosSchedule GenerateChaosSchedule(uint64_t seed, size_t num_queries,
                                    int64_t horizon_ticks) {
  ChaosSchedule schedule;
  schedule.seed = seed;
  Rng rng(seed ^ 0xC4A05u);
  if (num_queries == 0) return schedule;
  const size_t num_faults =
      1 + (num_queries > 1 ? rng.NextBounded(2) : 0);
  // Distinct targets: one fault per query at most, so incident
  // attribution stays unambiguous.
  std::vector<size_t> targets;
  for (size_t i = 0; i < num_queries; ++i) targets.push_back(i);
  for (size_t i = 0; i < num_faults; ++i) {
    size_t pick = i + rng.NextBounded(targets.size() - i);
    std::swap(targets[i], targets[pick]);
  }
  const int64_t arm_window = std::max<int64_t>(1, horizon_ticks / 4);
  for (size_t i = 0; i < num_faults; ++i) {
    ChaosFault fault;
    fault.kind = static_cast<ChaosFault::Kind>(rng.NextBounded(3));
    fault.query_index = targets[i];
    fault.at_tick = 1 + static_cast<int64_t>(
                            rng.NextBounded(static_cast<uint64_t>(arm_window)));
    fault.duration_ticks = 16;
    fault.revive_after_ticks =
        rng.NextBounded(2) == 0
            ? 0
            : 1 + static_cast<int64_t>(rng.NextBounded(3));
    schedule.faults.push_back(fault);
  }
  return schedule;
}

Result<ChaosRun> RunChaos(const SupervisedScenario& scenario,
                          const ChaosSchedule& schedule,
                          SupervisorConfig config) {
  bool any_slow = false;
  for (const ChaosFault& f : schedule.faults) {
    if (f.kind == ChaosFault::Kind::kSlow) any_slow = true;
  }
  if (any_slow && !config.watchdog.enabled) {
    config.watchdog.enabled = true;
    // Wall-clock-proof deadline: only virtual charges can trip it, so
    // the run is deterministic on arbitrarily slow machines.
    config.watchdog.tick_deadline_us = 1'000'000'000;
  }

  ChaosRun chaos;
  chaos.incidents.resize(schedule.faults.size());

  auto inject = [&](SupervisedService* svc, int64_t tick) -> Status {
    const std::vector<std::string> names = svc->QueryNames();
    if (names.empty()) return Status::OK();
    for (size_t i = 0; i < schedule.faults.size(); ++i) {
      const ChaosFault& fault = schedule.faults[i];
      ChaosIncident& incident = chaos.incidents[i];
      const std::string& target = names[fault.query_index % names.size()];
      incident.query = target;
      incident.fault = fault;
      // Arm.
      if (tick == fault.at_tick) {
        switch (fault.kind) {
          case ChaosFault::Kind::kPoisonStatus:
            CEDR_RETURN_NOT_OK(svc->SetQueryFaultHook(
                target, [](const std::string&, const Message&) {
                  return Status::ExecutionError("chaos: injected poison");
                }));
            break;
          case ChaosFault::Kind::kThrow:
            CEDR_RETURN_NOT_OK(svc->SetQueryFaultHook(
                target,
                [](const std::string&, const Message&) -> Status {
                  throw std::runtime_error("chaos: injected exception");
                }));
            break;
          case ChaosFault::Kind::kSlow:
            break;  // driven below, tick by tick
        }
      }
      // Sustain a slow fault: charge over-deadline virtual cost while
      // the overload window is open and the target is still live.
      if (fault.kind == ChaosFault::Kind::kSlow &&
          tick >= fault.at_tick &&
          tick < fault.at_tick + fault.duration_ticks &&
          incident.quarantined_at < 0) {
        CEDR_RETURN_NOT_OK(svc->ChargeWatchdogCost(
            target, config.watchdog.tick_deadline_us + 1));
      }
      // Observe the quarantine and capture the post-mortem before a
      // revival erases it.
      if (tick >= fault.at_tick && incident.quarantined_at < 0) {
        Result<QuarantineReport> report = svc->QuarantineOf(target);
        if (report.ok()) {
          incident.report = report.ValueOrDie();
          incident.quarantined_at = incident.report.at_tick;
          incident.time_to_quarantine =
              incident.report.at_tick - fault.at_tick;
        }
      }
      // Quarantine-then-recover.
      if (fault.revive_after_ticks > 0 && incident.quarantined_at >= 0 &&
          incident.revived_at < 0 &&
          tick >= incident.quarantined_at + fault.revive_after_ticks) {
        CEDR_RETURN_NOT_OK(svc->ReviveQuery(target));
        incident.revived_at = tick;
      }
    }
    return Status::OK();
  };

  CEDR_ASSIGN_OR_RETURN(chaos.run,
                        RunSupervised(scenario, config, inject));
  // A quarantine in the final tick is only visible in the end-of-run
  // reports; fold it into the incident.
  for (ChaosIncident& incident : chaos.incidents) {
    if (incident.quarantined_at >= 0) continue;
    auto it = chaos.run.quarantines.find(incident.query);
    if (it == chaos.run.quarantines.end()) continue;
    incident.report = it->second;
    incident.quarantined_at = it->second.at_tick;
    incident.time_to_quarantine =
        it->second.at_tick - incident.fault.at_tick;
  }
  return chaos;
}

}  // namespace testing
}  // namespace cedr
