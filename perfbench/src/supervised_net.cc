// supervised_net: the correlated pattern queries at strong and middle
// under a SupervisedService, fed by SourceClients over a
// SimulatedTransport with a seeded mild fault profile. Offers are open
// loop in logical ticks (calm - burst - calm); the benchmark drives the
// tick loop itself - client Pump, transport Step, supervisor Tick - so
// each layer's call is timed. Strong queries carry a QueryBudget the
// burst violates, so the governor degrades and restores them through
// SwitchableQuery. The only workload that exercises net,
// engine.session, engine.supervisor, engine.switching and io (journal).
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <map>
#include <memory>

#include "denotation/ideal.h"
#include "engine/supervisor.h"
#include "engine/switching.h"
#include "io/journal.h"
#include "net/client.h"
#include "net/harness.h"
#include "net/transport.h"
#include "testing/fault.h"
#include "workload/adversarial.h"
#include "workload/machines.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace cedr;

/// Pattern-suite queries run under the supervisor: the correlated ones
/// at strong and middle.
std::vector<QueryDef> SupervisedQueries() {
  std::vector<QueryDef> out;
  for (const QueryDef& q : PatternQueries()) {
    if (q.spec.IsWeak() || q.name.rfind("atleast", 0) == 0) continue;
    out.push_back(q);
  }
  return out;
}

testing::SupervisedScenario MakeScenario(uint64_t seed, bool tiny) {
  workload::AdversarialConfig adv;
  adv.machines.num_machines = 64;
  adv.machines.num_sessions = tiny ? 120 : 420;
  adv.machines.max_session_length = 40;
  adv.machines.restart_scope = 10;
  adv.machines.session_interval = 6;
  adv.machines.seed = seed;
  adv.disorder.seed = seed * 13 + 1;
  // A trickle the lossy link keeps up with, then a burst it cannot.
  adv.steady_rate = 1;
  adv.burst_rate = 48;
  testing::SupervisedScenario scenario = workload::BurstOverloadScenario(adv);
  scenario.queries.clear();
  // Calm ticks deliver about one call (a few units of blocking); the
  // burst delivers tens per tick, well over this per-tick blocking. At
  // 30 every one of ~90 seeds tried degrades and restores; at 40 some
  // bursts never trip it.
  QueryBudget budget;
  budget.max_blocking_per_check = 30;
  for (const QueryDef& q : SupervisedQueries()) {
    scenario.queries.push_back(
        {q.text, q.spec,
         q.spec.IsStrong() ? std::optional<QueryBudget>(budget)
                           : std::nullopt});
  }
  return scenario;
}

SupervisorConfig MakeConfig(int route_workers) {
  SupervisorConfig config;
  config.ingress.queue_capacity = 1 << 16;  // sized so nothing is shed
  config.ingress.drain_per_tick = 48;
  config.session.heartbeat_timeout = 0;
  config.session.gap_policy = GapPolicy::kReject;
  config.routing.route_workers = route_workers;
  return config;
}

net::NetRunOptions MakeNetOptions(uint64_t seed, bool faulty) {
  net::NetRunOptions options;
  if (faulty) {
    options.faults.drop = 0.02;
    options.faults.duplicate = 0.03;
    options.faults.reorder = 0.01;
    options.faults.reorder_delay_max = 4;
  }
  options.client.window = 64;
  options.client.retransmit_after = 4;
  options.seed = seed * 7 + 0xCED7;
  return options;
}

/// The per-source client seed perturbation net::RunOverTransport uses
/// (FNV-1a of the source name), so live passes and the fault-free
/// reference seed their clients alike.
uint64_t SourceSalt(const std::string& source) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : source) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Observables of one live run.
struct LiveRun {
  std::map<std::string, std::vector<Message>> outputs;
  std::map<std::string, EventList> ideals;
  std::string journal;
  int64_t ticks = 0;
  double seconds = 0;  // timed region: tick loop + Finish + output reads
  // Per-layer counts.
  size_t queue_max = 0;
  uint64_t degrades = 0, restores = 0, switches = 0;
  std::map<std::string, int> switches_by_query;
  uint64_t shed = 0;
  size_t quarantined = 0;
  size_t retained_max = 0;
  net::LinkStats wire;
  uint64_t retransmits = 0, duplicates = 0, accepted = 0;
  QueryStats stats;  // max/sum over queries
};

/// Service, transport and clients of one run, wired and connected.
struct Stack {
  std::unique_ptr<SupervisedService> svc;
  std::unique_ptr<net::SimulatedTransport> transport;
  std::map<std::string, std::unique_ptr<net::SourceClient>> clients;
  std::vector<std::string> names;
};

Status BuildStack(const testing::SupervisedScenario& scenario,
                  const SupervisorConfig& config,
                  const net::NetRunOptions& options, Stack* stack) {
  stack->svc = std::make_unique<SupervisedService>(config);
  for (const auto& [name, schema] : scenario.catalog) {
    CEDR_RETURN_NOT_OK(stack->svc->RegisterEventType(name, schema));
  }
  for (const testing::SupervisedQuery& q : scenario.queries) {
    Result<std::string> name =
        stack->svc->RegisterQuery(q.text, q.spec, q.budget);
    CEDR_RETURN_NOT_OK(name.status());
    stack->names.push_back(name.ValueOrDie());
  }
  stack->transport =
      std::make_unique<net::SimulatedTransport>(stack->svc.get(), options.seed);
  for (const auto& [source, types] : scenario.sources) {
    CEDR_RETURN_NOT_OK(stack->svc->AttachSource(source, types));
    stack->transport->SetLinkFaults(source, options.faults);
    net::ClientConfig cc = options.client;
    cc.seed = options.seed ^ SourceSalt(source);
    stack->clients.emplace(source, std::make_unique<net::SourceClient>(
                                       stack->transport.get(), source, cc));
  }
  for (auto& [source, client] : stack->clients) {
    CEDR_RETURN_NOT_OK(client->Connect());
  }
  return Status::OK();
}

/// Calls the sessions have accepted so far (first deliveries only).
uint64_t AcceptedCalls(const Stack& stack) {
  uint64_t total = 0;
  for (const auto& [source, client] : stack.clients) {
    Result<const SourceSession*> session = stack.svc->Session(source);
    if (session.ok()) total += session.ValueOrDie()->stats().accepted;
  }
  return total;
}

void Offer(const testing::SupervisedCall& action, net::SourceClient* client) {
  switch (action.call.op) {
    case io::JournalOp::kPublish:
      client->Publish(action.call.name, action.call.event);
      break;
    case io::JournalOp::kRetract:
      client->Retract(action.call.name, action.call.event,
                      action.call.new_ve);
      break;
    case io::JournalOp::kSyncPoint:
      client->SyncPoint(action.call.name, action.call.time);
      break;
    default:
      break;
  }
}

/// Drives the scenario to convergence with the tick loop spelled out,
/// timing each tick (pump + transport step + supervisor tick).
Status RunLive(const testing::SupervisedScenario& scenario, Stack* stack,
               std::vector<double>* tick_ms, LiveRun* run) {
  static const int kTick = SpanName("tick");
  static const int kPump = SpanName("client.pump");
  static const int kStep = SpanName("transport.step");
  static const int kSupTick = SpanName("supervisor.tick");
  static const int kFinish = SpanName("supervisor.finish");
  static const int kOutput = SpanName("switching.output");
  SupervisedService& svc = *stack->svc;
  net::SimulatedTransport& transport = *stack->transport;
  const bool traced = Tracer::Get().on();
  size_t next = 0;
  int64_t tick = 0;
  auto all_done = [&] {
    if (next < scenario.feed.size()) return false;
    for (const auto& [source, client] : stack->clients) {
      if (!client->Done()) return false;
    }
    return transport.InFlight() == 0 && svc.queue_depth() == 0;
  };
  auto sample_retained = [&] {
    for (const std::string& name : stack->names) {
      Result<const SwitchableQuery*> q = svc.GetQuery(name);
      if (q.ok()) {
        run->retained_max =
            std::max(run->retained_max, q.ValueOrDie()->retained_input_size());
      }
    }
  };
  uint64_t accepted_before = AcceptedCalls(*stack);
  const Clock::time_point start = Clock::now();
  // Ticks until converged, then the scenario's trailing ticks (transport
  // step and supervisor tick only), as net::RunOverTransport does.
  int64_t trailing = -1;  // -1 while converging
  while (trailing < scenario.trailing_ticks) {
    if (trailing < 0 && all_done()) {
      trailing = 0;
      continue;
    }
    if (tick > 200000) {
      return Status::Internal("transport run made no progress");
    }
    const double t0 = ThreadCpuMs();
    {
      Span tick_span(kTick, tick);
      if (trailing < 0) {
        for (; next < scenario.feed.size() &&
               scenario.feed[next].at_tick <= tick;
             ++next) {
          const testing::SupervisedCall& action = scenario.feed[next];
          net::SourceClient& client = *stack->clients.at(action.source);
          if (action.action == testing::SupervisedCall::Action::kReconnect) {
            CEDR_RETURN_NOT_OK(client.Connect());
          } else {
            Offer(action, &client);
          }
        }
        Span span(kPump, tick);
        for (auto& [source, client] : stack->clients) {
          CEDR_RETURN_NOT_OK(client->Pump(tick));
        }
      }
      {
        Span span(kStep, tick);
        CEDR_RETURN_NOT_OK(transport.Step(tick));
      }
      Span span(kSupTick, tick);
      CEDR_RETURN_NOT_OK(svc.Tick());
    }
    const double ms = ThreadCpuMs() - t0;
    // A step is a tick that admitted ingress: idle ticks (a client
    // waiting out a retransmit deadline) are not ingress steps.
    const uint64_t accepted = AcceptedCalls(*stack);
    if (accepted > accepted_before) tick_ms->push_back(ms);
    accepted_before = accepted;
    if (traced) sample_retained();
    ++tick;
    if (trailing >= 0) ++trailing;
  }
  {
    Span span(kFinish);
    CEDR_RETURN_NOT_OK(svc.Finish());
  }
  for (const std::string& name : stack->names) {
    Span span(kOutput);
    CEDR_ASSIGN_OR_RETURN(const SwitchableQuery* q, svc.GetQuery(name));
    run->outputs[name] = q->OutputMessages();
  }
  run->seconds = SecondsBetween(start, Clock::now());
  run->ticks = tick;

  // Outside the timed region: converged outputs and accounting.
  for (const std::string& name : stack->names) {
    CEDR_ASSIGN_OR_RETURN(const SwitchableQuery* q, svc.GetQuery(name));
    run->ideals[name] = q->Ideal();
    run->switches += static_cast<uint64_t>(q->switches());
    run->switches_by_query[name] = q->switches();
    CEDR_ASSIGN_OR_RETURN(GovernorStatus gov, svc.GovernorOf(name));
    run->degrades += gov.degrades;
    run->restores += gov.restores;
    CEDR_ASSIGN_OR_RETURN(QueryStats st, svc.StatsFor(name));
    run->stats.max_state_size =
        std::max(run->stats.max_state_size, st.max_state_size);
    run->stats.max_buffer_size =
        std::max(run->stats.max_buffer_size, st.max_buffer_size);
    run->stats.total_blocking += st.total_blocking;
    run->stats.lost_corrections += st.lost_corrections;
  }
  for (const auto& [source, client] : stack->clients) {
    run->retransmits += client->stats().retransmissions;
    CEDR_ASSIGN_OR_RETURN(const SourceSession* session, svc.Session(source));
    run->duplicates += session->stats().duplicates;
    run->accepted += session->stats().accepted;
  }
  run->wire = transport.TotalStats();
  run->journal = svc.journal().bytes();
  run->shed = svc.shed().TotalShed();
  run->quarantined = svc.QuarantinedQueries().size();
  run->queue_max = svc.max_queue_depth();
  return Status::OK();
}

/// Accounts one live run: shed, never-accepted and quarantined calls
/// fail, as does output that differs from the fault-free reference.
void CheckLive(const LiveRun& run, size_t feed_calls,
               const std::map<std::string, EventList>& reference,
               Report* report) {
  report->attempted += feed_calls + run.ideals.size();
  if (run.shed > 0) report->Fail("supervisor shed calls", run.shed);
  if (run.accepted != feed_calls) {
    report->Fail("calls accepted != offered",
                 run.accepted > feed_calls ? 1 : feed_calls - run.accepted);
  }
  if (run.quarantined > 0) {
    report->Fail("queries quarantined", run.quarantined);
  }
  if (!net::ConvergedIdentical(run.ideals, reference)) {
    report->Fail("converged output differs from the fault-free run");
  }
}

/// Traced-only: replays the delivered call sequence (the journal, in
/// arrival-stamp order) into one bare SwitchableQuery per query, timing
/// sync-point and data pushes separately, and sampling the active plan's
/// CompiledQuery::Snapshot as output history grows.
Status ReplaySwitching(const std::string& journal, LayerSamples* layers,
                       std::vector<double>* snapshot_kb) {
  static const int kSync = SpanName("switching.push_sync");
  static const int kData = SpanName("switching.push_data");
  static const int kSnap = SpanName("query.snapshot");
  static const int kFinish = SpanName("query.finish");
  CEDR_ASSIGN_OR_RETURN(io::JournalContents contents,
                        io::ReadJournal(journal));
  const Catalog catalog = workload::MachineCatalog();
  double sync_ms = 0, data_ms = 0, finish_ms = 0;
  uint64_t syncs = 0, datas = 0;
  std::vector<double> snap_ms;
  for (const QueryDef& def : SupervisedQueries()) {
    CEDR_ASSIGN_OR_RETURN(
        std::unique_ptr<SwitchableQuery> q,
        SwitchableQuery::Create(def.text, catalog, def.spec));
    const std::vector<std::string> types = q->active().InputTypes();
    double query_ms = 0;
    Time cs = 1;
    uint64_t query_syncs = 0;
    for (const io::JournalRecord& record : contents.records) {
      Message msg;
      switch (record.op) {
        case io::JournalOp::kPublish:
          msg = InsertOf(record.event, cs);
          break;
        case io::JournalOp::kRetract:
          msg = RetractOf(record.event, record.new_ve, cs);
          break;
        case io::JournalOp::kSyncPoint:
          msg = CtiOf(record.time, cs);
          break;
        default:
          continue;
      }
      ++cs;
      if (std::find(types.begin(), types.end(), record.name) == types.end()) {
        continue;
      }
      const bool sync = msg.kind == MessageKind::kCti;
      const Clock::time_point t0 = Clock::now();
      {
        Span span(sync ? kSync : kData);
        CEDR_RETURN_NOT_OK(q->Push(record.name, msg));
      }
      const double ms = SecondsBetween(t0, Clock::now()) * 1e3;
      query_ms += ms;
      (sync ? sync_ms : data_ms) += ms;
      ++(sync ? syncs : datas);
      if (sync && ++query_syncs % 16 == 0) {
        io::BinaryWriter w;
        const Clock::time_point s0 = Clock::now();
        {
          Span span(kSnap);
          CEDR_RETURN_NOT_OK(q->active().Snapshot(&w));
        }
        snap_ms.push_back(SecondsBetween(s0, Clock::now()) * 1e3);
        if (def.name == SupervisedQueries().front().name) {
          snapshot_kb->push_back(static_cast<double>(w.size()) / 1024.0);
        }
      }
    }
    const Clock::time_point f0 = Clock::now();
    {
      Span span(kFinish);
      CEDR_RETURN_NOT_OK(q->Finish());
    }
    finish_ms += SecondsBetween(f0, Clock::now()) * 1e3;
    layers->Add("query.push_ms." + def.name, query_ms);
  }
  layers->Add("query.finish_ms", finish_ms);
  layers->Add("switching.push_sync_ms",
              syncs > 0 ? sync_ms / static_cast<double>(syncs) : 0);
  layers->Add("switching.push_data_us",
              datas > 0 ? 1e3 * data_ms / static_cast<double>(datas) : 0);
  layers->Add("query.snapshot_ms", Median(snap_ms));
  return Status::OK();
}

/// Fails every query whose output stream in `run` differs from `first`'s.
void CheckAgainstFirst(const LiveRun& first, const LiveRun& run,
                       const std::string& what, Report* report) {
  for (const auto& [name, messages] : first.outputs) {
    ++report->attempted;
    auto it = run.outputs.find(name);
    if (it == run.outputs.end() ||
        !testing::PhysicallyIdentical(messages, it->second)) {
      report->Fail(what + ": " + name + " differs from the first pass");
    }
  }
}

/// Recovers a service from `first`'s journal, timed: the recovered
/// queries must reproduce the live run's converged output. Returns the
/// seconds Recover took, or -1 when it failed.
double TimeRecover(const LiveRun& first, bool traced, Report* report) {
  static const int kRecover = SpanName("supervisor.recover");
  Tracer& tracer = Tracer::Get();
  tracer.set_on(traced);
  const Clock::time_point t0 = Clock::now();
  Result<std::unique_ptr<SupervisedService>> recovered = [&] {
    Span span(kRecover);
    return SupervisedService::Recover(first.journal, MakeConfig(1));
  }();
  const double seconds = SecondsBetween(t0, Clock::now());
  tracer.set_on(false);
  report->attempted += first.outputs.size();
  if (!recovered.ok()) {
    report->Fail("recover: " + recovered.status().ToString(),
                 first.outputs.size());
    return -1;
  }
  const SupervisedService& svc = *recovered.ValueOrDie();
  std::map<std::string, EventList> ideals;
  for (const auto& [name, messages] : first.outputs) {
    Result<const SwitchableQuery*> q = svc.GetQuery(name);
    if (!q.ok()) {
      report->Fail("recover: query " + name + " missing");
      continue;
    }
    ideals[name] = q.ValueOrDie()->Ideal();
  }
  if (!net::ConvergedIdentical(ideals, first.ideals)) {
    report->Fail("recovered output differs from the live run");
  }
  // Governor switches are not journaled - Recover replays each query at
  // its requested level - so only queries that never switched can
  // promise a physically identical output stream.
  for (const auto& [name, messages] : first.outputs) {
    Result<const SwitchableQuery*> q = svc.GetQuery(name);
    auto switched = first.switches_by_query.find(name);
    if (q.ok() && switched != first.switches_by_query.end() &&
        switched->second == 0 &&
        !testing::PhysicallyIdentical(messages,
                                      q.ValueOrDie()->OutputMessages())) {
      report->Fail("recover: " + name +
                   " output stream differs from the live run");
    }
  }
  return seconds;
}

/// Independent scenarios per run, each drawn from the run's seed. How
/// often the governor flaps - and with it the cost of the typical and
/// of the slowest ticks - differs a lot from one scenario to the next;
/// every pass runs all of them, so a run averages over several.
constexpr uint64_t kScenarios = 3;

/// One scenario of a run, with its pass-0 observables.
struct Case {
  uint64_t seed = 0;
  testing::SupervisedScenario scenario;
  net::NetRunOptions faulty;
  LiveRun first;
  std::map<std::string, EventList> reference;  // filled after pass 0
};

}  // namespace

void RunSupervisedNet(const Options& options, Report* report) {
  std::vector<Case> cases(kScenarios);
  size_t calls = 0;
  for (uint64_t i = 0; i < kScenarios; ++i) {
    Case& c = cases[i];
    c.seed = options.seed * kScenarios + i;
    c.scenario = MakeScenario(c.seed, options.tiny);
    c.faulty = MakeNetOptions(c.seed, true);
    calls += c.scenario.feed.size();
  }
  const double n = static_cast<double>(calls);
  std::cout << "supervised_net: " << kScenarios << " scenarios, " << calls
            << " calls, " << cases.front().scenario.queries.size()
            << " queries, open loop in logical ticks (calm-burst-calm), "
               "1 thread (par2: 2 route workers)\n";

  const double rss0 = CurrentRssMb();
  Tracer& tracer = Tracer::Get();
  const Clock::time_point start = Clock::now();
  PassTimes times;
  times.events = n;
  LayerSamples layers;

  auto live_pass = [&](const Case& c, int route_workers,
                       std::vector<double>* tick_ms, LiveRun* run) {
    const size_t feed_calls = c.scenario.feed.size();
    Stack stack;
    Status st =
        BuildStack(c.scenario, MakeConfig(route_workers), c.faulty, &stack);
    if (st.ok()) st = RunLive(c.scenario, &stack, tick_ms, run);
    if (!st.ok()) {
      report->Fail("live run: " + st.ToString(), feed_calls);
      return false;
    }
    if (!c.reference.empty()) {
      CheckLive(*run, feed_calls, c.reference, report);
    }
    return true;
  };

  // Pass 0: warm-up, peak memory, the reference gates.
  for (Case& c : cases) {
    std::vector<double> ignored;
    if (!live_pass(c, 1, &ignored, &c.first)) return;
  }
  times.mem_peak_mb = PeakRssMb() - rss0;
  uint64_t degrades = 0, restores = 0;
  for (Case& c : cases) {
    // Reference: the same scenario over a fault-free link.
    Result<net::NetRun> clean = net::RunOverTransport(
        c.scenario, MakeConfig(1), MakeNetOptions(c.seed, false));
    if (!clean.ok()) {
      report->Fail("fault-free reference run: " + clean.status().ToString());
      return;
    }
    c.reference = clean.ValueOrDie().run.ideals;
    CheckLive(c.first, c.scenario.feed.size(), c.reference, report);
    degrades += c.first.degrades;
    restores += c.first.restores;
    std::cout << "  scenario " << c.seed << ": ticks " << c.first.ticks
              << ", switches " << c.first.switches << ", degrades "
              << c.first.degrades << ", restores " << c.first.restores
              << ", journal " << c.first.journal.size() / 1024 << " KiB\n";
  }
  if (degrades == 0 || restores == 0) {
    report->Fail("the burst never made the governor degrade and restore");
  }
  if (options.corrupt) {
    const Case& c = cases.front();
    std::map<std::string, EventList> damaged = c.first.ideals;
    if (!damaged.empty() && !damaged.begin()->second.empty()) {
      damaged.begin()->second.pop_back();
      ++report->attempted;
      if (!net::ConvergedIdentical(damaged, c.reference)) {
        report->Fail("corrupted output differs from the fault-free run");
      }
    }
  }

  // Each pass type rotates through the CPUs on its own (see CpuRotation).
  CpuRotation serial_cpu(1), par2_cpu(2), recover_cpu(1);
  // Set-up: register types, queries and the source; create transport
  // and client; handshake.
  auto setup = [&] {
    const Case& c = cases.front();
    Stack stack;
    const Clock::time_point t0 = Clock::now();
    Status st = BuildStack(c.scenario, MakeConfig(1), c.faulty, &stack);
    times.setup_s.push_back(SecondsBetween(t0, Clock::now()));
    if (!st.ok()) report->Fail("set-up: " + st.ToString());
    return st.ok();
  };

  // Serial routing, every scenario in turn. A traced run alternates
  // traced and untraced passes so the tracing overhead is measured on
  // the same inputs.
  int serial_passes = 0;
  std::vector<double> traced_s;
  auto serial = [&] {
    serial_cpu.Next();
    const bool traced = options.trace && serial_passes++ % 2 == 0;
    const size_t mark = tracer.size();
    std::vector<double> ignored;
    if (!traced) times.step_ms.emplace_back();
    std::vector<double>* tick_ms = traced ? &ignored : &times.step_ms.back();
    double seconds = 0;
    size_t retained_max = 0;
    for (const Case& c : cases) {
      LiveRun run;
      tracer.set_on(traced);
      const bool ok = live_pass(c, 1, tick_ms, &run);
      tracer.set_on(false);
      if (!ok) return false;
      CheckAgainstFirst(c.first, run, "serial pass", report);
      seconds += run.seconds;
      retained_max = std::max(retained_max, run.retained_max);
    }
    if (traced) {
      traced_s.push_back(seconds);
      layers.AddSelfMs(mark, tracer.size());
      layers.Add("switching.retained_max", static_cast<double>(retained_max));
    } else {
      times.serial_s.push_back(seconds);
    }
    return true;
  };

  // The same runs with the supervisor routing on 2 workers.
  auto par2 = [&] {
    par2_cpu.Next();
    double seconds = 0;
    for (const Case& c : cases) {
      LiveRun run;
      std::vector<double> ignored;
      if (!live_pass(c, 2, &ignored, &run)) return false;
      CheckAgainstFirst(c.first, run, "par2 pass", report);
      seconds += run.seconds;
    }
    times.par2_s.push_back(seconds);
    return true;
  };

  // Recovery from each scenario's live journal.
  auto recover = [&] {
    recover_cpu.Next();
    double seconds = 0;
    for (const Case& c : cases) {
      const double s = TimeRecover(c.first, options.trace, report);
      if (s < 0) return false;
      seconds += s;
    }
    times.recover_s.push_back(seconds);
    return true;
  };

  RunRounds(After(start, options.seconds), 2,
            RoundOf(options, setup, serial, par2, recover));
  UnpinCpu();
  if (!report->correct) return;
  if (!options.trace) {
    times.Publish(report);
    return;
  }
  // Governor and switch counts are totals over the scenarios' pass 0;
  // the other counts, sizes and the switching replay come from the first
  // scenario's; times are per traced pass over every scenario.
  const LiveRun& first = cases.front().first;
  std::vector<double> snapshot_kb;
  const size_t replay_mark = tracer.size();
  tracer.set_on(true);
  Status replayed = ReplaySwitching(first.journal, &layers, &snapshot_kb);
  tracer.set_on(false);
  if (!replayed.ok()) {
    report->Fail("switching replay: " + replayed.ToString());
    return;
  }
  report->Set("supervisor.tick_ms", layers.MedianOf("supervisor.tick"), "ms");
  report->Set("transport.step_ms", layers.MedianOf("transport.step"), "ms");
  report->Set("client.pump_ms", layers.MedianOf("client.pump"), "ms");
  report->Set("supervisor.queue_max", static_cast<double>(first.queue_max),
              "count");
  uint64_t switches = 0;
  for (const Case& c : cases) switches += c.first.switches;
  report->Set("governor.degrades", static_cast<double>(degrades), "count");
  report->Set("governor.restores", static_cast<double>(restores), "count");
  report->Set("switching.switches", static_cast<double>(switches), "count");
  report->Set("switching.retained_max",
              layers.MedianOf("switching.retained_max"), "count");
  report->Set("switching.push_sync_ms",
              layers.MedianOf("switching.push_sync_ms"), "ms");
  report->Set("switching.push_data_us",
              layers.MedianOf("switching.push_data_us"), "us");
  report->Set("query.snapshot_ms", layers.MedianOf("query.snapshot_ms"), "ms");
  report->Set("query.finish_ms", layers.MedianOf("query.finish_ms"), "ms");
  for (const QueryDef& q : SupervisedQueries()) {
    report->Set("query.push_ms." + q.name,
                layers.MedianOf("query.push_ms." + q.name), "ms");
  }
  report->Set("query.snapshot_kb",
              snapshot_kb.empty() ? 0.0 : snapshot_kb.back(), "KiB");
  report->Set("journal.kb", static_cast<double>(first.journal.size()) / 1024,
              "KiB");
  report->Set("net.frames", static_cast<double>(first.wire.data_sent),
              "count");
  report->Set("net.retransmits", static_cast<double>(first.retransmits),
              "count");
  report->Set("session.duplicates", static_cast<double>(first.duplicates),
              "count");
  report->Set("net.useful_frac",
              first.wire.data_delivered == 0
                  ? 0.0
                  : static_cast<double>(first.accepted) /
                        static_cast<double>(first.wire.data_delivered),
              "ratio");
  report->Set("ops.state_max", static_cast<double>(first.stats.max_state_size),
              "count");
  report->Set("consistency.buffer_max",
              static_cast<double>(first.stats.max_buffer_size), "count");
  report->Set("consistency.blocking_total",
              static_cast<double>(first.stats.total_blocking), "ticks");
  report->Set("consistency.lost_corrections",
              static_cast<double>(first.stats.lost_corrections), "count");
  double out = 0;
  for (const auto& [name, messages] : first.outputs) {
    out += static_cast<double>(messages.size());
  }
  report->Set("sink.out_msgs", out, "count");
  report->Set("parallel.efficiency",
              Median(times.serial_s) / (2.0 * Median(times.par2_s)), "ratio");
  report->Set("parallel.par2_events_per_s", times.Par2EventsPerS(), "1/s");
  report->Set("trace.events_per_s", n / Median(traced_s), "1/s");
  report->Set("trace.overhead_frac",
              Median(traced_s) / Median(times.serial_s) - 1.0, "ratio");
  PrintTopSelfTime("supervised_net (live ticks, recovery)", 0, replay_mark,
                   12);
  PrintTopSelfTime("supervised_net (switching replay)", replay_mark,
                   tracer.size(), 6);
  if (!snapshot_kb.empty()) {
    std::printf("  %s snapshot size over output history (KiB, every 16th "
                "sync point):",
                SupervisedQueries().front().name.c_str());
    const size_t stride = std::max<size_t>(1, snapshot_kb.size() / 8);
    for (size_t i = 0; i < snapshot_kb.size(); i += stride) {
      std::printf(" %.1f", snapshot_kb[i]);
    }
    std::printf(" ... %.1f\n", snapshot_kb.back());
  }
}

}  // namespace perfbench
