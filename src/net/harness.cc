#include "net/harness.h"

#include <algorithm>
#include <memory>

#include "common/format.h"
#include "denotation/ideal.h"
#include "io/serde.h"
#include "stream/coalesce.h"

namespace cedr {
namespace net {

namespace {

/// FNV-1a over the source name: a stable per-source seed perturbation
/// (std::hash is not guaranteed stable across implementations).
uint64_t SourceSalt(const std::string& source) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : source) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

Result<NetRun> RunOverTransport(const testing::SupervisedScenario& scenario,
                                SupervisorConfig config,
                                const NetRunOptions& options) {
  // The delivery contract requires rejecting holes: with resync, a
  // wire-dropped frame's retransmission lands below the resynced cursor
  // and is silently dropped as a duplicate - data loss.
  config.session.gap_policy = GapPolicy::kReject;
  SupervisedService svc(config);
  CEDR_RETURN_NOT_OK(testing::RegisterScenario(&svc, scenario));

  SimulatedTransport transport(&svc, options.seed);
  std::map<std::string, std::unique_ptr<SourceClient>> clients;
  for (const auto& [source, types] : scenario.sources) {
    auto faults_it = options.faults_per_source.find(source);
    transport.SetLinkFaults(source,
                            faults_it != options.faults_per_source.end()
                                ? faults_it->second
                                : options.faults);
    ClientConfig cc = options.client;
    cc.seed = options.seed ^ SourceSalt(source);
    clients.emplace(source, std::make_unique<SourceClient>(
                                &transport, source, cc));
  }
  for (auto& [source, client] : clients) {
    CEDR_RETURN_NOT_OK(client->Connect());
  }

  NetRun net;
  size_t next = 0;
  int64_t tick = 0;
  auto all_done = [&] {
    if (next < scenario.feed.size()) return false;
    for (const auto& [source, client] : clients) {
      if (!client->Done()) return false;
    }
    return transport.InFlight() == 0 && svc.queue_depth() == 0;
  };
  while (!all_done()) {
    if (tick > options.tick_limit) {
      size_t unacked = 0;
      for (const auto& [source, client] : clients) {
        unacked += client->Unacked();
      }
      return Status::Internal(
          StrCat("transport run made no progress by tick ", tick, ": ",
                 unacked, " calls unacked, ", transport.InFlight(),
                 " frames in flight, queue depth ", svc.queue_depth()));
    }
    while (next < scenario.feed.size() &&
           scenario.feed[next].at_tick <= tick) {
      const testing::SupervisedCall& action = scenario.feed[next];
      SourceClient& client = *clients.at(action.source);
      if (action.action == testing::SupervisedCall::Action::kReconnect) {
        CEDR_RETURN_NOT_OK(client.Connect());
      } else {
        switch (action.call.op) {
          case io::JournalOp::kPublish:
            client.Publish(action.call.name, action.call.event);
            break;
          case io::JournalOp::kRetract:
            client.Retract(action.call.name, action.call.event,
                           action.call.new_ve);
            break;
          case io::JournalOp::kSyncPoint:
            client.SyncPoint(action.call.name, action.call.time);
            break;
          default:
            return Status::InvalidArgument(
                "transport feed calls must be publish/retract/sync");
        }
      }
      ++next;
    }
    for (auto& [source, client] : clients) {
      CEDR_RETURN_NOT_OK(client->Pump(tick));
    }
    CEDR_RETURN_NOT_OK(transport.Step(tick));
    CEDR_RETURN_NOT_OK(svc.Tick());
    ++tick;
  }
  net.converged_tick = tick;
  for (int64_t t = 0; t < scenario.trailing_ticks; ++t) {
    CEDR_RETURN_NOT_OK(transport.Step(tick));
    CEDR_RETURN_NOT_OK(svc.Tick());
    ++tick;
  }
  CEDR_RETURN_NOT_OK(testing::FinishSupervisedRun(&svc, scenario, &net.run));
  for (const auto& [source, client] : clients) {
    net.clients[source] = client->stats();
    net.links[source] = transport.stats(source);
  }
  net.wire = transport.TotalStats();
  return net;
}

std::string CanonicalIdealBytes(const EventList& ideal) {
  // Canonicalize to the changing relation the stream denotes (payload ->
  // coalesced interval set) and re-expand: ids become deterministic
  // functions of (payload, interval), and arrival stamps vanish. Two
  // runs that converged to the same answer - regardless of delivery
  // order, retries, or event-id assignment - serialize identically.
  EventList canon = FromRelation(ToRelation(ideal));
  io::BinaryWriter out;
  out.PutU64(canon.size());
  for (Event& e : canon) {
    e.cs = 0;
    e.ce = 0;
    io::WriteEvent(&out, e);
  }
  return out.Take();
}

bool ConvergedIdentical(const std::map<std::string, EventList>& a,
                        const std::map<std::string, EventList>& b) {
  if (a.size() != b.size()) return false;
  for (const auto& [name, ideal] : a) {
    auto it = b.find(name);
    if (it == b.end()) return false;
    if (!denotation::StarEqual(ideal, it->second)) return false;
    // Belt and braces: the canonical serialization must agree too (it
    // is what the bench commits and diffs).
    if (CanonicalIdealBytes(ideal) != CanonicalIdealBytes(it->second)) {
      return false;
    }
  }
  return true;
}

}  // namespace net
}  // namespace cedr
