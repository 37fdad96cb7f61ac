// Network-chaos delivery sweep (DESIGN.md, "Delivery & transport
// faults"): drives the supervised runtime through SourceClient +
// SimulatedTransport under seeded wire faults - loss, duplication,
// reordering, resets, timed partitions, and server-side throttling -
// and asserts the exactly-once delivery contract on every schedule:
//
//   * the process never crashes and every run converges (all clients
//     drained, nothing in flight, queue empty);
//   * every query's converged output is identical to the fault-free
//     reference run (StarEqual + canonical serialized bytes);
//   * the wire books balance exactly: client sends + retransmissions ==
//     frames on the wire; frames on the wire + injected copies ==
//     delivered + dropped + partition-lost + reset-lost; every delivered
//     frame's verdict is a protocol outcome (never an engine error);
//   * no double application: server accepted == client enqueued, with
//     every surplus delivery accounted as a session-level duplicate
//     drop or an out-of-order/stale-epoch rejection.
//
// Given --out, writes machine-readable delivery metrics (the committed
// BENCH_delivery.json).
//
//   netchaos [--seed=N] [--schedules=N] [--sessions=N]
//            [--only=K] [--out=FILE] [--verbose]
//
//   --seed=N       base seed; schedule k runs with seed N+k (default 1)
//   --schedules=N  schedules to run, cycling through the fault profiles
//                  (default 200, i.e. 25 seeds x 8 profiles)
//   --sessions=N   workload size per schedule (default 60)
//   --only=K       run only schedule K (reproduce one failure)
//   --out=FILE     write the metrics JSON to FILE (default: none)
//   exit status    0 iff every schedule passed every assertion.
#include <algorithm>
#include <chrono>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "cli.h"
#include "common/format.h"
#include "net/harness.h"
#include "workload/machines.h"

namespace cedr {
namespace {

using bench::ParseFlag;
using bench::ParseUint;
using testing::RunSupervised;
using testing::SupervisedRun;
using testing::SupervisedScenario;

using Clock = std::chrono::steady_clock;

struct Options {
  uint64_t seed = 1;
  uint64_t schedules = 200;
  uint64_t sessions = 60;
  int64_t only = -1;
  bool verbose = false;
  std::string out;  // empty: no JSON
};

void Usage(std::ostream& os) {
  os << "usage: netchaos [--seed=N] [--schedules=N] [--sessions=N] "
        "[--only=K]\n"
        "                [--out=FILE] [--verbose]\n"
        "Drives the supervised runtime through resilient source clients\n"
        "over a seeded faulty transport (loss/dup/reorder/reset/partition/"
        "throttle),\n"
        "asserts exactly-once delivery and converged-output equality with\n"
        "the fault-free run, and writes delivery metrics to --out.\n";
}

/// One wire-fault profile of the sweep. Schedule k runs profile
/// k % kNumProfiles.
struct Profile {
  const char* name;
  net::LinkFaults faults;
  /// Partition windows are placed relative to the feed horizon at run
  /// time (the profile just enables them).
  bool partition = false;
  /// Server-side throttling: tenant calls/tick quota forcing
  /// kResourceExhausted + retry-after on a clean wire.
  uint64_t rate_quota = 0;
};

std::vector<Profile> Profiles() {
  std::vector<Profile> profiles;
  profiles.push_back({"clean", {}, false, 0});
  {
    Profile p{"loss", {}, false, 0};
    p.faults.drop = 0.15;
    profiles.push_back(p);
  }
  {
    Profile p{"dup", {}, false, 0};
    p.faults.duplicate = 0.20;
    profiles.push_back(p);
  }
  {
    Profile p{"reorder", {}, false, 0};
    p.faults.reorder = 0.30;
    p.faults.reorder_delay_max = 6;
    profiles.push_back(p);
  }
  {
    Profile p{"partition", {}, true, 0};
    profiles.push_back(p);
  }
  {
    Profile p{"reset", {}, false, 0};
    p.faults.reset_per_tick = 0.02;
    profiles.push_back(p);
  }
  {
    Profile p{"storm", {}, true, 0};
    p.faults.drop = 0.10;
    p.faults.duplicate = 0.10;
    p.faults.reorder = 0.20;
    p.faults.reset_per_tick = 0.01;
    profiles.push_back(p);
  }
  profiles.push_back({"throttle", {}, false, 6});
  return profiles;
}

/// The Section 3.1 example query with a distinct EVENT name, so several
/// variants can stand side by side under one supervisor.
std::string RenamedQuery(const std::string& name, Duration scope_hours,
                         Duration scope_minutes) {
  std::string text = workload::Cidr07ExampleQuery(scope_hours, scope_minutes);
  const std::string from = "CIDR07_Example";
  size_t pos = text.find(from);
  if (pos != std::string::npos) text.replace(pos, from.size(), name);
  return text;
}

/// Three queries over three sources, one event type per source: every
/// type crosses its own faulty link, so cross-source reordering is real.
SupervisedScenario BuildScenario(uint64_t workload_seed, uint64_t sessions) {
  SupervisedScenario scenario;
  scenario.catalog = workload::MachineCatalog();
  scenario.queries.push_back(
      {RenamedQuery("Net_Strong", 12, 5), ConsistencySpec::Strong(),
       std::nullopt});
  scenario.queries.push_back(
      {RenamedQuery("Net_Middle", 8, 3), ConsistencySpec::Middle(),
       std::nullopt});
  scenario.queries.push_back(
      {RenamedQuery("Net_Wide", 24, 10), ConsistencySpec::Strong(),
       std::nullopt});
  scenario.sources["src-install"] = {"INSTALL"};
  scenario.sources["src-shutdown"] = {"SHUTDOWN"};
  scenario.sources["src-restart"] = {"RESTART"};

  workload::MachineConfig machines;
  machines.num_machines = 12;
  machines.num_sessions = static_cast<size_t>(sessions);
  machines.seed = workload_seed;
  workload::MachineStreams streams =
      workload::GenerateMachineEvents(machines);
  scenario.feed = testing::MergeSupervisedFeeds(
      {testing::PaceFeed("src-install",
                         testing::FeedOf("INSTALL", streams.installs), 0, 4),
       testing::PaceFeed("src-shutdown",
                         testing::FeedOf("SHUTDOWN", streams.shutdowns), 0,
                         4),
       testing::PaceFeed("src-restart",
                         testing::FeedOf("RESTART", streams.restarts), 0,
                         4)});
  scenario.trailing_ticks = 24;
  return scenario;
}

/// Sweep-wide aggregation, per profile.
struct ProfileTally {
  uint64_t schedules = 0;
  uint64_t failures = 0;
  uint64_t enqueued = 0;
  uint64_t sends = 0;
  uint64_t retransmissions = 0;
  uint64_t delivered = 0;
  uint64_t wire_dropped = 0;  // drop + partition + reset losses
  uint64_t wire_duplicated = 0;
  uint64_t deduped = 0;        // session-level duplicate drops
  uint64_t gap_rejects = 0;    // out-of-order rejections (kReject)
  uint64_t stale_rejects = 0;  // fenced zombie frames
  uint64_t backpressure = 0;   // kResourceExhausted acks
  uint64_t backoffs = 0;
  uint64_t resets = 0;
  uint64_t handshakes = 0;
  int64_t total_converged_ticks = 0;
  int64_t total_horizon_ticks = 0;
};

struct Tally {
  uint64_t schedules = 0;
  uint64_t crashes = 0;
  uint64_t equality_failures = 0;
  uint64_t conservation_failures = 0;
  std::vector<ProfileTally> per_profile;
};

/// One conservation check; logs and counts on violation.
bool CheckEq(uint64_t lhs, uint64_t rhs, const char* law, uint64_t seed,
             Tally* tally) {
  if (lhs == rhs) return true;
  std::cerr << "schedule " << seed << ": conservation violated: " << law
            << " (" << lhs << " != " << rhs << ")\n";
  ++tally->conservation_failures;
  return false;
}

bool RunOneSchedule(uint64_t seed, size_t profile_index,
                    const Profile& profile, const Options& opts,
                    Tally* tally) {
  ProfileTally& pt = tally->per_profile[profile_index];
  ++pt.schedules;
  SupervisedScenario scenario = BuildScenario(seed, opts.sessions);
  const int64_t horizon =
      scenario.feed.empty() ? 1 : scenario.feed.back().at_tick + 1;

  SupervisorConfig config;
  // Liveness synthesis would shed partition-delayed traffic and change
  // the converged answer; the delivery contract covers arbitrarily late
  // retransmission, so the sweep runs with heartbeats off.
  config.session.heartbeat_timeout = 0;
  if (profile.rate_quota > 0) {
    config.tenants.default_quota.max_calls_per_tick = profile.rate_quota;
  }

  // Fault-free reference: the same workload offered directly (no
  // transport). Converged output must be identical through any wire.
  SupervisorConfig ref_config;
  ref_config.session.heartbeat_timeout = 0;
  Result<SupervisedRun> reference = RunSupervised(scenario, ref_config);
  if (!reference.ok()) {
    std::cerr << "schedule " << seed << ": reference run failed: "
              << reference.status().ToString() << "\n";
    ++tally->crashes;
    return false;
  }

  net::NetRunOptions net_options;
  net_options.seed = seed * 0x9E3779B97F4A7C15ULL + 1;
  net_options.faults = profile.faults;
  if (profile.partition) {
    // Two cuts per link, staggered across sources so they never fully
    // overlap: each wedge of the feed crosses a dead window somewhere.
    int64_t width = std::max<int64_t>(4, horizon / 6);
    int64_t base = std::max<int64_t>(1, horizon / 5);
    size_t link = 0;
    for (const auto& [source, types] : scenario.sources) {
      net::LinkFaults faults = profile.faults;
      int64_t start = base + static_cast<int64_t>(link) * (width / 2 + 1);
      faults.partitions.push_back({start, start + width});
      faults.partitions.push_back({start + 3 * width, start + 4 * width});
      net_options.faults_per_source[source] = faults;
      ++link;
    }
  }

  Result<net::NetRun> result =
      net::RunOverTransport(scenario, config, net_options);
  if (!result.ok()) {
    std::cerr << "schedule " << seed << ": transport run failed: "
              << result.status().ToString() << "\n";
    ++tally->crashes;
    return false;
  }
  const net::NetRun& net_run = result.ValueOrDie();
  const SupervisedRun& ref = reference.ValueOrDie();

  bool ok = true;
  // Converged-output equality with the fault-free run. Physical (cs)
  // stamps legitimately differ through a faulty wire; the converged
  // ideal may not.
  if (!net::ConvergedIdentical(ref.ideals, net_run.run.ideals)) {
    std::cerr << "schedule " << seed << " [" << profile.name
              << "]: converged output differs from the fault-free run\n";
    ++tally->equality_failures;
    ok = false;
  }
  // The equality claim presumes nothing was shed; prove it.
  if (net_run.run.shed.TotalShed() != 0) {
    std::cerr << "schedule " << seed << " [" << profile.name
              << "]: unexpected shedding ("
              << net_run.run.shed.TotalShed() << " messages)\n";
    ++tally->equality_failures;
    ok = false;
  }

  // The books must balance exactly, per link and in total.
  uint64_t enqueued = 0, sends = 0, retrans = 0, accepted = 0, dups = 0;
  uint64_t gap_rejects = 0, stale_rejects = 0, quarantine_rejects = 0;
  for (const auto& [source, cs] : net_run.clients) {
    const net::LinkStats& ls = net_run.links.at(source);
    const SessionStats& ss = net_run.run.sessions.at(source);
    ok &= CheckEq(cs.sends + cs.retransmissions, ls.data_sent,
                  StrCat("client transmissions == wire frames ('", source,
                         "')")
                      .c_str(),
                  seed, tally);
    ok &= CheckEq(ls.data_sent + ls.data_duplicated,
                  ls.data_delivered + ls.data_dropped +
                      ls.data_partition_lost + ls.data_reset_lost,
                  StrCat("wire frames in == delivered + lost ('", source,
                         "')")
                      .c_str(),
                  seed, tally);
    ok &= CheckEq(ls.data_delivered,
                  ls.server_ok + ls.server_backpressure +
                      ls.server_out_of_order + ls.server_stale_epoch +
                      ls.server_other_error,
                  StrCat("deliveries == classified verdicts ('", source,
                         "')")
                      .c_str(),
                  seed, tally);
    ok &= CheckEq(ls.server_other_error, 0,
                  StrCat("non-protocol verdicts ('", source, "')").c_str(),
                  seed, tally);
    ok &= CheckEq(ls.server_ok, ss.accepted + ss.duplicates,
                  StrCat("OK verdicts == accepted + deduped ('", source,
                         "')")
                      .c_str(),
                  seed, tally);
    ok &= CheckEq(ls.server_stale_epoch,
                  ss.stale_epoch_rejects + ss.quarantine_rejects,
                  StrCat("stale verdicts == fenced rejects ('", source,
                         "')")
                      .c_str(),
                  seed, tally);
    ok &= CheckEq(ls.server_out_of_order, ss.out_of_order_rejects,
                  StrCat("gap verdicts == gap rejects ('", source, "')")
                      .c_str(),
                  seed, tally);
    // Exactly-once: every enqueued call applied exactly once.
    ok &= CheckEq(ss.accepted, cs.enqueued,
                  StrCat("accepted == enqueued ('", source, "')").c_str(),
                  seed, tally);
    ok &= CheckEq(cs.submitted, cs.enqueued,
                  StrCat("acked == enqueued ('", source, "')").c_str(),
                  seed, tally);
    enqueued += cs.enqueued;
    sends += cs.sends;
    retrans += cs.retransmissions;
    accepted += ss.accepted;
    dups += ss.duplicates;
    gap_rejects += ss.out_of_order_rejects;
    stale_rejects += ss.stale_epoch_rejects;
    quarantine_rejects += ss.quarantine_rejects;
    pt.backoffs += cs.backoffs;
    pt.handshakes += cs.handshakes;
  }
  ok &= CheckEq(quarantine_rejects, 0, "no quarantine rejections", seed,
                tally);
  const net::LinkStats& wire = net_run.wire;
  pt.enqueued += enqueued;
  pt.sends += sends;
  pt.retransmissions += retrans;
  pt.delivered += wire.data_delivered;
  pt.wire_dropped += wire.data_dropped + wire.data_partition_lost +
                     wire.data_reset_lost;
  pt.wire_duplicated += wire.data_duplicated;
  pt.deduped += dups;
  pt.gap_rejects += gap_rejects;
  pt.stale_rejects += stale_rejects;
  pt.backpressure += wire.server_backpressure;
  pt.resets += wire.resets;
  pt.total_converged_ticks += net_run.converged_tick;
  pt.total_horizon_ticks += horizon;

  if (opts.verbose) {
    std::cout << "schedule " << seed << " [" << profile.name << "]: "
              << enqueued << " calls, " << retrans << " retrans, " << dups
              << " deduped, converged @" << net_run.converged_tick << " ("
              << (ok ? "ok" : "FAILED") << ")\n";
  }
  if (!ok) ++pt.failures;
  return ok;
}

int RunMain(const Options& opts) {
  std::vector<Profile> profiles = Profiles();
  Tally tally;
  tally.per_profile.resize(profiles.size());
  uint64_t failed_schedules = 0;
  auto start = Clock::now();
  const uint64_t begin = opts.only >= 0
                             ? opts.seed + static_cast<uint64_t>(opts.only)
                             : opts.seed;
  const uint64_t count = opts.only >= 0 ? 1 : opts.schedules;
  const uint64_t first_index =
      opts.only >= 0 ? static_cast<uint64_t>(opts.only) : 0;
  for (uint64_t k = 0; k < count; ++k) {
    ++tally.schedules;
    const size_t profile_index =
        static_cast<size_t>((first_index + k) % profiles.size());
    bool ok = false;
    try {
      ok = RunOneSchedule(begin + k, profile_index,
                          profiles[profile_index], opts, &tally);
    } catch (const std::exception& e) {
      std::cerr << "schedule " << (begin + k)
                << ": escaped exception: " << e.what() << "\n";
      ++tally.crashes;
    } catch (...) {
      std::cerr << "schedule " << (begin + k)
                << ": escaped non-standard exception\n";
      ++tally.crashes;
    }
    if (!ok) ++failed_schedules;
  }
  double elapsed =
      std::chrono::duration<double>(Clock::now() - start).count();

  uint64_t total_enqueued = 0, total_retrans = 0, total_deduped = 0;
  for (const ProfileTally& pt : tally.per_profile) {
    total_enqueued += pt.enqueued;
    total_retrans += pt.retransmissions;
    total_deduped += pt.deduped;
  }
  std::cout << "netchaos: " << (tally.schedules - failed_schedules) << "/"
            << tally.schedules << " schedules passed, " << tally.crashes
            << " crashes, " << tally.equality_failures
            << " equality failures, " << tally.conservation_failures
            << " conservation failures; " << total_enqueued << " calls, "
            << total_retrans << " retransmissions, " << total_deduped
            << " deduped\n";

  if (!opts.out.empty()) {
    std::ofstream json(opts.out, std::ios::trunc);
    json << "{\n"
         << "  \"bench\": \"netchaos\",\n"
         << "  \"seed\": " << opts.seed << ",\n"
         << "  \"schedules\": " << tally.schedules << ",\n"
         << "  \"sessions\": " << opts.sessions << ",\n"
         << "  \"failed_schedules\": " << failed_schedules << ",\n"
         << "  \"crashes\": " << tally.crashes << ",\n"
         << "  \"equality_failures\": " << tally.equality_failures << ",\n"
         << "  \"conservation_failures\": " << tally.conservation_failures
         << ",\n"
         << "  \"profiles\": [\n";
    for (size_t i = 0; i < profiles.size(); ++i) {
      const ProfileTally& pt = tally.per_profile[i];
      double slowdown =
          pt.total_horizon_ticks > 0
              ? static_cast<double>(pt.total_converged_ticks) /
                    static_cast<double>(pt.total_horizon_ticks)
              : 0.0;
      json << "    {\n"
           << "      \"profile\": \"" << profiles[i].name << "\",\n"
           << "      \"schedules\": " << pt.schedules << ",\n"
           << "      \"failures\": " << pt.failures << ",\n"
           << "      \"enqueued\": " << pt.enqueued << ",\n"
           << "      \"sends\": " << pt.sends << ",\n"
           << "      \"retransmissions\": " << pt.retransmissions << ",\n"
           << "      \"delivered\": " << pt.delivered << ",\n"
           << "      \"wire_dropped\": " << pt.wire_dropped << ",\n"
           << "      \"wire_duplicated\": " << pt.wire_duplicated << ",\n"
           << "      \"deduped\": " << pt.deduped << ",\n"
           << "      \"gap_rejects\": " << pt.gap_rejects << ",\n"
           << "      \"stale_epoch_rejects\": " << pt.stale_rejects << ",\n"
           << "      \"backpressure_acks\": " << pt.backpressure << ",\n"
           << "      \"backoffs\": " << pt.backoffs << ",\n"
           << "      \"resets\": " << pt.resets << ",\n"
           << "      \"handshakes\": " << pt.handshakes << ",\n"
           << "      \"convergence_slowdown\": "
           << FormatDouble(slowdown, 3) << "\n"
           << "    }" << (i + 1 < profiles.size() ? "," : "") << "\n";
    }
    json << "  ],\n"
         << "  \"seconds\": " << FormatDouble(elapsed, 3) << "\n"
         << "}\n";
  }
  return failed_schedules == 0 ? 0 : 1;
}

}  // namespace
}  // namespace cedr

int main(int argc, char** argv) {
  cedr::Options opts;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    uint64_t parsed = 0;
    if (cedr::ParseFlag(argv[i], "seed", &value)) {
      if (!cedr::ParseUint(value, &parsed)) {
        std::cerr << "netchaos: malformed value for --seed: '" << value
                  << "'\n";
        cedr::Usage(std::cerr);
        return 2;
      }
      opts.seed = parsed;
    } else if (cedr::ParseFlag(argv[i], "schedules", &value)) {
      if (!cedr::ParseUint(value, &parsed) || parsed == 0) {
        std::cerr << "netchaos: malformed value for --schedules: '" << value
                  << "'\n";
        cedr::Usage(std::cerr);
        return 2;
      }
      opts.schedules = parsed;
    } else if (cedr::ParseFlag(argv[i], "sessions", &value)) {
      if (!cedr::ParseUint(value, &parsed) || parsed == 0 ||
          parsed > 100000) {
        std::cerr << "netchaos: malformed value for --sessions: '" << value
                  << "'\n";
        cedr::Usage(std::cerr);
        return 2;
      }
      opts.sessions = parsed;
    } else if (cedr::ParseFlag(argv[i], "only", &value)) {
      if (!cedr::ParseUint(value, &parsed)) {
        std::cerr << "netchaos: malformed value for --only: '" << value
                  << "'\n";
        cedr::Usage(std::cerr);
        return 2;
      }
      opts.only = static_cast<int64_t>(parsed);
    } else if (cedr::ParseFlag(argv[i], "out", &value)) {
      opts.out = value;
    } else if (cedr::ParseFlag(argv[i], "verbose", &value)) {
      opts.verbose = value != "0";
    } else if (std::strcmp(argv[i], "--help") == 0 ||
               std::strcmp(argv[i], "-h") == 0) {
      cedr::Usage(std::cout);
      return 0;
    } else {
      std::cerr << "netchaos: unknown flag: " << argv[i] << "\n";
      cedr::Usage(std::cerr);
      return 2;
    }
  }
  return cedr::RunMain(opts);
}
