// The paper's future-work demo, realized: "consistency sensitive query
// optimizations that when permissible, can determine when to switch from
// one consistency level to another under periods of heavy load due to
// event bursts" (Section 7).
//
// A strong-consistency query is driven through a workload whose provider
// guarantees stall mid-stream (a burst/outage: events keep arriving but
// no sync points). Strong consistency's alignment buffers grow without
// bound; a threshold on the buffer trips, the query switches to middle
// consistency at a sync point, and the buffers drain. When the provider
// recovers, the query switches back. The converged answer is
// identical to a pure run.
#include <cstdio>

#include "common/format.h"
#include "denotation/patterns.h"
#include "engine/switching.h"
#include "workload/disorder.h"
#include "workload/machines.h"

namespace cedr {
namespace {

int Run() {
  workload::MachineConfig config;
  config.num_machines = 10;
  config.num_sessions = 900;
  config.max_session_length = 40;
  config.restart_scope = 10;
  config.session_interval = 4;
  workload::MachineStreams streams = workload::GenerateMachineEvents(config);

  // Build the arrival feed, then simulate a guarantee outage: drop all
  // CTIs in the middle third of the stream.
  DisorderConfig dconfig;
  dconfig.disorder_fraction = 0.3;
  dconfig.max_delay = 8;
  dconfig.cti_period = 10;
  std::vector<LabeledStream> labeled = {
      {"INSTALL", ApplyDisorder(streams.installs, dconfig)},
      {"SHUTDOWN", ApplyDisorder(streams.shutdowns, dconfig)},
      {"RESTART", ApplyDisorder(streams.restarts, dconfig)}};
  auto merged = MergeByArrival(labeled);
  size_t outage_begin = merged.size() / 3;
  size_t outage_end = 2 * merged.size() / 3;
  std::vector<std::pair<std::string, Message>> feed;
  for (size_t i = 0; i < merged.size(); ++i) {
    if (i >= outage_begin && i < outage_end &&
        merged[i].second.kind == MessageKind::kCti) {
      continue;  // the provider stops declaring sync points
    }
    feed.push_back(merged[i]);
  }

  std::string text =
      "EVENT Adaptive\n"
      "WHEN UNLESS(SEQUENCE(INSTALL AS x, SHUTDOWN AS y, 40),\n"
      "            RESTART AS z, 10)\n"
      "WHERE CorrelationKey(Machine_Id, EQUAL)";

  auto query = SwitchableQuery::Create(text, workload::MachineCatalog(),
                                       ConsistencySpec::Strong())
                   .ValueOrDie();

  std::printf(
      "Adaptive consistency under a sync-point outage (messages %zu-%zu\n"
      "carry no provider guarantees).\n\n",
      outage_begin, outage_end);
  std::printf("%-10s %-10s %-14s %-10s\n", "progress", "buffer",
              "level", "switches");
  size_t check_every = feed.size() / 12;
  for (size_t i = 0; i < feed.size(); ++i) {
    if (i % check_every == check_every - 1) {
      QueryStats stats = query->Stats();
      ConsistencySpec want = stats.max_buffer_size > 60
                                 ? ConsistencySpec::Middle()
                                 : ConsistencySpec::Strong();
      if (!(want == query->current_spec())) {
        query->SwitchTo(want).ok();
      }
      std::printf("%7zu%%   %-10zu %-14s %d\n", 100 * i / feed.size(),
                  stats.max_buffer_size,
                  query->current_spec().ToString().c_str(),
                  query->switches());
    }
    if (!query->Push(feed[i].first, feed[i].second).ok()) return 1;
  }
  query->Finish().ok();

  // Ground truth: a pure middle run over the same feed.
  auto pure = CompiledQuery::Compile(text, workload::MachineCatalog(),
                                     ConsistencySpec::Middle())
                  .ValueOrDie();
  for (const auto& [type, msg] : feed) pure->Push(type, msg).ok();
  pure->Finish().ok();

  bool exact = denotation::StarEqual(query->Ideal(), pure->sink().Ideal());
  std::printf(
      "\nswitches: %d, converged alerts: %zu, matches pure run: %s\n",
      query->switches(), query->Ideal().size(), exact ? "yes" : "NO");
  std::printf(
      "\nThe loop sheds the blocking level while guarantees are absent\n"
      "and restores it afterwards; Section 5's sync-point equivalence is\n"
      "what makes the splice seamless.\n");
  return exact ? 0 : 1;
}

}  // namespace
}  // namespace cedr

int main() { return cedr::Run(); }
