// Section 3.1: the CIDR07_Example query end to end - parse, bind, plan,
// execute on the machine workload at each consistency level, and
// validate against the denotational oracle.
#include <cstdio>

#include "denotation/patterns.h"
#include "engine/executor.h"
#include "engine/query.h"
#include "lang/parser.h"
#include "workload/disorder.h"
#include "workload/machines.h"

namespace cedr {
namespace {

EventList EventsOf(const std::vector<Message>& stream) {
  EventList out;
  for (const Message& m : stream) {
    if (m.kind == MessageKind::kInsert) out.push_back(m.event);
  }
  return out;
}

int Run() {
  // Scaled-down scopes (ticks) so the bench runs in milliseconds; the
  // structure is exactly the paper's 12-hours / 5-minutes query.
  std::string text =
      "EVENT CIDR07_Example\n"
      "WHEN UNLESS(SEQUENCE(INSTALL x,\n"
      "                SHUTDOWN AS y, 50),\n"
      "                RESTART AS z, 10)\n"
      "WHERE {x.Machine_Id = y.Machine_Id} AND\n"
      "      {x.Machine_Id = z.Machine_Id}";
  std::printf("Section 3.1 example query:\n\n%s\n\n", text.c_str());

  auto parsed = ParseQuery(text).ValueOrDie();
  std::printf("parsed AST:\n%s\n\n", parsed.ToString().c_str());

  workload::MachineConfig config;
  config.num_machines = 15;
  config.num_sessions = 1000;
  config.max_session_length = 50;
  config.restart_scope = 10;
  config.session_interval = 4;
  workload::MachineStreams streams = workload::GenerateMachineEvents(config);

  // The denotational oracle.
  EventList seq = denotation::Sequence(
      {EventsOf(streams.installs), EventsOf(streams.shutdowns)}, 50,
      [](const std::vector<const Event*>& t) {
        if (t.size() < 2) return true;
        return t[0]->payload.at(0) == t[1]->payload.at(0);
      });
  EventList oracle = denotation::Unless(
      seq, EventsOf(streams.restarts), 10,
      [](const std::vector<const Event*>& t, const Event& z) {
        return t[0]->payload.at(0) == z.payload.at(0);
      });
  std::printf("denotational oracle: %zu alerts\n\n", oracle.size());

  DisorderConfig dconfig;
  dconfig.disorder_fraction = 0.5;
  dconfig.max_delay = 15;
  dconfig.cti_period = 20;
  auto prepare = [&](const std::vector<Message>& s, uint64_t seed) {
    DisorderConfig c = dconfig;
    c.seed = seed;
    return ApplyDisorder(s, c);
  };
  std::vector<Message> installs = prepare(streams.installs, 1);
  std::vector<Message> shutdowns = prepare(streams.shutdowns, 2);
  std::vector<Message> restarts = prepare(streams.restarts, 3);

  bool printed_plan = false;
  for (ConsistencySpec spec :
       {ConsistencySpec::Strong(), ConsistencySpec::Middle(),
        ConsistencySpec::Weak(20)}) {
    auto query = CompiledQuery::Compile(text, workload::MachineCatalog(),
                                        spec)
                     .ValueOrDie();
    if (!printed_plan) {
      std::printf("bound plan:\n%s\n", query->bound().ToString().c_str());
      std::printf("%s\n", query->physical().ToString().c_str());
      printed_plan = true;
    }
    Executor executor;
    executor.Register(query.get());
    Status st = executor.Run({{"INSTALL", installs},
                              {"SHUTDOWN", shutdowns},
                              {"RESTART", restarts}});
    if (!st.ok()) {
      std::fprintf(stderr, "run failed: %s\n", st.ToString().c_str());
      return 1;
    }
    EventList ideal = query->sink().Ideal();
    QueryStats stats = query->Stats();
    std::printf(
        "%-10s alerts=%4zu (oracle %zu, %s)  output=%5llu  retracts=%4llu"
        "  lost=%3llu  blocking(mean)=%6.2f  state(max)=%zu\n",
        spec.ToString().c_str(), ideal.size(), oracle.size(),
        denotation::StarEqual(ideal, oracle) ? "exact" : "DIVERGED",
        static_cast<unsigned long long>(query->sink().OutputSize()),
        static_cast<unsigned long long>(query->sink().retracts()),
        static_cast<unsigned long long>(stats.lost_corrections),
        stats.MeanBlocking(), stats.max_state_size);
  }
  std::printf(
      "\nStrong and middle agree exactly with the oracle despite 50%%\n"
      "of events arriving up to 15 ticks late; weak trades a bounded\n"
      "number of lost corrections for bounded state.\n");
  return 0;
}

}  // namespace
}  // namespace cedr

int main() { return cedr::Run(); }
