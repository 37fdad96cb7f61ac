// Shared test utilities: feeding operators, oracles, random streams.
#ifndef CEDR_TESTS_TESTING_HELPERS_H_
#define CEDR_TESTS_TESTING_HELPERS_H_

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "denotation/ideal.h"
#include "engine/sink.h"
#include "ops/operator.h"
#include "stream/message.h"

namespace cedr {
namespace testing {

/// Feeds `messages` into `op` port `port` followed by CTI(inf), drains,
/// and returns nothing; outputs accumulate in whatever sink is wired.
Status FeedPort(Operator* op, int port, const std::vector<Message>& messages,
                bool finish = true);

/// Runs a unary operator over a single input stream and returns the
/// collecting sink (kept alive by the returned pair).
struct RunResult {
  std::unique_ptr<CollectingSink> sink;
  Status status;

  EventList Ideal() const { return sink->Ideal(); }
  uint64_t retracts() const { return sink->retracts(); }
};

RunResult RunUnary(Operator* op, const std::vector<Message>& input);

/// Runs a binary operator over two input streams merged by cs.
RunResult RunBinary(Operator* op, const std::vector<Message>& left,
                    const std::vector<Message>& right);

/// Merges per-port streams by cs and pushes into the operator.
RunResult RunMultiPort(Operator* op,
                       const std::vector<std::vector<Message>>& inputs);

/// Generates `n` insert events with random lifetimes in [0, horizon),
/// payloads (key: int in [0, keys), value: int) and optional retractions.
std::vector<Message> RandomStream(Rng* rng, int n, Time horizon, int keys,
                                  double retract_fraction = 0.0);

/// Schema used by RandomStream: (key: int64, value: int64).
SchemaPtr KeyValueSchema();
Row KV(int64_t key, int64_t value);

/// Re-chops event lifetimes into random adjacent fragments while
/// preserving the relation (for view-update-compliance properties).
EventList RechopLifetimes(const EventList& events, Rng* rng);

/// Asserts helper: renders an EventList compactly for failure messages.
std::string Describe(const EventList& events);

/// Whether two events agree in every header field, the payload values,
/// the payload schema (structurally) and, recursively, the lineage.
::testing::AssertionResult IdenticalEvents(const Event& a, const Event& b);

}  // namespace testing
}  // namespace cedr

#endif  // CEDR_TESTS_TESTING_HELPERS_H_
