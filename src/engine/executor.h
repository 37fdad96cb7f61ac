// Executor: feeds labeled input streams to one or more standing queries
// in CEDR-time (arrival) order. Parallelism is across *queries*, not
// within one: every registered query consumes the identical
// arrival-ordered message sequence, queries share no mutable state, and
// each query's operator graph runs single-threaded. Per-query output is
// therefore bit-identical at every worker count; only wall-clock changes
// (see DESIGN.md, "Parallel execution & batching").
#ifndef CEDR_ENGINE_EXECUTOR_H_
#define CEDR_ENGINE_EXECUTOR_H_

#include <functional>

#include "engine/query.h"
#include "engine/source.h"
#include "engine/worker_pool.h"

namespace cedr {

struct ExecutorConfig {
  /// Total worker threads (including the calling thread). 1 runs every
  /// query inline on the calling thread and starts no thread.
  int workers = 1;
  /// Messages per fan-out batch in Run(). Larger batches amortize the
  /// pool handshake; the batch boundary is a barrier, so extreme sizes
  /// trade latency for throughput.
  size_t batch_size = 1024;
};

class Executor {
 public:
  explicit Executor(ExecutorConfig config = {});

  /// Registers a query; the executor does not take ownership.
  void Register(CompiledQuery* query);

  /// Merges the streams by arrival time, fans batches of the merged
  /// stream across the registered queries, then finishes the queries.
  Status Run(const std::vector<LabeledStream>& streams);

  /// Fans one batch across all live queries (one pool task per query)
  /// and waits for the batch barrier. Each query runs inside a fault
  /// domain (GuardQuery): a query whose PushBatch fails - by Status or
  /// by throwing - is quarantined (its sink closed with the terminal
  /// error, the query excluded from every later fan-out) while its
  /// siblings and the process are unaffected. Returns the error of the
  /// earliest registered query that failed *in this call* (so callers
  /// see the fault once); later calls return OK and keep serving the
  /// survivors.
  Status PushBatch(std::span<const TypedMessage> batch);

  /// Single-message convenience: a batch of one.
  Status Push(const std::string& event_type, const Message& msg);

  /// Finishes all live queries in the same fault domain: a query whose
  /// Finish fails is quarantined too. Already quarantined queries are
  /// not finished: their streams died with their terminal error, they
  /// did not end.
  Status Finish();

  int workers() const { return pool_.workers(); }
  const ExecutorConfig& config() const { return config_; }

  /// Terminal status of query `i` in registration order: OK while live,
  /// the quarantining fault afterwards.
  const Status& terminal(size_t i) const { return terminal_[i]; }
  /// Registration indices of quarantined queries, ascending.
  std::vector<size_t> Quarantined() const;
  size_t num_quarantined() const { return num_quarantined_; }

 private:
  /// Runs `op` on every live query inside the pool, then quarantines
  /// the failures on the calling thread after the barrier.
  Status FanOut(const std::function<Status(CompiledQuery*)>& op);

  ExecutorConfig config_;
  WorkerPool pool_;
  std::vector<CompiledQuery*> queries_;
  /// Per-query terminal status (index-aligned with queries_): OK while
  /// the query is live, the fault that quarantined it afterwards.
  std::vector<Status> terminal_;
  size_t num_quarantined_ = 0;
  /// Scratch for the in-flight fan-out: indices of live queries, and
  /// one status per live query.
  std::vector<size_t> live_;
  std::vector<Status> statuses_;
};

}  // namespace cedr

#endif  // CEDR_ENGINE_EXECUTOR_H_
