// WorkerPool: a fixed set of long-lived worker threads executing
// index-space jobs (ParallelFor). The concurrency substrate for the
// executor and the supervisor's batched routing: one pool is created
// per executor and reused across every batch, so the per-batch cost is
// one mutex handshake instead of thread churn.
//
// `workers` counts the total concurrent executors: the calling thread
// participates in every job, so a pool of size N spawns N-1 threads and
// a pool of size 1 spawns none and runs jobs inline (the exact serial
// fallback — no threads, no locks).
#ifndef CEDR_ENGINE_WORKER_POOL_H_
#define CEDR_ENGINE_WORKER_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"

namespace cedr {

class WorkerPool {
 public:
  /// `workers` < 1 is clamped to 1 (inline execution, no threads).
  explicit WorkerPool(int workers);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Total parallelism (including the calling thread).
  int workers() const { return static_cast<int>(threads_.size()) + 1; }

  /// Runs fn(i) for every i in [0, n), distributed across the pool, and
  /// blocks until all calls return. The calling thread participates.
  /// Indices are claimed dynamically (atomic counter), so uneven task
  /// costs balance automatically. fn must not throw; error reporting
  /// goes through captured per-index slots. Only one ParallelFor may be
  /// in flight at a time (it is not reentrant).
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  /// Fault-domain variant: runs fn(i) for every i in [0, n) and returns
  /// one Status per index. fn may return a non-OK Status or throw; an
  /// exception is captured as kExecutionError on that index instead of
  /// terminating the process, so one faulting task can never take down
  /// the pool, its siblings, or the caller. Same scheduling and
  /// non-reentrancy rules as ParallelFor.
  std::vector<Status> ParallelForGuarded(
      size_t n, const std::function<Status(size_t)>& fn);

 private:
  void WorkerMain();

  std::vector<std::thread> threads_;

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  /// Current job (guarded by mu_ for publication; read under the
  /// generation fence by workers).
  const std::function<void(size_t)>* job_ = nullptr;
  size_t job_size_ = 0;
  uint64_t generation_ = 0;
  bool stopping_ = false;
  /// Next unclaimed index of the current job.
  std::atomic<size_t> next_{0};
  /// Completed indices of the current job (guarded by mu_).
  size_t completed_ = 0;
  /// Workers currently inside the claim loop for this generation
  /// (guarded by mu_). ParallelFor may not return — and the job memory
  /// may not die — until this drops to zero: a worker that woke and
  /// snapshotted the job but has not yet claimed an index must not
  /// outlive the job or bleed into the next one.
  size_t active_ = 0;
};

}  // namespace cedr

#endif  // CEDR_ENGINE_WORKER_POOL_H_
