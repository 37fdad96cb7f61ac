// WorkerPool mechanics: index distribution, pool reuse and the inline
// fallback.
#include "engine/worker_pool.h"

#include <gtest/gtest.h>

#include <atomic>

namespace cedr {
namespace {

TEST(WorkerPoolTest, ClampsWorkerCountToOne) {
  EXPECT_EQ(WorkerPool(0).workers(), 1);
  EXPECT_EQ(WorkerPool(-3).workers(), 1);
  EXPECT_EQ(WorkerPool(1).workers(), 1);
  EXPECT_EQ(WorkerPool(3).workers(), 3);
}

TEST(WorkerPoolTest, InlinePoolRunsEveryIndex) {
  WorkerPool pool(1);
  std::vector<int> hits(64, 0);
  pool.ParallelFor(hits.size(), [&](size_t i) { ++hits[i]; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(WorkerPoolTest, RunsEveryIndexExactlyOnce) {
  WorkerPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(hits.size(), [&](size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(WorkerPoolTest, ReusableAcrossJobsOfVaryingSize) {
  WorkerPool pool(4);
  for (size_t n : {0u, 1u, 2u, 3u, 7u, 100u, 5u}) {
    std::atomic<size_t> sum{0};
    pool.ParallelFor(n, [&](size_t i) {
      sum.fetch_add(i + 1, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), n * (n + 1) / 2) << "n=" << n;
  }
}

TEST(WorkerPoolTest, BackToBackTinyJobsStayInTheirGeneration) {
  // Regression: a worker that wakes for job k but is descheduled before
  // claiming an index must not execute (or hold a pointer into) job k
  // after ParallelFor(k) returned - tiny jobs the caller usually
  // finishes alone make that window hot. Each round uses a fresh
  // stack-local target; a stale worker touching a dead job's fn is a
  // use-after-scope TSan flags and a wrong `round` a plain build sees.
  WorkerPool pool(8);
  for (int round = 0; round < 500; ++round) {
    std::atomic<int> sum{0};
    pool.ParallelFor(2, [&sum, round](size_t) {
      sum.fetch_add(round + 1, std::memory_order_relaxed);
    });
    ASSERT_EQ(sum.load(), 2 * (round + 1)) << "round " << round;
  }
}

TEST(WorkerPoolTest, BalancesUnevenTasks) {
  // A few expensive indices among many cheap ones: dynamic claiming
  // must still complete everything (this is a liveness check, not a
  // timing assertion).
  WorkerPool pool(4);
  std::atomic<int> done{0};
  pool.ParallelFor(64, [&](size_t i) {
    volatile uint64_t x = 0;
    const uint64_t spins = (i % 16 == 0) ? 200000 : 100;
    for (uint64_t k = 0; k < spins; ++k) x = x + k;
    done.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(done.load(), 64);
}

}  // namespace
}  // namespace cedr
