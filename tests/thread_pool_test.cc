// Tests for the concurrency layer: task completion, exception propagation,
// nested ParallelFor, ParallelFor beside blocked workers, and ParallelMap
// ordering.
#include <atomic>
#include <chrono>
#include <future>
#include <numeric>
#include <set>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"

namespace capd {
namespace {

TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::atomic<int> count{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([&count] { ++count; }));
  }
  for (std::future<void>& f : futures) f.get();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, DefaultSizeUsesHardwareConcurrency) {
  ThreadPool pool;  // num_threads = 0
  EXPECT_GE(pool.size(), 1);
}

TEST(ThreadPoolTest, SubmitPropagatesExceptionThroughFuture) {
  ThreadPool pool(2);
  std::future<void> f =
      pool.Submit([] { throw std::runtime_error("task failed"); });
  EXPECT_THROW(f.get(), std::runtime_error);
  // The pool survives a throwing task.
  std::future<void> ok = pool.Submit([] {});
  EXPECT_NO_THROW(ok.get());
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  ParallelFor(&pool, kN, [&](size_t i) { ++hits[i]; });
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPoolTest, ParallelForSerialFallbacks) {
  // Null pool and n<=1 both run inline on the calling thread.
  std::vector<int> order;
  ParallelFor(nullptr, 3,
              [&](size_t i) { order.push_back(static_cast<int>(i)); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  ThreadPool pool(4);
  int n1 = 0;
  ParallelFor(&pool, 1, [&](size_t) { ++n1; });
  EXPECT_EQ(n1, 1);
  ParallelFor(&pool, 0, [](size_t) { FAIL() << "n=0 must not invoke fn"; });
}

TEST(ThreadPoolTest, ParallelForRethrowsFirstException) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(
      ParallelFor(&pool, 64,
                  [&](size_t i) {
                    ++ran;
                    if (i == 7) throw std::invalid_argument("boom");
                  }),
      std::invalid_argument);
  EXPECT_GE(ran.load(), 1);
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  ParallelFor(&pool, 8, [&](size_t) {
    // From a pool worker this must run inline rather than re-enqueue, or a
    // 2-thread pool full of waiting outer tasks would deadlock.
    ParallelFor(&pool, 8, [&](size_t) { ++inner_total; });
  });
  EXPECT_EQ(inner_total.load(), 64);
}

TEST(ThreadPoolTest, ParallelMapPreservesIndexOrder) {
  ThreadPool pool(4);
  const std::vector<int> out = ParallelMap<int>(
      &pool, 257, [](size_t i) { return static_cast<int>(i * i); });
  ASSERT_EQ(out.size(), 257u);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i * i));
  }
}

TEST(ThreadPoolTest, ParallelForReturnsWhileEveryWorkerIsBlocked) {
  // The caller runs every iteration no helper claimed and waits for no
  // helper that never started, so workers blocked elsewhere (here on a
  // latch; in a sample draw, on a lock the caller holds) cannot stall it.
  ThreadPool pool(2);
  std::promise<void> latch;
  std::shared_future<void> released = latch.get_future().share();
  for (int i = 0; i < pool.size(); ++i) {
    pool.Submit([released] { released.wait(); });
  }
  std::atomic<int> ran{0};
  std::future<void> loop = std::async(std::launch::async, [&] {
    ParallelFor(&pool, 16, [&](size_t) { ++ran; });
  });
  const std::future_status status = loop.wait_for(std::chrono::seconds(10));
  latch.set_value();
  loop.get();
  EXPECT_EQ(status, std::future_status::ready);
  EXPECT_EQ(ran.load(), 16);
}

TEST(ThreadPoolTest, CallerThreadParticipates) {
  // With a busy 1-task pool... simpler: a pool of 1 worker still finishes
  // ParallelFor because the caller drains the shared counter too.
  ThreadPool pool(2);
  std::set<std::thread::id> ids;
  std::mutex mu;
  ParallelFor(&pool, 16, [&](size_t) {
    std::lock_guard<std::mutex> lock(mu);
    ids.insert(std::this_thread::get_id());
  });
  EXPECT_GE(ids.size(), 1u);
}

}  // namespace
}  // namespace capd
