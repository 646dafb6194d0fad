#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>

#include "common/logging.h"

namespace capd {
namespace {

thread_local bool t_in_pool_worker = false;

}  // namespace

bool ThreadPool::InWorker() { return t_in_pool_worker; }

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads <= 0) {
    num_threads =
        static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  }
  workers_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

std::future<void> ThreadPool::Submit(std::function<void()> fn) {
  std::packaged_task<void()> task(std::move(fn));
  std::future<void> future = task.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    CAPD_CHECK(!stop_) << "Submit on a stopped ThreadPool";
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
  return future;
}

void ThreadPool::WorkerLoop() {
  t_in_pool_worker = true;
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();  // exceptions land in the paired future
  }
}

void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (pool == nullptr || pool->size() <= 1 || n == 1 ||
      ThreadPool::InWorker()) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  // Shared with the helpers, which may start only after the call returned:
  // such a helper claims no iteration and touches nothing else.
  struct State {
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};  // iterations finished or skipped
    std::atomic<bool> failed{false};
    // Written once, by the first iteration that throws; its increment of
    // `done` publishes it to the caller.
    std::exception_ptr first_error;
    std::mutex mu;  // for all_done
    std::condition_variable all_done;
  };
  auto state = std::make_shared<State>();
  // Runs iterations until none is left unclaimed. A claimed iteration
  // counts as done only after fn returns, so the caller outlives every
  // fn(i) it waits for.
  auto drain = [state, n, &fn] {
    size_t i;
    while ((i = state->next.fetch_add(1)) < n) {
      // Fail fast: once an iteration threw, the rest are skipped.
      if (!state->failed.load(std::memory_order_relaxed)) {
        try {
          fn(i);
        } catch (...) {
          if (!state->failed.exchange(true)) {
            state->first_error = std::current_exception();
          }
        }
      }
      if (state->done.fetch_add(1) + 1 == n) {
        std::lock_guard<std::mutex> lock(state->mu);
        state->all_done.notify_all();
      }
    }
  };

  // The caller claims whatever helpers have not, so it never waits on a
  // helper that has not started: a pool whose workers are all blocked
  // (say, on a lock the caller holds) cannot stall it.
  const size_t workers = std::min<size_t>(pool->size(), n);
  for (size_t t = 0; t + 1 < workers; ++t) pool->Submit(drain);
  drain();
  std::unique_lock<std::mutex> lock(state->mu);
  state->all_done.wait(lock, [&] { return state->done == n; });
  if (state->first_error) std::rethrow_exception(state->first_error);
}

}  // namespace capd
