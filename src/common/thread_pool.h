// Fixed-size thread pool plus ParallelFor/ParallelMap helpers. Built for
// the batch size-estimation engine: many independent, uneven tasks (index
// builds on samples, a sample's blocks) distributed via an atomic work
// counter, no work stealing. The calling thread participates in
// ParallelFor and waits only for iterations a started helper claimed, and
// nested ParallelFor calls from inside a worker run inline, so the pool can
// never deadlock on its own tasks, nor on workers blocked on a lock the
// caller holds.
#ifndef CAPD_COMMON_THREAD_POOL_H_
#define CAPD_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace capd {

class ThreadPool {
 public:
  // num_threads <= 0 means hardware concurrency.
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }

  // Enqueues fn; the future captures its exception if it throws.
  std::future<void> Submit(std::function<void()> fn);

  // True when called from one of this process's pool worker threads.
  static bool InWorker();

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::packaged_task<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

// Runs fn(0..n-1) across the pool, the calling thread included. Serial
// (and allocation-free) when pool is null, has a single thread, n <= 1, or
// the caller is already a pool worker. The caller runs every iteration no
// helper has claimed, so it returns even when no helper ever starts.
// Rethrows the first exception any iteration threw after all iterations
// finish or are skipped.
void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t)>& fn);

// ParallelFor that collects fn(i) into a vector, in index order. T must be
// default-constructible; results are identical to the serial loop.
template <typename T, typename Fn>
std::vector<T> ParallelMap(ThreadPool* pool, size_t n, Fn&& fn) {
  std::vector<T> out(n);
  ParallelFor(pool, n, [&](size_t i) { out[i] = fn(i); });
  return out;
}

}  // namespace capd

#endif  // CAPD_COMMON_THREAD_POOL_H_
