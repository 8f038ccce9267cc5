#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <utility>
#include <vector>

namespace contango {

/// \file parallel.h
/// \brief Minimal threading primitives for the experiment harness: a
/// fixed-size ThreadPool for heterogeneous job sets and parallel_for() for
/// index-space fan-out.  Both degrade to inline serial execution at one
/// thread, which keeps single-threaded runs byte-for-byte reproducible.

/// \brief Worker count to use when a caller passes 0 ("pick for me").
/// \return std::thread::hardware_concurrency(), or 1 when that is unknown
inline int hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

/// \brief Fixed-size thread pool for fanning independent jobs (whole
/// Contango runs, Monte-Carlo trial blocks) across cores.
///
/// Submitted tasks must be independent: the pool gives no ordering
/// guarantee between them, so any shared state they touch must be their
/// own output slot or atomic.
///
/// With num_threads <= 1 the pool spawns no workers and submit() runs the
/// task inline, which keeps single-threaded runs byte-for-byte reproducible
/// and easy to debug/profile.  Callers that need submit() to be
/// asynchronous even at one worker — the service JobScheduler must return
/// to its client while the job runs, and cancel from another thread — pass
/// inline_single = false to force a real worker thread.
class ThreadPool {
 public:
  /// \param num_threads worker count; 0 picks hardware_threads(), <= 1
  ///        selects inline mode (no worker threads at all)
  /// \param inline_single when false, a single-threaded pool still spawns
  ///        its one worker so submit() never runs tasks on the caller
  explicit ThreadPool(int num_threads = 0, bool inline_single = true) {
    if (num_threads <= 0) num_threads = hardware_threads();
    if (num_threads <= 1 && inline_single) return;  // inline mode
    workers_.reserve(static_cast<std::size_t>(num_threads));
    for (int i = 0; i < num_threads; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  ~ThreadPool() {
    wait();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    task_ready_.notify_all();
    for (std::thread& w : workers_) w.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (1 means inline execution, no workers).
  int num_threads() const {
    return workers_.empty() ? 1 : static_cast<int>(workers_.size());
  }

  /// \brief Enqueues one task.
  ///
  /// In inline mode the task runs before submit() returns.  Tasks must not
  /// throw — wrap the body and record failures in the task's own output
  /// slot (see run_suite() for the pattern).
  /// \param task the job to run on some worker, at some later time
  void submit(std::function<void()> task) {
    if (workers_.empty()) {
      task();
      return;
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queue_.push(std::move(task));
      ++unfinished_;
    }
    task_ready_.notify_one();
  }

  /// Blocks until every task submitted so far has finished.  The pool stays
  /// usable afterwards (wait() is a barrier, not shutdown).
  void wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    all_done_.wait(lock, [this] { return unfinished_ == 0; });
  }

 private:
  void worker_loop() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        task_ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) return;  // only true when stopping
        task = std::move(queue_.front());
        queue_.pop();
      }
      task();
      {
        std::lock_guard<std::mutex> lock(mutex_);
        if (--unfinished_ == 0) all_done_.notify_all();
      }
    }
  }

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable task_ready_;
  std::condition_variable all_done_;
  int unfinished_ = 0;
  bool stopping_ = false;
};

/// \brief Runs fn(i) for i in [0, n) on up to num_threads workers.
///
/// fn is invoked exactly once per index; indices are handed out dynamically
/// so uneven job sizes still balance.  Blocks until all iterations finish.
/// \param n iteration count
/// \param num_threads worker cap; 0 = hardware concurrency, 1 = serial
/// \param fn callable taking the index; must not throw — wrap the body and
///        record errors in the output slot instead (see run_suite() for the
///        pattern)
template <typename Fn>
void parallel_for(int n, int num_threads, Fn&& fn) {
  if (n <= 0) return;
  if (num_threads <= 0) num_threads = hardware_threads();
  if (num_threads == 1 || n == 1) {
    for (int i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<int> next{0};
  auto drain = [&] {
    for (;;) {
      const int i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      fn(i);
    }
  };
  std::vector<std::thread> threads;
  const int spawned = std::min(num_threads, n) - 1;  // caller thread drains too
  threads.reserve(static_cast<std::size_t>(spawned));
  for (int t = 0; t < spawned; ++t) threads.emplace_back(drain);
  drain();
  for (std::thread& t : threads) t.join();
}

}  // namespace contango
