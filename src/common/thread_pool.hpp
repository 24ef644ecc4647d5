// Fixed-size worker pool used to run independent experiment replications in
// parallel (see DESIGN.md §6).  Tasks communicate only through their return
// futures — no shared mutable state — so results are identical regardless of
// worker count.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace excovery {

/// Utilization callback for a ThreadPool (implemented by the observability
/// layer; declared here so common does not depend on obs).  on_task runs on
/// the worker thread after each task and must be thread-safe.
class ThreadPoolObserver {
 public:
  virtual ~ThreadPoolObserver() = default;
  virtual void on_task(std::int64_t queue_delay_ns, std::int64_t busy_ns) = 0;
};

class ThreadPool {
 public:
  /// `workers == 0` selects std::thread::hardware_concurrency() (min 1).
  explicit ThreadPool(std::size_t workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t worker_count() const noexcept { return threads_.size(); }

  /// Install (or clear, with nullptr) a utilization observer.  The observer
  /// must outlive the pool or be cleared before destruction; tasks enqueued
  /// while no observer is installed report a zero queue delay.
  void set_observer(ThreadPoolObserver* observer) noexcept {
    observer_.store(observer, std::memory_order_release);
  }

  /// Enqueue a task; returns a future for its result.
  template <typename Fn>
  auto submit(Fn&& fn) -> std::future<std::invoke_result_t<Fn>> {
    using R = std::invoke_result_t<Fn>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<Fn>(fn));
    std::future<R> future = task->get_future();
    enqueue([task]() mutable { (*task)(); });
    return future;
  }

  /// Enqueue a fire-and-forget task (no future) that delivers its own
  /// result, as ExperimentService's simulations do through a promise.
  void post(std::function<void()> task);

  /// Run `fn(i)` for i in [0, count) across the pool and wait for all.
  void parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn);

 private:
  struct QueuedTask {
    std::function<void()> fn;
    std::int64_t enqueued_ns = 0;  ///< steady-clock stamp; 0 = not observed
  };

  void enqueue(std::function<void()> fn);
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<QueuedTask> queue_;
  std::vector<std::thread> threads_;
  std::atomic<ThreadPoolObserver*> observer_{nullptr};
  bool stopping_ = false;
};

}  // namespace excovery
