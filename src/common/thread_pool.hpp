// Fixed-size worker pool on which ExperimentService runs whole experiments
// side by side (DESIGN.md §14).  Tasks communicate only through their return
// futures — no shared mutable state — so results are identical regardless of
// worker count.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace excovery {

class ThreadPool {
 public:
  /// `workers == 0` selects std::thread::hardware_concurrency() (min 1).
  explicit ThreadPool(std::size_t workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t worker_count() const noexcept { return threads_.size(); }

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
  void enqueue(std::function<void()> fn);
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> threads_;
  bool stopping_ = false;
};

}  // namespace excovery
