#ifndef TDG_UTIL_THREAD_POOL_H_
#define TDG_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace tdg::util {

/// Process-wide instrumentation hooks for every ThreadPool. Callbacks run on
/// pool/submitter threads outside the pool's internal lock; they must be
/// cheap, must not throw, and must not call back into a pool. Installed by
/// tdg::obs to feed the metrics registry; absent by default (the uninstalled
/// fast path is one relaxed atomic load per event).
struct ThreadPoolObserver {
  /// Queued (not yet running) task count after a submit or a dequeue.
  std::function<void(int)> on_queue_depth;
  /// Wall time one task spent running, in microseconds.
  std::function<void(int64_t)> on_task_micros;
};

/// Installs (replacing any previous) the global observer. Thread-safe;
/// in-flight tasks may finish reporting to the observer they started with.
void SetThreadPoolObserver(ThreadPoolObserver observer);

/// A fixed-size worker pool for embarrassingly parallel experiment sweeps.
/// Tasks must not throw (the library is exception-free); coordinate error
/// reporting through captured state.
class ThreadPool {
 public:
  /// `num_threads` < 1 is clamped to 1.
  explicit ThreadPool(int num_threads);

  /// Drains the queue and joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Enqueues a task. Safe from any thread, including worker threads
  /// (tasks scheduling tasks), but Wait() must only be called from outside.
  void Submit(std::function<void()> task);

  /// Blocks until every submitted task (including those submitted by other
  /// tasks) has finished.
  void Wait();

 private:
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  std::queue<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  int in_flight_ = 0;  // queued + running
  bool shutting_down_ = false;
};

/// CPUs this process may run on: the size of its affinity mask, so a
/// process pinned with taskset or sched_setaffinity sizes its pools to its
/// share, not to the machine. At least 1.
int AvailableCpus();

/// Runs `fn(i)` for i in [0, count) on `pool`, blocking until all complete.
/// Iterations must be independent.
void ParallelFor(ThreadPool& pool, int count,
                 const std::function<void(int)>& fn);

}  // namespace tdg::util

#endif  // TDG_UTIL_THREAD_POOL_H_
