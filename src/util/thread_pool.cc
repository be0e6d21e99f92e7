#include "util/thread_pool.h"

#if defined(__linux__)
#include <sched.h>
#endif

#include <algorithm>
#include <atomic>
#include <memory>

#include "util/stopwatch.h"

namespace tdg::util {
namespace {

// Shared-ptr handoff so a replaced observer stays alive while in-flight
// tasks finish reporting to it. The atomic flag keeps the uninstalled fast
// path at one relaxed load (no mutex).
std::atomic<bool> g_observer_present{false};

std::mutex& ObserverMutex() {
  static std::mutex* const kMutex = new std::mutex();
  return *kMutex;
}

std::shared_ptr<const ThreadPoolObserver>& ObserverSlot() {
  static std::shared_ptr<const ThreadPoolObserver>* const kSlot =
      new std::shared_ptr<const ThreadPoolObserver>();
  return *kSlot;
}

std::shared_ptr<const ThreadPoolObserver> GetObserver() {
  if (!g_observer_present.load(std::memory_order_acquire)) return nullptr;
  std::lock_guard<std::mutex> lock(ObserverMutex());
  return ObserverSlot();
}

}  // namespace

void SetThreadPoolObserver(ThreadPoolObserver observer) {
  auto shared =
      std::make_shared<const ThreadPoolObserver>(std::move(observer));
  {
    std::lock_guard<std::mutex> lock(ObserverMutex());
    ObserverSlot() = std::move(shared);
  }
  g_observer_present.store(true, std::memory_order_release);
}

ThreadPool::ThreadPool(int num_threads) {
  num_threads = std::max(num_threads, 1);
  workers_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  Wait();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  int queue_depth;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push(std::move(task));
    ++in_flight_;
    queue_depth = static_cast<int>(queue_.size());
  }
  work_available_.notify_one();
  if (auto observer = GetObserver(); observer && observer->on_queue_depth) {
    observer->on_queue_depth(queue_depth);
  }
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    int queue_depth;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(
          lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // shutting down
      }
      task = std::move(queue_.front());
      queue_.pop();
      queue_depth = static_cast<int>(queue_.size());
    }
    auto observer = GetObserver();
    if (observer && observer->on_queue_depth) {
      observer->on_queue_depth(queue_depth);
    }
    const bool timed = observer && observer->on_task_micros;
    const int64_t start_micros = timed ? MonotonicMicros() : 0;
    task();
    if (timed) {
      observer->on_task_micros(MonotonicMicros() - start_micros);
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (--in_flight_ == 0) {
        all_done_.notify_all();
      }
    }
  }
}

int AvailableCpus() {
#if defined(__linux__)
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (::sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    return std::max(CPU_COUNT(&mask), 1);
  }
#endif
  return std::max(static_cast<int>(std::thread::hardware_concurrency()), 1);
}

void ParallelFor(ThreadPool& pool, int count,
                 const std::function<void(int)>& fn) {
  for (int i = 0; i < count; ++i) {
    pool.Submit([i, &fn] { fn(i); });
  }
  pool.Wait();
}

}  // namespace tdg::util
