#include "util/parallel_for.h"

#if defined(__linux__)
#include <sched.h>
#endif

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

namespace tdg::util {

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

void ParallelFor(int num_threads, int count,
                 const std::function<void(int)>& fn) {
  const int workers = std::min(std::max(num_threads, 1), count);
  if (workers <= 1) {
    for (int i = 0; i < count; ++i) fn(i);
    return;
  }
  std::atomic<int> next{0};
  auto work = [&] {
    for (int i; (i = next.fetch_add(1, std::memory_order_relaxed)) < count;) {
      fn(i);
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(workers - 1);
  for (int w = 1; w < workers; ++w) threads.emplace_back(work);
  work();
  for (std::thread& thread : threads) thread.join();
}

}  // namespace tdg::util
