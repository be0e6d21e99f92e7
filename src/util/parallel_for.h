#ifndef TDG_UTIL_PARALLEL_FOR_H_
#define TDG_UTIL_PARALLEL_FOR_H_

#include <functional>

namespace tdg::util {

/// CPUs this process may run on: the size of its affinity mask, so a
/// process pinned with taskset or sched_setaffinity sizes its fan-out to
/// its share, not to the machine. At least 1.
int AvailableCpus();

/// Runs `fn(i)` exactly once for each i in [0, count) on
/// w = min(max(num_threads, 1), count) workers and returns when all have
/// finished. With w <= 1 the loop runs inline on the caller in ascending
/// order and starts no thread. Otherwise it starts w - 1 threads, the
/// caller is the w-th worker, and every worker claims the next index from
/// one shared counter, so uneven iterations balance themselves. Which
/// worker runs which index is scheduling-dependent: callers that need a
/// deterministic result fold per-index results in index order.
/// Iterations must be independent and must not throw.
void ParallelFor(int num_threads, int count,
                 const std::function<void(int)>& fn);

}  // namespace tdg::util

#endif  // TDG_UTIL_PARALLEL_FOR_H_
