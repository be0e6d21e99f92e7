#include "util/parallel_for.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <latch>
#include <thread>
#include <vector>

namespace tdg::util {
namespace {

TEST(ParallelForTest, EveryIndexRunsOnce) {
  for (int num_threads : {-3, 0, 1, 2, 4, 16}) {
    for (int count : {0, 1, 3, 1000}) {
      SCOPED_TRACE(testing::Message() << num_threads << " threads, " << count
                                      << " indices");
      std::vector<std::atomic<int>> hits(static_cast<size_t>(count));
      ParallelFor(num_threads, count,
                  [&hits](int i) { hits[i].fetch_add(1); });
      for (int i = 0; i < count; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
    }
  }
}

// Four indices on four workers: every call blocks until all four have
// arrived, so the loop only finishes if the workers run at once.
TEST(ParallelForTest, WorkersRunConcurrently) {
  std::latch all_arrived(4);
  std::atomic<int> calls{0};
  ParallelFor(4, 4, [&](int) {
    calls.fetch_add(1);
    all_arrived.arrive_and_wait();
  });
  EXPECT_EQ(calls.load(), 4);
}

TEST(ParallelForTest, OneWorkerRunsInlineInOrder) {
  // One worker: one thread, or a single index however many threads.
  for (auto [num_threads, count] :
       {std::pair<int, int>{1, 50}, {0, 50}, {-3, 50}, {16, 1}}) {
    std::vector<int> order;
    std::vector<std::thread::id> threads;
    ParallelFor(num_threads, count, [&](int i) {
      order.push_back(i);
      threads.push_back(std::this_thread::get_id());
    });
    ASSERT_EQ(static_cast<int>(order.size()), count);
    for (int i = 0; i < count; ++i) {
      EXPECT_EQ(order[i], i);
      EXPECT_EQ(threads[i], std::this_thread::get_id());
    }
  }
}

TEST(ParallelForTest, ParallelForCoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  ParallelFor(8, 1000, [&hits](int i) { hits[i].fetch_add(1); });
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ParallelForTest, SingleThreadPoolStillWorks) {
  std::atomic<long long> sum{0};
  ParallelFor(1, 100, [&sum](int i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 4950);
}

TEST(ParallelForTest, ClampsNonPositiveThreadCount) {
  for (int num_threads : {0, -3}) {
    std::atomic<long long> sum{0};
    ParallelFor(num_threads, 100, [&sum](int i) { sum.fetch_add(i); });
    EXPECT_EQ(sum.load(), 4950) << num_threads;
  }
}

TEST(ParallelForTest, WaitWithNoTasksReturnsImmediately) {
  bool called = false;
  ParallelFor(2, 0, [&called](int) { called = true; });  // must not hang
  EXPECT_FALSE(called);
}

TEST(ParallelForTest, AvailableCpusIsWithinTheMachine) {
  const int cpus = AvailableCpus();
  EXPECT_GE(cpus, 1);
  EXPECT_LE(cpus, std::max(
                      static_cast<int>(std::thread::hardware_concurrency()),
                      1));
}

}  // namespace
}  // namespace tdg::util
