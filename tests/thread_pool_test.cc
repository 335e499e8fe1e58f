#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <mutex>
#include <stdexcept>
#include <vector>

namespace pase {
namespace {

TEST(ThreadPool, ResolveZeroMeansHardwareConcurrency) {
  EXPECT_GE(ThreadPool::resolve(0), 1);
  EXPECT_EQ(ThreadPool::resolve(1), 1);
  EXPECT_EQ(ThreadPool::resolve(7), 7);
}

TEST(ThreadPool, SubmitReturnsResultThroughFuture) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  auto fut = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(fut.get(), 42);
}

TEST(ThreadPool, SubmitPropagatesExceptions) {
  ThreadPool pool(2);
  auto fut = pool.submit(
      []() -> int { throw std::runtime_error("task failed"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(ThreadPool, ManySubmissionsAllRun) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 200; ++i)
    futures.push_back(pool.submit([&count] { count.fetch_add(1); }));
  for (auto& f : futures) f.get();
  EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPool, SubmissionsRunFirstInFirstOut) {
  // One worker, held by a running blocker while eight more tasks queue up:
  // once released, the worker must run them in submission order.
  ThreadPool pool(1);
  std::promise<void> started;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  auto blocker = pool.submit([&started, released] {
    started.set_value();
    released.wait();
  });
  started.get_future().wait();
  std::mutex mu;
  std::vector<int> order;
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 8; ++i)
    futures.push_back(pool.submit([&mu, &order, i] {
      std::lock_guard<std::mutex> lk(mu);
      order.push_back(i);
    }));
  release.set_value();
  blocker.get();
  for (auto& f : futures) f.get();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr i64 kN = 10000;
  std::vector<int> touched(kN, 0);
  pool.parallel_for(0, kN, 64, [&](i64 b0, i64 b1) {
    for (i64 i = b0; i < b1; ++i) ++touched[static_cast<size_t>(i)];
  });
  for (i64 i = 0; i < kN; ++i)
    ASSERT_EQ(touched[static_cast<size_t>(i)], 1) << "index " << i;
}

TEST(ThreadPool, ParallelForHandlesEmptyAndTinyRanges) {
  ThreadPool pool(2);
  int runs = 0;
  pool.parallel_for(5, 5, 10, [&](i64, i64) { ++runs; });
  EXPECT_EQ(runs, 0);
  std::atomic<i64> sum{0};
  pool.parallel_for(3, 4, 100, [&](i64 b0, i64 b1) {
    for (i64 i = b0; i < b1; ++i) sum.fetch_add(i);
  });
  EXPECT_EQ(sum.load(), 3);
}

TEST(ThreadPool, ParallelForPropagatesLowestChunkException) {
  ThreadPool pool(4);
  // Chunks of 10 over [0, 1000): indices 510 and 110 fail; the exception
  // from the lower chunk (index 110, chunk 11) must win deterministically.
  for (int attempt = 0; attempt < 5; ++attempt) {
    try {
      pool.parallel_for(0, 1000, 10, [&](i64 b0, i64 b1) {
        for (i64 i = b0; i < b1; ++i) {
          if (i == 510) throw std::runtime_error("chunk 51");
          if (i == 110) throw std::runtime_error("chunk 11");
        }
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "chunk 11");
    }
  }
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<i64> total{0};
  pool.parallel_for(0, 8, 1, [&](i64 b0, i64 b1) {
    for (i64 i = b0; i < b1; ++i)
      pool.parallel_for(0, 10, 2, [&](i64 c0, i64 c1) {
        total.fetch_add(c1 - c0);
      });
  });
  EXPECT_EQ(total.load(), 80);
}

}  // namespace
}  // namespace pase
