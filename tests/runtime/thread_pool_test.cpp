#include "runtime/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"

namespace bofl::runtime {
namespace {

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([&counter]() { ++counter; }));
  }
  for (auto& f : futures) {
    f.get();
  }
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, SubmitReturnsTaskValue) {
  ThreadPool pool(2);
  std::future<int> f = pool.submit([]() { return 6 * 7; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, ZeroMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), hardware_threads());
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, SubmitPropagatesExceptionsThroughFuture) {
  ThreadPool pool(2);
  std::future<void> f =
      pool.submit([]() { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, DestructorDrainsOutstandingTasksWhileBusy) {
  std::atomic<int> completed{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 32; ++i) {
      // Discard the futures: shutdown alone must guarantee completion.
      auto f = pool.submit([&completed]() { ++completed; });
      (void)f;
    }
  }  // ~ThreadPool joins after the queue drains
  EXPECT_EQ(completed.load(), 32);
}

TEST(ParallelForEach, VisitsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> visits(kN);
  parallel_for_each(&pool, kN, [&](std::size_t i) { ++visits[i]; });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForEach, NullPoolRunsSerially) {
  std::vector<int> order;
  parallel_for_each(nullptr, 5, [&](std::size_t i) {
    order.push_back(static_cast<int>(i));  // safe: serial by contract
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ParallelForEach, RethrowsTheFirstTaskException) {
  ThreadPool pool(4);
  EXPECT_THROW(parallel_for_each(&pool, 64,
                                 [](std::size_t i) {
                                   if (i == 13) {
                                     throw std::invalid_argument("13");
                                   }
                                 }),
               std::invalid_argument);
}

TEST(ParallelForEach, NestedRegionsOnOnePoolComplete) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  parallel_for_each(&pool, 8, [&](std::size_t) {
    parallel_for_each(&pool, 8, [&](std::size_t) { ++total; });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ParallelForEach, ReenteringThePoolFromASubmittedWorkerRunsInline) {
  // The nested-parallelism rule: a region started FROM a pool worker (a
  // submitted task, not a nested region) must detect the worker thread and
  // run inline instead of re-entering the pool — otherwise a pool whose
  // every worker waits on a nested region deadlocks.  Saturate the pool
  // with such tasks to force the worst case.
  ThreadPool pool(2);
  std::atomic<int> total{0};
  std::vector<std::future<void>> futures;
  for (int t = 0; t < 8; ++t) {
    futures.push_back(pool.submit([&pool, &total]() {
      EXPECT_TRUE(pool.on_worker_thread());
      parallel_for_each(&pool, 16, [&](std::size_t) {
        EXPECT_TRUE(pool.on_worker_thread());  // ran inline on this worker
        ++total;
      });
    }));
  }
  for (auto& f : futures) {
    f.get();
  }
  EXPECT_EQ(total.load(), 8 * 16);
  EXPECT_FALSE(pool.on_worker_thread());  // the guard is per-thread
}

TEST(ParallelForEach, PerTaskStreamsAreThreadCountInvariant) {
  // The determinism recipe the rest of the stack uses: one stream_seed-ed
  // Rng per item, results written to the item's slot.
  constexpr std::uint64_t kBase = 99;
  constexpr std::size_t kN = 64;
  const auto run = [&](std::size_t threads) {
    ThreadPool pool(threads);
    std::vector<double> out(kN);
    parallel_for_each(&pool, kN, [&](std::size_t i) {
      Rng rng(stream_seed(kBase, i));
      out[i] = rng.normal() + rng.uniform();
    });
    return out;
  };
  const std::vector<double> serial = run(1);
  const std::vector<double> parallel = run(8);
  EXPECT_EQ(serial, parallel);  // bitwise: same doubles, same slots
}

TEST(StreamSeed, DistinctStreamsGetDistinctSeeds) {
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t base : {1ULL, 2ULL}) {
    for (std::uint64_t stream = 0; stream < 100; ++stream) {
      seeds.push_back(stream_seed(base, stream));
    }
  }
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()), seeds.end());
  // And it is a pure function of (base, stream).
  EXPECT_EQ(stream_seed(7, 3), stream_seed(7, 3));
}

}  // namespace
}  // namespace bofl::runtime
