#include "parallel/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "parallel/replication.hpp"

namespace smac::parallel {
namespace {

TEST(ThreadPoolTest, SubmitReturnsValueThroughFuture) {
  ThreadPool pool(2);
  auto f = pool.submit([] { return 41 + 1; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPoolTest, SubmitPropagatesException) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int {
    throw std::runtime_error("task failed");
  });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPoolTest, ManyTasksAllComplete) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPoolTest, ForEachIndexCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> visits(257);
  pool.for_each_index(visits.size(), [&](std::size_t i) { ++visits[i]; });
  for (std::size_t i = 0; i < visits.size(); ++i) {
    EXPECT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ForEachIndexZeroCountIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.for_each_index(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, ForEachIndexResultsIndependentOfPoolSize) {
  // Task ordering / thread placement must not affect per-index output.
  auto compute = [](std::size_t threads) {
    ThreadPool pool(threads);
    std::vector<std::uint64_t> out(100, 0);
    pool.for_each_index(out.size(), [&](std::size_t i) {
      out[i] = i * i + 7;
    });
    return out;
  };
  const auto serial = compute(1);
  const auto wide = compute(4);
  EXPECT_EQ(serial, wide);
}

TEST(ThreadPoolTest, ForEachIndexPropagatesFirstException) {
  ThreadPool pool(3);
  std::atomic<int> ran{0};
  EXPECT_THROW(
      pool.for_each_index(50,
                          [&](std::size_t i) {
                            if (i == 10) throw std::runtime_error("boom");
                            ++ran;
                          }),
      std::runtime_error);
  EXPECT_LE(ran.load(), 49);
}

// what() of the exception fn throws, or "" when it returns normally.
template <class Fn>
std::string thrown_message(Fn&& fn) {
  try {
    fn();
  } catch (const std::exception& e) {
    return e.what();
  }
  return "";
}

// Indices 1 and 6 throw; index 1 dawdles first so index 6 usually fails
// first in wall-clock order. The rethrown exception must still be index
// 1's, every time, at every jobs value.
void throw_at_one_and_six(std::size_t i) {
  if (i == 1) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
    throw std::runtime_error("index 1");
  }
  if (i == 6) throw std::runtime_error("index 6");
}

TEST(ForEachIndexTest, LowestFailingIndexWinsAtAnyJobs) {
  for (std::size_t jobs : {1u, 4u}) {
    for (int rep = 0; rep < 100; ++rep) {
      EXPECT_EQ(thrown_message([&] {
                  for_each_index(jobs, 12, throw_at_one_and_six);
                }),
                "index 1")
          << "jobs " << jobs << " repetition " << rep;
      EXPECT_EQ(thrown_message([&] {
                  ReplicationRunner({12, 5, jobs})
                      .run([](std::uint64_t, std::size_t i) {
                        throw_at_one_and_six(i);
                        return 0;
                      });
                }),
                "index 1")
          << "runner, jobs " << jobs << " repetition " << rep;
    }
  }
}

TEST(ForEachIndexTest, AtMostOneWorkerRunsInlineOnTheCallingThread) {
  const std::thread::id caller = std::this_thread::get_id();
  // {jobs, count}: jobs 1 is inline at any count; count 1 at any jobs.
  const std::vector<std::pair<std::size_t, std::size_t>> cases{
      {1, 9}, {4, 1}, {0, 1}};
  for (const auto& [jobs, count] : cases) {
    std::vector<std::size_t> order;
    for_each_index(jobs, count, [&](std::size_t i) {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      order.push_back(i);
    });
    std::vector<std::size_t> expected(count);
    std::iota(expected.begin(), expected.end(), 0);
    EXPECT_EQ(order, expected) << "jobs " << jobs;
  }
}

// A count-party spin barrier completes only if all bodies are in flight
// at once — the guarantee the PDES workers rely on. A deadline turns a
// violation into a failure instead of a hang.
TEST(ForEachIndexTest, CountEqualJobsRunsEveryBodyAtOnce) {
  for (std::size_t j : {2u, 4u}) {
    std::atomic<std::size_t> arrived{0};
    std::atomic<bool> timed_out{false};
    std::vector<std::thread::id> ids(j);
    for_each_index(j, j, [&](std::size_t i) {
      ids[i] = std::this_thread::get_id();
      arrived.fetch_add(1);
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(20);
      while (arrived.load() < j) {
        if (std::chrono::steady_clock::now() > deadline) {
          timed_out = true;
          return;
        }
        std::this_thread::yield();
      }
    });
    EXPECT_FALSE(timed_out.load()) << "j = " << j;
    EXPECT_EQ(arrived.load(), j);
    for (std::size_t a = 0; a < j; ++a) {
      for (std::size_t b = a + 1; b < j; ++b) EXPECT_NE(ids[a], ids[b]);
    }
  }
}

// The PDES exception path: one body sets the shared cancel flag and
// throws while the others spin on it; the fan-out still joins everyone
// and rethrows.
TEST(ForEachIndexTest, CancellingThrowJoinsSpinningBodiesAndRethrows) {
  for (int rep = 0; rep < 20; ++rep) {
    std::atomic<bool> cancel{false};
    std::atomic<int> released{0};
    EXPECT_EQ(thrown_message([&] {
                for_each_index(4, 4, [&](std::size_t i) {
                  if (i == 2) {
                    cancel = true;
                    throw std::runtime_error("worker 2 failed");
                  }
                  while (!cancel.load()) std::this_thread::yield();
                  ++released;
                });
              }),
              "worker 2 failed");
    EXPECT_LE(released.load(), 3);
  }
}

TEST(ThreadPoolTest, ZeroRequestsDefaultJobs) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
  EXPECT_LE(pool.size(), ThreadPool::kMaxThreads);
}

TEST(ThreadPoolTest, DefaultJobsHonorsEnvOverride) {
  const char* saved = std::getenv("SMAC_JOBS");
  const std::string restore = saved ? saved : "";
  ::setenv("SMAC_JOBS", "3", 1);
  EXPECT_EQ(ThreadPool::default_jobs(), 3u);
  ::setenv("SMAC_JOBS", "not-a-number", 1);
  EXPECT_GE(ThreadPool::default_jobs(), 1u);  // falls back to hardware
  if (saved) {
    ::setenv("SMAC_JOBS", restore.c_str(), 1);
  } else {
    ::unsetenv("SMAC_JOBS");
  }
}

}  // namespace
}  // namespace smac::parallel
