// Fixed-size thread pool and the one inline-or-pool fan-out built on it.
//
// The pool exists to run *independent* work items — Monte-Carlo
// replications, tournament mixes, parameter-sweep points — plus one
// cooperative shape: the conservative PDES kernel's region workers, which
// spin on each other's progress and rely on the all-in-flight guarantee of
// parallel::for_each_index below. Determinism contract: the pool makes no
// ordering or placement guarantees, so any caller that wants reproducible
// results must (a) make every submitted task self-contained (own Rng, own
// simulator instance — no component may share a util::Rng across threads)
// and (b) write each task's output into a slot indexed by the task, then
// reduce in index order. parallel::ReplicationRunner packages exactly that
// pattern.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace smac::parallel {

/// Fixed set of worker threads consuming a FIFO task queue.
///
/// Tasks must not submit further work to the same pool and block on it
/// (nested for_each_index deadlocks a fully busy pool); fan-out happens at
/// one level, the experiment driver.
class ThreadPool {
 public:
  /// Spawns `threads` workers; 0 means default_jobs(). The count is
  /// clamped to [1, kMaxThreads].
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return workers_.size(); }

  /// Job count used when callers pass 0: the SMAC_JOBS environment
  /// variable when set to a positive integer, otherwise
  /// std::thread::hardware_concurrency() (at least 1).
  static std::size_t default_jobs();

  /// Enqueues a nullary callable; the future carries its result or
  /// exception.
  template <class F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> future = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queue_.emplace_back([task] { (*task)(); });
    }
    cv_.notify_one();
    return future;
  }

  /// Runs fn(i) for every i in [0, count), distributing indices across the
  /// workers, and blocks until all complete. Indices are claimed in
  /// increasing order from a shared counter (one atomic fetch_add per
  /// claimed index), so assignment to threads is nondeterministic — fn must
  /// be safe to call concurrently for distinct indices and should write
  /// results into per-index slots. If invocations throw, the exception of
  /// the *lowest* failing index is rethrown once every worker has stopped:
  /// a failure at index f stops further claims above f, while every index
  /// below f was already claimed and runs to completion, so the choice does
  /// not depend on scheduling. Indices above f may never run.
  template <class Fn>
  void for_each_index(std::size_t count, Fn&& fn) {
    if (count == 0) return;
    struct Claims {
      std::atomic<std::size_t> next{0};
      /// Lowest failing index so far; `count` while nothing has failed.
      std::atomic<std::size_t> end;
      std::mutex mutex;
      std::exception_ptr error;  ///< exception of index `end`
    };
    auto claims = std::make_shared<Claims>();
    claims->end.store(count, std::memory_order_relaxed);
    const std::size_t lanes = std::min(size(), count);
    std::vector<std::future<void>> lanes_done;
    lanes_done.reserve(lanes);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      lanes_done.push_back(submit([claims, &fn] {
        for (std::size_t i = claims->next.fetch_add(1);
             i < claims->end.load(std::memory_order_relaxed);
             i = claims->next.fetch_add(1)) {
          try {
            fn(i);
          } catch (...) {
            std::lock_guard<std::mutex> lock(claims->mutex);
            if (i < claims->end.load(std::memory_order_relaxed)) {
              claims->end.store(i, std::memory_order_relaxed);
              claims->error = std::current_exception();
            }
            return;
          }
        }
      }));
    }
    for (auto& done : lanes_done) done.get();
    if (claims->error) std::rethrow_exception(claims->error);
  }

  static constexpr std::size_t kMaxThreads = 256;

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// The one place that decides between running inline and fanning out on a
/// pool. Runs fn(i) for every i in [0, count) and blocks until all
/// complete. `jobs` 0 means ThreadPool::default_jobs(); the worker count
/// is min(jobs, count, ThreadPool::kMaxThreads). With at most one worker
/// (jobs <= 1 or count <= 1) every fn(i) runs inline on the calling
/// thread in index order and no thread is created; otherwise a fresh
/// ThreadPool of that many workers runs ThreadPool::for_each_index.
///
/// Failure: the exception of the lowest failing index is rethrown at any
/// jobs value (inline, the first throw ends the loop).
///
/// All-in-flight guarantee: when count <= jobs (and count <=
/// kMaxThreads), every fn(i) gets its own pool thread and all of them run
/// at once — a worker only claims a second index after its body returns,
/// and there are as many workers as indices. Bodies may therefore wait on
/// each other (a count-party barrier; the PDES kernel's horizon
/// hand-offs). Such bodies must share a cancellation flag and set it
/// before throwing, or the others never return and the join hangs. With
/// count > jobs, bodies must not wait on each other.
template <class Fn>
void for_each_index(std::size_t jobs, std::size_t count, Fn&& fn) {
  if (jobs == 0) jobs = ThreadPool::default_jobs();
  const std::size_t workers =
      std::min({jobs, count, ThreadPool::kMaxThreads});
  if (workers <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  ThreadPool pool(workers);
  pool.for_each_index(count, std::forward<Fn>(fn));
}

}  // namespace smac::parallel
