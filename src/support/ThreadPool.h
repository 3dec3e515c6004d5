//===- support/ThreadPool.h - Fixed-size deterministic worker pool -*- C++ -*-//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A dependency-free fixed-size worker pool. Its one user is serve, which
/// re-executes admitted requests on it (docs/INTERNALS.md section 7; the
/// compile path is single-threaded). Design goals, in order:
///
///   1. Determinism by construction: parallelFor(N, Body) assigns every index
///      to exactly one invocation of Body, so any computation whose per-index
///      results are independent produces identical output for every worker
///      count.
///   2. Serial reproducibility: a pool of size 1 spawns no threads at all —
///      submit() and parallelFor() run inline on the caller, reproducing the
///      single-threaded path exactly.
///   3. Nesting safety: parallelFor() called from inside a worker task runs
///      inline (no re-entry into the queue, no deadlock), and submit() from a
///      worker only enqueues. The one unsupported pattern is a *task* that
///      blocks on another task's future; wait on futures from outside the
///      pool instead.
///
/// Exceptions propagate: submit()'s future rethrows on get(), and
/// parallelFor() runs every index, then rethrows the exception of the
/// lowest failing index (again independent of the worker count).
///
//===----------------------------------------------------------------------===//

#ifndef PIMFLOW_SUPPORT_THREADPOOL_H
#define PIMFLOW_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace pf {

class ThreadPool {
public:
  /// \p Workers worker threads; 0 means defaultConcurrency(), 1 means a
  /// serial pool that spawns no threads and runs everything inline.
  explicit ThreadPool(unsigned Workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// The worker count (1 for a serial/inline pool).
  unsigned size() const { return NumWorkers; }

  /// max(1, std::thread::hardware_concurrency()).
  static unsigned defaultConcurrency();

  /// Schedules \p F; the future carries its result or exception. On a
  /// serial pool \p F runs inline before this returns.
  template <class Fn>
  auto submit(Fn &&F) -> std::future<std::invoke_result_t<Fn>> {
    using R = std::invoke_result_t<Fn>;
    auto Task = std::make_shared<std::packaged_task<R()>>(std::forward<Fn>(F));
    std::future<R> Fut = Task->get_future();
    if (NumWorkers <= 1)
      (*Task)();
    else
      enqueue([Task] { (*Task)(); });
    return Fut;
  }

  /// Invokes Body(0) .. Body(N-1), each exactly once, and blocks until all
  /// have completed. The calling thread participates, so the pool's queue
  /// drains even when every worker is busy here. Every index runs even if
  /// an earlier one threw; afterwards the exception of the lowest failing
  /// index is rethrown. Runs inline when the pool is serial or when called
  /// from inside one of this pool's own tasks.
  void parallelFor(size_t N, const std::function<void(size_t)> &Body);

private:
  void enqueue(std::function<void()> Task);
  void workerLoop();
  bool onWorkerThread() const;

  unsigned NumWorkers;
  std::vector<std::thread> Threads;
  std::deque<std::function<void()>> Queue;
  std::mutex Mu;
  std::condition_variable Cv;
  bool Stop = false;
};

} // namespace pf

#endif // PIMFLOW_SUPPORT_THREADPOOL_H
