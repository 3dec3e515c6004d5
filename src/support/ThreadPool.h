//===- support/ThreadPool.h - Fixed-size worker pool ------------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A dependency-free fixed-size worker pool. Its one user is serve, which
/// re-executes admitted requests on it (docs/INTERNALS.md section 7; the
/// compile path is single-threaded).
///
///   1. Serial reproducibility: a pool of size 1 spawns no threads at all —
///      submit() runs the task inline on the caller, reproducing the
///      single-threaded path exactly.
///   2. Nesting safety: submit() from a worker only enqueues. The one
///      unsupported pattern is a *task* that blocks on another task's
///      future; wait on futures from outside the pool instead.
///
/// Exceptions propagate: submit()'s future rethrows on get().
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

private:
  void enqueue(std::function<void()> Task);
  void workerLoop();

  unsigned NumWorkers;
  std::vector<std::thread> Threads;
  std::deque<std::function<void()>> Queue;
  std::mutex Mu;
  std::condition_variable Cv;
  bool Stop = false;
};

} // namespace pf

#endif // PIMFLOW_SUPPORT_THREADPOOL_H
