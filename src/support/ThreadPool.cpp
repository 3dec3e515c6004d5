//===- support/ThreadPool.cpp - Fixed-size worker pool --------------------===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include <algorithm>

using namespace pf;

unsigned ThreadPool::defaultConcurrency() {
  return std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(unsigned Workers)
    : NumWorkers(Workers == 0 ? defaultConcurrency() : Workers) {
  if (NumWorkers <= 1)
    return; // Serial pool: everything runs inline on the caller.
  Threads.reserve(NumWorkers);
  for (unsigned I = 0; I < NumWorkers; ++I)
    Threads.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Stop = true;
  }
  Cv.notify_all();
  for (std::thread &T : Threads)
    T.join();
}

void ThreadPool::enqueue(std::function<void()> Task) {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Queue.push_back(std::move(Task));
  }
  Cv.notify_one();
}

void ThreadPool::workerLoop() {
  for (;;) {
    std::function<void()> Task;
    {
      std::unique_lock<std::mutex> Lock(Mu);
      Cv.wait(Lock, [this] { return Stop || !Queue.empty(); });
      if (Queue.empty())
        return; // Stop requested and nothing left to drain.
      Task = std::move(Queue.front());
      Queue.pop_front();
    }
    Task();
  }
}
