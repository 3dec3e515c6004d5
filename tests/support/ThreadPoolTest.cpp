//===- tests/support/ThreadPoolTest.cpp - worker pool tests -----*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include <atomic>
#include <gtest/gtest.h>
#include <stdexcept>

using namespace pf;

TEST(ThreadPoolTest, CompletesSubmittedTasks) {
  ThreadPool Pool(4);
  EXPECT_EQ(Pool.size(), 4u);
  std::atomic<int> Sum{0};
  std::vector<std::future<int>> Futs;
  for (int I = 0; I < 100; ++I)
    Futs.push_back(Pool.submit([I, &Sum] {
      Sum.fetch_add(I);
      return I * 2;
    }));
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(Futs[static_cast<size_t>(I)].get(), I * 2);
  EXPECT_EQ(Sum.load(), 4950);
}

TEST(ThreadPoolTest, DefaultSizeUsesHardwareConcurrency) {
  ThreadPool Pool(0);
  EXPECT_EQ(Pool.size(), ThreadPool::defaultConcurrency());
  EXPECT_GE(Pool.size(), 1u);
}

TEST(ThreadPoolTest, SerialPoolRunsInlineOnCaller) {
  ThreadPool Pool(1);
  const std::thread::id Caller = std::this_thread::get_id();
  std::thread::id SubmitRan;
  Pool.submit([&] { SubmitRan = std::this_thread::get_id(); }).get();
  EXPECT_EQ(SubmitRan, Caller);
}

TEST(ThreadPoolTest, SubmitPropagatesExceptions) {
  ThreadPool Pool(2);
  auto Fut = Pool.submit(
      []() -> int { throw std::runtime_error("task failure"); });
  EXPECT_THROW(Fut.get(), std::runtime_error);
  // The pool survives a failed task.
  EXPECT_EQ(Pool.submit([] { return 7; }).get(), 7);
}

TEST(ThreadPoolTest, NestedSubmitIsSafe) {
  ThreadPool Pool(2);
  std::atomic<int> Inner{0};
  // A task may enqueue further tasks; their futures are waited on from
  // outside the pool.
  auto Outer = Pool.submit([&] {
    std::vector<std::future<void>> Fs;
    for (int I = 0; I < 8; ++I)
      Fs.push_back(Pool.submit([&Inner] { Inner.fetch_add(1); }));
    return Fs;
  });
  for (std::future<void> &F : Outer.get())
    F.get();
  EXPECT_EQ(Inner.load(), 8);
}

TEST(ThreadPoolTest, DestructorDrainsPendingTasks) {
  std::atomic<int> Ran{0};
  std::vector<std::future<void>> Futs;
  {
    ThreadPool Pool(2);
    for (int I = 0; I < 32; ++I)
      Futs.push_back(Pool.submit([&Ran] { Ran.fetch_add(1); }));
  } // Destructor joins after the queue is empty.
  for (std::future<void> &F : Futs)
    F.get();
  EXPECT_EQ(Ran.load(), 32);
}
