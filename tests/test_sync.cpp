#include "core/sync.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

/// Wrapper-semantics tests for ipso::sync (core/sync.h). The *static* side
/// of the thread-safety story — clang rejecting an unguarded write or a
/// lock-order inversion — is proven by the compile-fail seeds under
/// tools/lint/selftest/ (run_lint.py --self-test); here we pin down the
/// runtime behavior the wrappers must keep on every compiler, including the
/// gcc no-op-macro path this very translation unit exercises.

namespace ipso::sync {
namespace {

TEST(SyncMutex, LockUnlockTryLock) {
  Mutex mu;
  mu.lock();
  EXPECT_FALSE(mu.try_lock()) << "already held exclusively";
  mu.unlock();
  EXPECT_TRUE(mu.try_lock());
  mu.unlock();
}

TEST(SyncMutex, GuardsACounterAcrossThreads) {
  Mutex mu;
  int counter = 0;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 1000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) {
        MutexLock lock(mu);
        ++counter;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter, kThreads * kIncrements);
}

TEST(SyncMutexLock, EarlyUnlockAndRelock) {
  Mutex mu;
  MutexLock lock(mu);
  lock.unlock();
  EXPECT_TRUE(mu.try_lock()) << "early unlock() must release the mutex";
  mu.unlock();
  lock.lock();
  EXPECT_FALSE(mu.try_lock()) << "relock() must re-acquire";
  // Destructor releases the re-acquired mutex; a double-unlock here would
  // be UB the sanitizer legs flag.
}

TEST(SyncMutexLock, DestructorSkipsReleaseAfterEarlyUnlock) {
  Mutex mu;
  {
    MutexLock lock(mu);
    lock.unlock();
  }  // dtor must not unlock again
  EXPECT_TRUE(mu.try_lock());
  mu.unlock();
}

TEST(SyncCondVar, PredicateWaitSeesNotifiedState) {
  Mutex mu;
  CondVar cv;
  bool ready = false;
  int observed = 0;

  std::thread consumer([&] {
    MutexLock lock(mu);
    cv.wait(mu, [&] { return ready; });
    observed = 42;
  });

  // Unconditional-notify-before-wait is the classic lost-wakeup shape; the
  // predicate overload must be immune because it re-checks under the lock.
  {
    MutexLock lock(mu);
    ready = true;
  }
  cv.notify_all();
  consumer.join();
  EXPECT_EQ(observed, 42);
}

TEST(SyncCondVar, WaitReacquiresTheMutexBeforeReturning) {
  Mutex mu;
  CondVar cv;
  bool ready = false;
  std::atomic<bool> woke{false};

  std::thread waiter([&] {
    MutexLock lock(mu);
    cv.wait(mu, [&] { return ready; });
    // Holding mu here: the main thread's try_lock below must fail until
    // this scope exits.
    woke.store(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  });

  {
    MutexLock lock(mu);
    ready = true;
  }
  cv.notify_one();
  while (!woke.load()) std::this_thread::yield();
  EXPECT_FALSE(mu.try_lock()) << "waiter must hold the mutex after wait()";
  waiter.join();
  EXPECT_TRUE(mu.try_lock());
  mu.unlock();
}

TEST(SyncStats, ProfileMatchesCompileTimeSwitch) {
  // Default builds compile the contention counters out entirely; the
  // IPSO_SYNC_STATS bench build keeps per-named-mutex counts. Either way
  // profile() and stats_compiled_in() must agree.
  Mutex named("test.sync.profiled");
  {
    MutexLock lock(named);
  }
  const std::vector<MutexProfile> profiles = profile();
  if (!stats_compiled_in()) {
    EXPECT_TRUE(profiles.empty());
    return;
  }
  bool found = false;
  for (const MutexProfile& p : profiles) {
    if (p.name == "test.sync.profiled") {
      found = true;
      EXPECT_GE(p.acquisitions, 1u);
    }
  }
  EXPECT_TRUE(found);
}

TEST(SyncStats, ContentionIsCountedWhenCompiledIn) {
  if (!stats_compiled_in()) GTEST_SKIP() << "IPSO_SYNC_STATS is off";
  Mutex named("test.sync.contended");
  std::atomic<bool> held{false};
  std::thread holder([&] {
    MutexLock lock(named);
    held.store(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  });
  while (!held.load()) std::this_thread::yield();
  {
    MutexLock lock(named);  // must contend with the holder
  }
  holder.join();
  for (const MutexProfile& p : profile()) {
    if (p.name == "test.sync.contended") {
      EXPECT_GE(p.contended, 1u);
      EXPECT_GE(p.acquisitions, 2u);
      EXPECT_GT(p.hold_ns, 0u);
      return;
    }
  }
  FAIL() << "named mutex missing from profile()";
}

}  // namespace
}  // namespace ipso::sync
