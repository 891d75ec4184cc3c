#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

/// \file sync.h
/// Compile-time lock discipline for every concurrent subsystem.
///
/// This header is the ONLY place in the repository allowed to name the raw
/// std synchronization types (the `naked-std-mutex` lint rule walls them in
/// here). Everything else uses the `ipso::sync` wrappers, which carry Clang
/// Thread Safety Analysis attributes: under clang with `-Wthread-safety
/// -Wthread-safety-beta` the compiler *proves* that every `IPSO_GUARDED_BY`
/// field is touched only with its capability held, that every
/// `IPSO_REQUIRES` helper is called locked, and that `IPSO_ACQUIRED_AFTER`
/// edges (the DESIGN.md §13 lock-order table) are never inverted. Under any
/// other compiler the attribute macros expand to nothing and the wrappers
/// compile to the plain std types — the gcc Release build is unchanged.
///
/// The macro set mirrors the LLVM documentation names with an IPSO_ prefix
/// (matching IPSO_EXPECTS / IPSO_ENSURES from core/contracts.h):
///
///   IPSO_CAPABILITY / IPSO_SCOPED_CAPABILITY        type declarations
///   IPSO_GUARDED_BY / IPSO_PT_GUARDED_BY            data members
///   IPSO_REQUIRES                                   "call me locked"
///   IPSO_ACQUIRE / IPSO_RELEASE                     lock/unlock functions
///   IPSO_TRY_ACQUIRE                                conditional acquisition
///   IPSO_EXCLUDES                                   "call me UNlocked"
///   IPSO_ACQUIRED_BEFORE / IPSO_ACQUIRED_AFTER      static lock order
///   IPSO_ASSERT_CAPABILITY                          runtime-checked holds
///   IPSO_RETURN_CAPABILITY                          capability getters
///   IPSO_NO_THREAD_SAFETY_ANALYSIS                  opt-out (justify it!)
///
/// Optional contention telemetry: configure with -DIPSO_SYNC_STATS=ON and
/// every *named* Mutex counts acquisitions, contended acquisitions, and
/// total hold time through cheap relaxed atomics (sync::profile() snapshots
/// them; bench_serve_load prints the table). The default build compiles all
/// of it out — an unnamed or default-built Mutex is exactly a std::mutex.

#if defined(__clang__) && (!defined(SWIG))
#define IPSO_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define IPSO_THREAD_ANNOTATION(x)  // no-op: attributes unsupported
#endif

#define IPSO_CAPABILITY(x) IPSO_THREAD_ANNOTATION(capability(x))
#define IPSO_SCOPED_CAPABILITY IPSO_THREAD_ANNOTATION(scoped_lockable)
#define IPSO_GUARDED_BY(x) IPSO_THREAD_ANNOTATION(guarded_by(x))
#define IPSO_PT_GUARDED_BY(x) IPSO_THREAD_ANNOTATION(pt_guarded_by(x))
#define IPSO_ACQUIRED_BEFORE(...) \
  IPSO_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define IPSO_ACQUIRED_AFTER(...) \
  IPSO_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))
#define IPSO_REQUIRES(...) \
  IPSO_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define IPSO_ACQUIRE(...) \
  IPSO_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define IPSO_RELEASE(...) \
  IPSO_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define IPSO_TRY_ACQUIRE(...) \
  IPSO_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define IPSO_EXCLUDES(...) IPSO_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define IPSO_ASSERT_CAPABILITY(x) \
  IPSO_THREAD_ANNOTATION(assert_capability(x))
#define IPSO_RETURN_CAPABILITY(x) IPSO_THREAD_ANNOTATION(lock_returned(x))
#define IPSO_NO_THREAD_SAFETY_ANALYSIS \
  IPSO_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace ipso::sync {

#if defined(IPSO_SYNC_STATS)

/// One named mutex's counters, snapshotted by profile(). Contention is
/// approximate by design (try_lock-then-lock), which is exactly what a
/// lock-splitting decision needs: which locks are fought over, not a cycle
/// count.
struct MutexProfile {
  std::string name;
  std::uint64_t acquisitions = 0;  ///< exclusive lock() completions
  std::uint64_t contended = 0;     ///< lock() calls that had to wait
  std::uint64_t hold_ns = 0;       ///< summed exclusive hold time
};

namespace detail {

struct MutexCounters {
  std::string name;
  std::uint64_t acquisitions = 0;
  std::uint64_t contended = 0;
  std::uint64_t hold_ns = 0;
};

/// Registry of live named mutexes. Registration/deregistration and
/// snapshots are rare; counter updates happen under the owning mutex
/// itself so plain fields suffice (no atomics, no extra cache traffic).
class Registry {
 public:
  static Registry& instance() {
    static Registry r;
    return r;
  }

  void add(MutexCounters* c) {
    std::lock_guard<std::mutex> lk(mu_);
    live_.push_back(c);
  }

  void remove(MutexCounters* c) {
    std::lock_guard<std::mutex> lk(mu_);
    // Fold the dying mutex's totals into the retired bucket so a profile
    // taken after short-lived engines (bench replicas) still sees them.
    retired_.push_back(MutexProfile{c->name, c->acquisitions, c->contended,
                                    c->hold_ns});
    for (auto it = live_.begin(); it != live_.end(); ++it) {
      if (*it == c) {
        live_.erase(it);
        break;
      }
    }
  }

  std::vector<MutexProfile> snapshot() const {
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<MutexProfile> out = retired_;
    for (const MutexCounters* c : live_) {
      out.push_back(
          MutexProfile{c->name, c->acquisitions, c->contended, c->hold_ns});
    }
    return out;
  }

 private:
  mutable std::mutex mu_;
  std::vector<MutexCounters*> live_;
  std::vector<MutexProfile> retired_;
};

}  // namespace detail

constexpr bool stats_compiled_in() noexcept { return true; }

/// Point-in-time counters for every named mutex (live + destroyed).
inline std::vector<MutexProfile> profile() {
  return detail::Registry::instance().snapshot();
}

#else  // !IPSO_SYNC_STATS

struct MutexProfile {
  std::string name;
  std::uint64_t acquisitions = 0;
  std::uint64_t contended = 0;
  std::uint64_t hold_ns = 0;
};

constexpr bool stats_compiled_in() noexcept { return false; }

/// Stats are compiled out: always empty (bench prints a notice instead).
inline std::vector<MutexProfile> profile() { return {}; }

#endif  // IPSO_SYNC_STATS

/// Annotated exclusive mutex. Construct with a name to opt into contention
/// counters under -DIPSO_SYNC_STATS=ON; unnamed (the default) it is a plain
/// std::mutex in every build.
class IPSO_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;

#if defined(IPSO_SYNC_STATS)
  explicit Mutex(std::string name) {
    counters_.name = std::move(name);
    if (!counters_.name.empty()) {
      registered_ = true;
      detail::Registry::instance().add(&counters_);
    }
  }
  ~Mutex() {
    if (registered_) detail::Registry::instance().remove(&counters_);
  }
#else
  explicit Mutex(const std::string&) {}
  ~Mutex() = default;
#endif

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() IPSO_ACQUIRE() {
#if defined(IPSO_SYNC_STATS)
    if (registered_) {
      if (!mu_.try_lock()) {
        mu_.lock();
        ++counters_.contended;  // under the lock now; plain field is safe
      }
      ++counters_.acquisitions;
      held_since_ = std::chrono::steady_clock::now();
      return;
    }
#endif
    mu_.lock();
  }

  void unlock() IPSO_RELEASE() {
#if defined(IPSO_SYNC_STATS)
    if (registered_) {
      counters_.hold_ns += static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - held_since_)
              .count());
    }
#endif
    mu_.unlock();
  }

  bool try_lock() IPSO_TRY_ACQUIRE(true) {
#if defined(IPSO_SYNC_STATS)
    if (registered_) {
      if (!mu_.try_lock()) return false;
      ++counters_.acquisitions;
      held_since_ = std::chrono::steady_clock::now();
      return true;
    }
#endif
    return mu_.try_lock();
  }

  /// Escape hatch for asserting "I hold this" to the analysis at runtime
  /// boundaries it cannot see across (callback seams). Use sparingly.
  void assert_held() const IPSO_ASSERT_CAPABILITY(this) {}

 private:
  friend class CondVar;
  std::mutex mu_;
#if defined(IPSO_SYNC_STATS)
  bool registered_ = false;
  std::chrono::steady_clock::time_point held_since_{};
  detail::MutexCounters counters_;
#endif
};

/// RAII exclusive guard over Mutex, with the early-unlock / re-lock shape
/// the engine and cache need. The destructor releases iff still held, and
/// the analysis tracks the scoped state across unlock()/lock() pairs.
class IPSO_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) IPSO_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() IPSO_RELEASE() {
    if (held_) mu_.unlock();
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// Releases before scope exit (e.g. to invoke a user callback unlocked).
  void unlock() IPSO_RELEASE() {
    mu_.unlock();
    held_ = false;
  }

  /// Re-acquires after an early unlock().
  void lock() IPSO_ACQUIRE() {
    mu_.lock();
    held_ = true;
  }

 private:
  Mutex& mu_;
  bool held_ = true;
};

/// Condition variable that waits on a sync::Mutex directly (the Mutex is a
/// Lockable, so condition_variable_any parks on it without an unannotated
/// unique_lock detour). Callers hold the mutex across wait() — exactly the
/// capability state the analysis expects — and the internal unlock/relock
/// happens inside the std implementation, invisible to the checker.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

  /// Blocks until notified; `mu` must be held (and is held again on
  /// return). Spurious wakeups happen — prefer the predicate overload.
  void wait(Mutex& mu) IPSO_REQUIRES(mu) { cv_.wait(mu); }

  /// Blocks until `pred()` is true, re-checking under the mutex after
  /// every wakeup. The predicate runs with `mu` held.
  template <class Predicate>
  void wait(Mutex& mu, Predicate pred) IPSO_REQUIRES(mu) {
    while (!pred()) cv_.wait(mu);
  }

 private:
  std::condition_variable_any cv_;
};

}  // namespace ipso::sync
