/// \file
/// Clang thread-safety annotations (DESIGN.md §7): compile-time lock
/// checking for the mutex-holding subsystems (parallel/ThreadPool,
/// parallel/TaskHeap, serve/ModelStore, serve/AsyncUpdater,
/// obs/MetricsRegistry, obs/TraceRing).
///
/// The macros expand to Clang `-Wthread-safety` capability attributes
/// under Clang and to nothing elsewhere (GCC builds are unaffected). CI
/// builds the library with `clang++ -Wthread-safety
/// -Werror=thread-safety` (the `thread-safety` job; locally:
/// `-DER_THREAD_SAFETY=ON` with a Clang compiler), so a method that
/// touches an `ER_GUARDED_BY` field without holding its mutex — or calls
/// an `ER_REQUIRES` method without the capability — fails the build
/// instead of waiting for a TSan interleaving.
///
/// Conventions (see DESIGN.md §3/§4 for the lock contracts these encode):
///   * Every mutex is a `util::Mutex`; every field it protects is
///     declared `ER_GUARDED_BY(mutex_)` at the declaration site.
///   * Critical sections use `util::MutexLock` (lock_guard equivalent)
///     or `util::UniqueLock` (relockable; condition-variable waits go
///     through `UniqueLock::native()`).
///   * Private helpers that assume the lock is already held are
///     annotated `ER_REQUIRES(mutex_)` and named `*_locked` by repo
///     convention.
#pragma once

#include <mutex>

#if defined(__clang__)
#define ER_THREAD_ANNOTATION_ATTRIBUTE__(x) __attribute__((x))
#else
#define ER_THREAD_ANNOTATION_ATTRIBUTE__(x)  // no-op outside Clang
#endif

/// Marks a class as a lockable capability (e.g. a mutex wrapper).
#define ER_CAPABILITY(x) ER_THREAD_ANNOTATION_ATTRIBUTE__(capability(x))

/// Marks an RAII class whose constructor acquires and destructor releases
/// a capability.
#define ER_SCOPED_CAPABILITY ER_THREAD_ANNOTATION_ATTRIBUTE__(scoped_lockable)

/// Declares that a data member is protected by the given capability.
#define ER_GUARDED_BY(x) ER_THREAD_ANNOTATION_ATTRIBUTE__(guarded_by(x))

/// As ER_GUARDED_BY, for the pointee of a pointer member.
#define ER_PT_GUARDED_BY(x) ER_THREAD_ANNOTATION_ATTRIBUTE__(pt_guarded_by(x))

/// Function acquires the capability (no argument: `this`).
#define ER_ACQUIRE(...) \
  ER_THREAD_ANNOTATION_ATTRIBUTE__(acquire_capability(__VA_ARGS__))

/// Function releases the capability (no argument: `this`).
#define ER_RELEASE(...) \
  ER_THREAD_ANNOTATION_ATTRIBUTE__(release_capability(__VA_ARGS__))

/// Function attempts the acquisition; first argument is the return value
/// meaning success.
#define ER_TRY_ACQUIRE(...) \
  ER_THREAD_ANNOTATION_ATTRIBUTE__(try_acquire_capability(__VA_ARGS__))

/// Caller must hold the capability when invoking this function.
#define ER_REQUIRES(...) \
  ER_THREAD_ANNOTATION_ATTRIBUTE__(requires_capability(__VA_ARGS__))

/// Caller must NOT hold the capability (deadlock prevention for
/// self-locking public methods).
#define ER_EXCLUDES(...) \
  ER_THREAD_ANNOTATION_ATTRIBUTE__(locks_excluded(__VA_ARGS__))

/// Function returns a reference to the given capability.
#define ER_RETURN_CAPABILITY(x) \
  ER_THREAD_ANNOTATION_ATTRIBUTE__(lock_returned(x))

/// Escape hatch; every use needs an inline justification comment.
#define ER_NO_THREAD_SAFETY_ANALYSIS \
  ER_THREAD_ANNOTATION_ATTRIBUTE__(no_thread_safety_analysis)

namespace er::util {

/// std::mutex wrapper carrying the `capability` attribute so fields can
/// be `ER_GUARDED_BY` it. Zero overhead: all methods are inline
/// forwarders.
class ER_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ER_ACQUIRE() { mu_.lock(); }
  void unlock() ER_RELEASE() { mu_.unlock(); }
  bool try_lock() ER_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  /// The wrapped std::mutex, for condition_variable interop (UniqueLock
  /// wraps it; prefer that over calling native() directly).
  std::mutex& native() { return mu_; }

 private:
  std::mutex mu_;
};

/// Scoped lock, std::lock_guard equivalent (not relockable).
class ER_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) ER_ACQUIRE(mu) : mu_(mu) { mu_->lock(); }
  ~MutexLock() ER_RELEASE() { mu_->unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* mu_;
};

/// Relockable scoped lock over std::unique_lock, for condition-variable
/// waits (`cv.wait(lk.native())`) and code that drops the lock
/// mid-function (`unlock()` / `lock()`). The analysis tracks the held
/// state through the annotated lock()/unlock() members; native() hands
/// the underlying std::unique_lock to condition_variable::wait, which
/// releases and reacquires internally — invisible to (and consistent
/// with) the analysis, since wait() is entered and exited with the lock
/// held.
class ER_SCOPED_CAPABILITY UniqueLock {
 public:
  explicit UniqueLock(Mutex* mu) ER_ACQUIRE(mu) : lk_(mu->native()) {}
  ~UniqueLock() ER_RELEASE() {}  // std::unique_lock unlocks iff held

  UniqueLock(const UniqueLock&) = delete;
  UniqueLock& operator=(const UniqueLock&) = delete;

  void lock() ER_ACQUIRE() { lk_.lock(); }
  void unlock() ER_RELEASE() { lk_.unlock(); }

  /// The wrapped lock, held, for condition_variable::wait.
  std::unique_lock<std::mutex>& native() { return lk_; }

 private:
  std::unique_lock<std::mutex> lk_;
};

}  // namespace er::util
