#ifndef RESTUNE_COMMON_MUTEX_H_
#define RESTUNE_COMMON_MUTEX_H_

#include <condition_variable>
#include <mutex>

#include "common/thread_annotations.h"

/// Annotated mutex wrapper (docs/CORRECTNESS.md, "Compiler-checked
/// concurrency"). `std::mutex` carries no thread-safety attributes, so
/// locking through it is invisible to clang's `-Wthread-safety` analysis;
/// this wrapper is the same mutex with the capability attributes attached.
/// All mutex-guarded state in the library uses `restune::Mutex` +
/// `restune::MutexLock`, and the `lock-discipline` lint rule keeps naked
/// `.lock()` / `.unlock()` calls and unannotated std RAII guards out of
/// `src/` (this header is the single exemption — it *is* the wrapper).
///
/// Like thread_annotations.h this header is a dependency-free leaf (std
/// headers only), listed in tools/layering.json `leaf_headers`, so even
/// `src/obs` may use it without creating a module back-edge.

namespace restune {

/// A `std::mutex` the thread-safety analysis can see. Satisfies
/// BasicLockable, but code should hold it through `MutexLock` — the RAII
/// type is what makes scope-based reasoning (and the analysis) line up
/// with the actual lock lifetime.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() { mu_.lock(); }
  void unlock() RELEASE() { mu_.unlock(); }
  /// Tells the analysis the calling thread holds this mutex, where it
  /// cannot see so itself (a callback run under the caller's lock). Checks
  /// nothing at run time.
  void AssertHeld() const ASSERT_CAPABILITY(this) {}

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// RAII holder for `Mutex`, annotated as a scoped capability so the
/// analysis knows the lock is held exactly for this object's lifetime.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) ACQUIRE(mu) : mu_(mu) { mu_->lock(); }
  ~MutexLock() RELEASE() { mu_->unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

/// Condition variable paired with `Mutex`. `Wait` must be called with the
/// mutex held (enforced by REQUIRES); it atomically releases the mutex
/// while blocking and reacquires it before returning, so from the
/// analysis' point of view — and the caller's — the capability is held
/// across the call. Always wait in a loop re-checking the predicate.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex* mu) REQUIRES(mu) {
    // Adopt the already-held native mutex for the duration of the wait,
    // then release ownership again so the unique_lock destructor does not
    // unlock what MutexLock still holds.
    std::unique_lock<std::mutex> native(mu->mu_, std::adopt_lock);
    cv_.wait(native);
    native.release();
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace restune

#endif  // RESTUNE_COMMON_MUTEX_H_
