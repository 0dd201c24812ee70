// The repo's one mutex: cafe::Mutex / cafe::MutexLock / cafe::CondVar,
// thin wrappers over the std primitives that carry Clang Thread Safety
// Analysis capability attributes. Every locking invariant in src/ —
// which fields a mutex guards, which methods require it held, which
// public entry points must not hold it — is written down with the
// CAFE_* macros below and machine-checked by `-Wthread-safety`
// (promoted to an error under CAFE_WERROR and in the static-analysis
// CI job). Under compilers without the analysis (GCC) the attributes
// expand to nothing and the wrappers cost exactly what std::mutex
// costs.
//
// Raw std::mutex / std::lock_guard / std::unique_lock /
// std::condition_variable are banned everywhere else in src/ by
// tools/lint_cafe.py (cafe-no-raw-mutex), the same confinement pattern
// as std::thread -> ThreadPool, so a mutex cannot re-enter the tree
// without its invariants being statically expressible.
//
// Annotation cheat sheet (docs/ARCHITECTURE.md "Concurrency
// invariants" has the repo-wide lock hierarchy):
//
//   Mutex mu_;
//   int items_ CAFE_GUARDED_BY(mu_);          // reads+writes need mu_
//   void Compact() CAFE_REQUIRES(mu_);        // caller already holds it
//   size_t Size() const CAFE_EXCLUDES(mu_);   // caller must NOT hold it
//
// Condition waits: CondVar::Wait takes the Mutex itself and is
// annotated CAFE_REQUIRES(mu), so the analysis verifies the lock is
// held at the wait. Write predicate loops out explicitly —
//
//   MutexLock lock(&mu_);
//   while (!done_) cv_.Wait(&mu_);
//
// — rather than passing a predicate lambda: the analysis treats a
// lambda body as a separate unannotated function and would flag its
// guarded-field reads.
//
// CAFE_NO_THREAD_SAFETY_ANALYSIS is the escape hatch for the rare
// function whose locking discipline is correct but inexpressible
// (e.g. lock handoff between functions). Every use MUST carry a
// comment justifying why the analysis cannot see the invariant, on
// the same or the previous line; tools/lint_cafe.py
// (cafe-justified-escape-hatch) checks every use against that contract.

#ifndef CAFE_UTIL_MUTEX_H_
#define CAFE_UTIL_MUTEX_H_

#include <condition_variable>
#include <mutex>

// ---------------------------------------------------------------------
// Clang Thread Safety Analysis attribute macros. GCC accepts none of
// these, so they compile away there; the analysis itself only runs
// under clang -Wthread-safety.
#if defined(__clang__)
#define CAFE_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define CAFE_THREAD_ANNOTATION_(x)
#endif

/// Declares a type to be a lockable capability ("mutex" in warnings).
#define CAFE_CAPABILITY(x) CAFE_THREAD_ANNOTATION_(capability(x))

/// Declares an RAII type that acquires a capability at construction
/// and releases it at destruction.
#define CAFE_SCOPED_CAPABILITY CAFE_THREAD_ANNOTATION_(scoped_lockable)

/// Field/variable may only be accessed while holding `x`.
#define CAFE_GUARDED_BY(x) CAFE_THREAD_ANNOTATION_(guarded_by(x))

/// Pointer field: the *pointee* may only be accessed while holding `x`
/// (the pointer itself is unguarded).
#define CAFE_PT_GUARDED_BY(x) CAFE_THREAD_ANNOTATION_(pt_guarded_by(x))

/// Lock-ordering documentation: this mutex must be acquired before /
/// after the named ones.
#define CAFE_ACQUIRED_BEFORE(...) \
  CAFE_THREAD_ANNOTATION_(acquired_before(__VA_ARGS__))
#define CAFE_ACQUIRED_AFTER(...) \
  CAFE_THREAD_ANNOTATION_(acquired_after(__VA_ARGS__))

/// Function requires the capability held on entry (and does not
/// release it).
#define CAFE_REQUIRES(...) \
  CAFE_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))

/// Function acquires the capability and holds it past return.
#define CAFE_ACQUIRE(...) \
  CAFE_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))

/// Function releases a capability the caller held.
#define CAFE_RELEASE(...) \
  CAFE_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))

/// Function tries to acquire; first argument is the success value.
#define CAFE_TRY_ACQUIRE(...) \
  CAFE_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))

/// Caller must NOT hold the capability (deadlock prevention on
/// re-entrant public APIs).
#define CAFE_EXCLUDES(...) \
  CAFE_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

/// Runtime assertion that the capability is held (fact injection).
#define CAFE_ASSERT_CAPABILITY(x) \
  CAFE_THREAD_ANNOTATION_(assert_capability(x))

/// Function returns a reference to the named capability.
#define CAFE_RETURN_CAPABILITY(x) CAFE_THREAD_ANNOTATION_(lock_returned(x))

/// Escape hatch: disables the analysis for one function. Every use
/// must carry a justification comment (see file header).
#define CAFE_NO_THREAD_SAFETY_ANALYSIS \
  CAFE_THREAD_ANNOTATION_(no_thread_safety_analysis)

namespace cafe {

class CondVar;

/// A non-reentrant mutual-exclusion lock carrying the "mutex"
/// capability. Same cost and semantics as std::mutex; prefer MutexLock
/// over manual Lock/Unlock pairs.
class CAFE_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() CAFE_ACQUIRE() { mu_.lock(); }
  void Unlock() CAFE_RELEASE() { mu_.unlock(); }
  bool TryLock() CAFE_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// RAII lock: acquires at construction, releases at destruction.
class CAFE_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) CAFE_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() CAFE_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

/// Condition variable bound to cafe::Mutex. Wait atomically releases
/// the mutex and re-acquires it before returning; to the thread safety
/// analysis the mutex stays held across the call, which matches what
/// the caller observes. Spurious wakeups happen — always wait in a
/// `while (!predicate)` loop (written out, not as a lambda; see the
/// file header).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex* mu) CAFE_REQUIRES(mu) {
    // Adopt the already-held native mutex for the wait protocol, then
    // release the unique_lock wrapper so ownership stays with the
    // caller's MutexLock.
    std::unique_lock<std::mutex> native(mu->mu_, std::adopt_lock);
    cv_.wait(native);
    native.release();
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace cafe

#endif  // CAFE_UTIL_MUTEX_H_
