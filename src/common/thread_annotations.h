// Clang thread-safety annotations + the annotated lock primitives the
// concurrent layers build on (DESIGN.md §10).
//
// Two pieces:
//
//  1. FCM_GUARDED_BY / FCM_REQUIRES / FCM_ACQUIRE / ... — macro wrappers over
//     Clang's capability attributes. Under Clang they feed -Wthread-safety,
//     which proves at compile time that every access to an annotated member
//     happens with the right capability held (the CI job
//     `clang-thread-safety` builds the whole tree with
//     -Wthread-safety -Werror=thread-safety). Under GCC they expand to
//     nothing, so the annotations are free documentation there.
//
//  2. fcm::common::Mutex / MutexLock / ThreadRole — the capability types the
//     attributes refer to. std::mutex and std::lock_guard carry no
//     annotations in libstdc++, so Clang cannot see their acquire/release
//     semantics; Mutex is a zero-overhead annotated wrapper and MutexLock the
//     matching scoped lock (relockable, so it can be handed to
//     std::condition_variable_any::wait). ThreadRole is an annotation-only
//     capability expressing single-thread ownership disciplines that are not
//     locks — "only the SPSC producer thread", "only the driver thread" —
//     asserted (not acquired) at the owning thread's entry points.
//
// Annotation conventions for this repo (see DESIGN.md §10 for the catalog):
//  - every mutex-protected member carries FCM_GUARDED_BY(mutex_);
//  - private helpers that expect the lock held carry FCM_REQUIRES(mutex_)
//    on their *declaration* (Clang propagates it to the definition);
//  - single-thread state (SPSC cursors, driver staging) is guarded by a
//    ThreadRole; the owning code path calls role.assert_held() — a runtime
//    no-op that tells the analysis (and tools/fcm_lint.py's guarded-field
//    rule) which thread the surrounding scope belongs to.
#pragma once

#include <mutex>

// Attribute plumbing: real Clang attributes under Clang, no-ops elsewhere.
#if defined(__clang__)
#define FCM_THREAD_ANNOTATION_ATTRIBUTE_(x) __attribute__((x))
#else
#define FCM_THREAD_ANNOTATION_ATTRIBUTE_(x)  // GCC et al.: documentation only
#endif

// A type that represents a capability (a lock, or a thread-ownership role).
#define FCM_CAPABILITY(x) FCM_THREAD_ANNOTATION_ATTRIBUTE_(capability(x))

// A RAII type that acquires a capability on construction and releases it on
// destruction (may also release/re-acquire mid-scope, e.g. around a
// condition-variable wait).
#define FCM_SCOPED_CAPABILITY FCM_THREAD_ANNOTATION_ATTRIBUTE_(scoped_lockable)

// Data members: may only be read/written while holding the capability.
#define FCM_GUARDED_BY(x) FCM_THREAD_ANNOTATION_ATTRIBUTE_(guarded_by(x))
// Pointer members: the pointed-to data is protected by the capability.
#define FCM_PT_GUARDED_BY(x) FCM_THREAD_ANNOTATION_ATTRIBUTE_(pt_guarded_by(x))

// Functions: caller must hold the capability (checked at every call site).
#define FCM_REQUIRES(...) \
  FCM_THREAD_ANNOTATION_ATTRIBUTE_(requires_capability(__VA_ARGS__))
#define FCM_REQUIRES_SHARED(...) \
  FCM_THREAD_ANNOTATION_ATTRIBUTE_(requires_shared_capability(__VA_ARGS__))

// Functions: acquire/release the capability (lock()/unlock() style).
#define FCM_ACQUIRE(...) \
  FCM_THREAD_ANNOTATION_ATTRIBUTE_(acquire_capability(__VA_ARGS__))
#define FCM_RELEASE(...) \
  FCM_THREAD_ANNOTATION_ATTRIBUTE_(release_capability(__VA_ARGS__))
#define FCM_TRY_ACQUIRE(...) \
  FCM_THREAD_ANNOTATION_ATTRIBUTE_(try_acquire_capability(__VA_ARGS__))

// Functions: caller must NOT hold the capability (deadlock prevention).
#define FCM_EXCLUDES(...) \
  FCM_THREAD_ANNOTATION_ATTRIBUTE_(locks_excluded(__VA_ARGS__))

// Functions: assert (do not acquire) that the capability is held from here
// on — the escape hatch for ownership the analysis cannot see, e.g. "this
// function only ever runs on the producer thread".
#define FCM_ASSERT_CAPABILITY(...) \
  FCM_THREAD_ANNOTATION_ATTRIBUTE_(assert_capability(__VA_ARGS__))

// Functions: returns a reference to the capability guarding the object.
#define FCM_RETURN_CAPABILITY(x) \
  FCM_THREAD_ANNOTATION_ATTRIBUTE_(lock_returned(x))

// Last resort: disable the analysis for one function (constructors tearing
// through not-yet-shared state, test scaffolding). Use sparingly and say why.
#define FCM_NO_THREAD_SAFETY_ANALYSIS \
  FCM_THREAD_ANNOTATION_ATTRIBUTE_(no_thread_safety_analysis)

namespace fcm::common {

// Annotated drop-in for std::mutex. Same cost — the annotations are
// compile-time only — but Clang understands lock()/unlock(), so members
// declared FCM_GUARDED_BY(a Mutex) are machine-checked.
class FCM_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() FCM_ACQUIRE() { mutex_.lock(); }
  void unlock() FCM_RELEASE() { mutex_.unlock(); }
  bool try_lock() FCM_TRY_ACQUIRE(true) { return mutex_.try_lock(); }

  // Declares (to the analysis only) that the current thread holds the lock.
  void assert_held() const FCM_ASSERT_CAPABILITY(this) {}

 private:
  std::mutex mutex_;
};

// Scoped lock for Mutex, annotated so Clang tracks the critical section.
// Relockable: unlock()/lock() let std::condition_variable_any::wait release
// and re-take it, and the destructor only unlocks when currently held —
// the early-release pattern the coordinator uses stays correct.
class FCM_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) FCM_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.lock();
  }
  ~MutexLock() FCM_RELEASE() {
    if (held_) mutex_.unlock();
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  void unlock() FCM_RELEASE() {
    mutex_.unlock();
    held_ = false;
  }
  void lock() FCM_ACQUIRE() {
    mutex_.lock();
    held_ = true;
  }

 private:
  Mutex& mutex_;
  bool held_ = true;
};

// An annotation-only capability naming a thread-ownership role rather than a
// lock: "the single SPSC producer", "the one driver thread", "the thread
// driving this ingest handle". Nothing acquires it at runtime — the code
// path that is the role calls assert_held(), an empty inline function that
// (under Clang) marks the capability held for the rest of the scope. That
// lets FCM_GUARDED_BY express cursor/staging ownership the same way it
// expresses mutex protection, and turns "this must only be called from the
// worker thread" comments into analyzable facts.
class FCM_CAPABILITY("role") ThreadRole {
 public:
  ThreadRole() = default;
  ThreadRole(const ThreadRole&) = delete;
  ThreadRole& operator=(const ThreadRole&) = delete;

  void assert_held() const FCM_ASSERT_CAPABILITY(this) {}
};

}  // namespace fcm::common
