#ifndef AVDB_BASE_THREAD_ANNOTATIONS_H_
#define AVDB_BASE_THREAD_ANNOTATIONS_H_

/// Clang thread-safety-analysis attributes behind AVDB_ macros.
///
/// The annotations let `-Wthread-safety` prove, at compile time and on every
/// path, the invariants the concurrent subsystems (BufferPool, the metrics
/// registry, the tracer) otherwise only enforce under TSan on the paths
/// tests happen to execute: "this field is only touched while this mutex is
/// held", "this function must be entered with the lock held", "this scope
/// releases on exit".
///
/// On compilers without the attribute (GCC, MSVC) every macro expands to
/// nothing, so the annotated tree builds identically everywhere; the
/// analysis itself runs in the Clang CI job (AVDB_THREAD_SAFETY=ON adds
/// `-Wthread-safety -Werror=thread-safety`).
///
/// Annotate with the avdb::Mutex / MutexLock / CondVar facade from
/// base/mutex.h — raw std::mutex cannot carry capability attributes.

#if defined(__clang__) && (!defined(SWIG))
#define AVDB_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define AVDB_THREAD_ANNOTATION_(x)  // no-op
#endif

/// Declares a class to be a lockable capability, e.g.
/// `class AVDB_CAPABILITY("mutex") Mutex { ... };`.
#define AVDB_CAPABILITY(x) AVDB_THREAD_ANNOTATION_(capability(x))

/// Declares an RAII class that acquires a capability in its constructor and
/// releases it in its destructor (MutexLock).
#define AVDB_SCOPED_CAPABILITY AVDB_THREAD_ANNOTATION_(scoped_lockable)

/// Data member may only be read or written while `x` is held.
#define AVDB_GUARDED_BY(x) AVDB_THREAD_ANNOTATION_(guarded_by(x))

/// Pointer member: the *pointed-to* data is protected by `x`.
#define AVDB_PT_GUARDED_BY(x) AVDB_THREAD_ANNOTATION_(pt_guarded_by(x))

/// Caller must hold the listed capabilities exclusively on entry.
#define AVDB_REQUIRES(...) \
  AVDB_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))

/// Caller must hold the listed capabilities at least shared on entry.
#define AVDB_REQUIRES_SHARED(...) \
  AVDB_THREAD_ANNOTATION_(requires_shared_capability(__VA_ARGS__))

/// Function acquires the capability and holds it on return.
#define AVDB_ACQUIRE(...) \
  AVDB_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))

/// Function releases the capability; it must be held on entry.
#define AVDB_RELEASE(...) \
  AVDB_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))

/// Function acquires the capability iff it returns `b`.
#define AVDB_TRY_ACQUIRE(b, ...) \
  AVDB_THREAD_ANNOTATION_(try_acquire_capability(b, __VA_ARGS__))

/// Caller must NOT hold the listed capabilities (deadlock prevention).
#define AVDB_EXCLUDES(...) AVDB_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

/// Declares that this mutex must be acquired after `x` (lock ordering).
#define AVDB_ACQUIRED_AFTER(...) \
  AVDB_THREAD_ANNOTATION_(acquired_after(__VA_ARGS__))

/// Declares that this mutex must be acquired before `x`.
#define AVDB_ACQUIRED_BEFORE(...) \
  AVDB_THREAD_ANNOTATION_(acquired_before(__VA_ARGS__))

/// Returns a reference to the capability guarding the annotated value.
#define AVDB_RETURN_CAPABILITY(x) AVDB_THREAD_ANNOTATION_(lock_returned(x))

/// Escape hatch: the function body is exempt from analysis. Use only in the
/// facade internals (e.g. CondVar::Wait juggling adopt/release), never to
/// silence a finding in library code — fix the code or the annotation.
#define AVDB_NO_THREAD_SAFETY_ANALYSIS \
  AVDB_THREAD_ANNOTATION_(no_thread_safety_analysis)

#endif  // AVDB_BASE_THREAD_ANNOTATIONS_H_
