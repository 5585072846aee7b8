#ifndef DSSP_COMMON_MACROS_H_
#define DSSP_COMMON_MACROS_H_

#include <cstdio>
#include <cstdlib>

// Invariant-checking macros. A failed check indicates a programming error
// (not a recoverable condition) and aborts the process.
//
// DSSP_CHECK(cond)          - abort unless cond holds.
// DSSP_CHECK_OK(status)     - abort unless status.ok().
// DSSP_UNREACHABLE(msg)     - abort; marks logically unreachable code.

#define DSSP_CHECK(cond)                                                     \
  do {                                                                       \
    if (!(cond)) {                                                           \
      std::fprintf(stderr, "DSSP_CHECK failed at %s:%d: %s\n", __FILE__,     \
                   __LINE__, #cond);                                         \
      std::abort();                                                          \
    }                                                                        \
  } while (0)

// The status is copied: `expr` may name a member of a temporary (as in
// `DSSP_CHECK_OK(f().status())`) that dies at the end of the declaration.
#define DSSP_CHECK_OK(expr)                                                  \
  do {                                                                       \
    const auto dssp_check_ok_status = (expr);                                \
    if (!dssp_check_ok_status.ok()) {                                        \
      std::fprintf(stderr, "DSSP_CHECK_OK failed at %s:%d: %s\n", __FILE__,  \
                   __LINE__, dssp_check_ok_status.message().c_str());        \
      std::abort();                                                          \
    }                                                                        \
  } while (0)

#define DSSP_UNREACHABLE(msg)                                                \
  do {                                                                       \
    std::fprintf(stderr, "DSSP_UNREACHABLE at %s:%d: %s\n", __FILE__,        \
                 __LINE__, msg);                                             \
    std::abort();                                                            \
  } while (0)

// Clang thread-safety-analysis annotations. Under Clang with -Wthread-safety
// these let the compiler prove the lock protocols that used to live only in
// comments: which mutex guards which field, which functions must (or must
// not) be called with a lock held, and which RAII types acquire/release a
// capability. Under other compilers every macro expands to nothing, so the
// annotated headers stay portable.
//
// The annotated capability types live in common/mutex.h (dssp::Mutex,
// dssp::SharedMutex, the RAII lock holders, and dssp::CondVar); the raw
// standard-library types carry no annotations, so guarded fields must be
// protected by the wrapper types for the analysis to see anything.

#if defined(__clang__)
#define DSSP_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define DSSP_THREAD_ANNOTATION_(x)
#endif

// Type annotations: a class that represents a lockable resource, or an RAII
// holder whose lifetime equals the critical section.
#define DSSP_CAPABILITY(x) DSSP_THREAD_ANNOTATION_(capability(x))
#define DSSP_SCOPED_CAPABILITY DSSP_THREAD_ANNOTATION_(scoped_lockable)

// Data annotations: reads/writes of the member require the named capability.
#define DSSP_GUARDED_BY(x) DSSP_THREAD_ANNOTATION_(guarded_by(x))
#define DSSP_PT_GUARDED_BY(x) DSSP_THREAD_ANNOTATION_(pt_guarded_by(x))

// Function annotations: lock-state preconditions and effects.
#define DSSP_REQUIRES(...) \
  DSSP_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
#define DSSP_REQUIRES_SHARED(...) \
  DSSP_THREAD_ANNOTATION_(requires_shared_capability(__VA_ARGS__))
#define DSSP_ACQUIRE(...) \
  DSSP_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define DSSP_ACQUIRE_SHARED(...) \
  DSSP_THREAD_ANNOTATION_(acquire_shared_capability(__VA_ARGS__))
#define DSSP_RELEASE(...) \
  DSSP_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
#define DSSP_RELEASE_SHARED(...) \
  DSSP_THREAD_ANNOTATION_(release_shared_capability(__VA_ARGS__))
#define DSSP_TRY_ACQUIRE(...) \
  DSSP_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))
#define DSSP_EXCLUDES(...) DSSP_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))
#define DSSP_RETURN_CAPABILITY(x) DSSP_THREAD_ANNOTATION_(lock_returned(x))

// Escape hatch for lock patterns the analysis cannot express (e.g. locking a
// dynamic array of mutexes). Use sparingly and document why at each site.
#define DSSP_NO_THREAD_SAFETY_ANALYSIS \
  DSSP_THREAD_ANNOTATION_(no_thread_safety_analysis)

#endif  // DSSP_COMMON_MACROS_H_
