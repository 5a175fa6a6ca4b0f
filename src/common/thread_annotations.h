#ifndef DYNAMAST_COMMON_THREAD_ANNOTATIONS_H_
#define DYNAMAST_COMMON_THREAD_ANNOTATIONS_H_

/// Clang Thread Safety Analysis capability annotations (see DESIGN.md,
/// "Static thread-safety").
///
/// Every lock type in the codebase (DebugMutex, DebugSharedMutex, RawMutex
/// and their Tracked/Plain implementations in common/debug_mutex.h) is a
/// TSA *capability*; fields carry DYNAMAST_GUARDED_BY(mu), functions that
/// must be called with a lock held carry DYNAMAST_REQUIRES(mu), and public
/// entry points that take the lock themselves carry DYNAMAST_EXCLUDES(mu).
/// The `clang-tsa` preset builds with -Werror=thread-safety, turning any
/// guarded-field access outside its lock, missing-REQUIRES call, double
/// acquisition or shared/exclusive mismatch into a compile error
/// (scripts/check.sh stage `tsa`; negative proofs in
/// tests/tsa_compile_fail/).
///
/// Under GCC (which has no thread-safety analysis) every macro expands to
/// nothing, so annotated code is byte-identical to unannotated code in
/// non-clang builds.

#if defined(__clang__) && defined(__has_attribute)
#define DYNAMAST_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define DYNAMAST_THREAD_ANNOTATION_(x)
#endif

/// Marks a class as a lockable capability ("mutex" names the kind in
/// diagnostics).
#define DYNAMAST_CAPABILITY(x) DYNAMAST_THREAD_ANNOTATION_(capability(x))

/// Marks an RAII class whose lifetime acquires/releases a capability.
#define DYNAMAST_SCOPED_CAPABILITY DYNAMAST_THREAD_ANNOTATION_(scoped_lockable)

/// Field may only be read/written while holding `x`.
#define DYNAMAST_GUARDED_BY(x) DYNAMAST_THREAD_ANNOTATION_(guarded_by(x))

/// Pointer field: the pointed-to data may only be accessed holding `x`.
#define DYNAMAST_PT_GUARDED_BY(x) DYNAMAST_THREAD_ANNOTATION_(pt_guarded_by(x))

/// Function must be called with the listed capabilities held exclusively /
/// shared.
#define DYNAMAST_REQUIRES(...) \
  DYNAMAST_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
#define DYNAMAST_REQUIRES_SHARED(...) \
  DYNAMAST_THREAD_ANNOTATION_(requires_shared_capability(__VA_ARGS__))

/// Function acquires the listed capabilities (and does not release them).
#define DYNAMAST_ACQUIRE(...) \
  DYNAMAST_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define DYNAMAST_ACQUIRE_SHARED(...) \
  DYNAMAST_THREAD_ANNOTATION_(acquire_shared_capability(__VA_ARGS__))

/// Function releases the listed capabilities.
#define DYNAMAST_RELEASE(...) \
  DYNAMAST_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
#define DYNAMAST_RELEASE_SHARED(...) \
  DYNAMAST_THREAD_ANNOTATION_(release_shared_capability(__VA_ARGS__))
#define DYNAMAST_RELEASE_GENERIC(...) \
  DYNAMAST_THREAD_ANNOTATION_(release_generic_capability(__VA_ARGS__))

/// try_lock-style function: acquires the capability iff it returns `b`.
#define DYNAMAST_TRY_ACQUIRE(...) \
  DYNAMAST_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))
#define DYNAMAST_TRY_ACQUIRE_SHARED(...) \
  DYNAMAST_THREAD_ANNOTATION_(try_acquire_shared_capability(__VA_ARGS__))

/// Function must NOT be called with the listed capabilities held (it
/// acquires them itself; prevents self-deadlock).
#define DYNAMAST_EXCLUDES(...) \
  DYNAMAST_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

/// Runtime assertion that the capability is held (recovery/diagnostic
/// paths where the acquisition is invisible to the analysis).
#define DYNAMAST_ASSERT_CAPABILITY(x) \
  DYNAMAST_THREAD_ANNOTATION_(assert_capability(x))

/// Function returns a reference to the capability guarding its result.
#define DYNAMAST_RETURN_CAPABILITY(x) \
  DYNAMAST_THREAD_ANNOTATION_(lock_returned(x))

/// Escape hatch. Policy (enforced by review + scripts/dynamast-lint.py):
/// only permitted at documented condvar/scheduler sites and
/// dynamic-lock-set sites the analysis cannot express, each with a
/// one-line justification comment on the preceding line.
#define DYNAMAST_NO_THREAD_SAFETY_ANALYSIS \
  DYNAMAST_THREAD_ANNOTATION_(no_thread_safety_analysis)

#endif  // DYNAMAST_COMMON_THREAD_ANNOTATIONS_H_
