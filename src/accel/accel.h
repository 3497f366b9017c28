#ifndef SURF_ACCEL_ACCEL_H_
#define SURF_ACCEL_ACCEL_H_

/// \file
/// \brief Runtime-dispatched SIMD backend selection for the hot kernels.
///
/// The hot loop of exact evaluation — the branchless uint8 membership
/// mask scan and its count — runs through one function-pointer table
/// (`AccelOps`, see kernels.h) with a generic reference implementation
/// plus AVX2 / AVX-512 variants.
///
/// The active table is selected once at first use: the best backend the
/// host CPU supports, overridable with the `SURF_ACCEL` environment
/// variable (`generic`, `avx2`, or `avx512`) for testing and for pinning
/// reproducible runs. An override naming an unknown or unsupported
/// backend is NOT honored silently: selection falls back to the best
/// supported backend and records `override_honored = false`, which the
/// benches turn into a nonzero exit (a silent generic fallback would
/// hide perf regressions).
///
/// Bit-identity contract: for identical inputs, every backend produces
/// bitwise-identical outputs for every kernel in the table. Both kernels
/// are integer-valued and so order-independent. `tests/accel_test.cc`
/// enforces the contract differentially on every backend the host
/// supports.

#include <string>

#include "accel/kernels.h"

namespace surf {

/// Identifies one kernel backend. Order is meaningful: higher enum
/// values are wider ISAs, and selection picks the highest supported.
enum class AccelBackend : int {
  kGeneric = 0,
  kAvx2 = 1,
  kAvx512 = 2,
};

/// Number of backends (for enumeration loops in tests and benches).
inline constexpr int kNumAccelBackends = 3;

/// Canonical lower-case name ("generic", "avx2", "avx512").
const char* AccelBackendName(AccelBackend backend);

/// Parses a backend name (as accepted in SURF_ACCEL). Returns false and
/// leaves `*out` untouched on unknown names.
bool ParseAccelBackend(const std::string& name, AccelBackend* out);

/// True when this binary contains real vector code for `backend`
/// (compile-time support; generic is always compiled).
bool AccelCompiled(AccelBackend backend);

/// True when `backend` is compiled in AND the host CPU can execute it.
bool AccelSupported(AccelBackend backend);

/// The widest backend this host supports (kGeneric at minimum).
AccelBackend BestSupportedAccelBackend();

/// Direct access to one backend's kernel table, bypassing selection.
/// Returns the generic table when `backend` is not compiled in; callers
/// enumerating backends should gate on AccelSupported() first.
const AccelOps& AccelOpsFor(AccelBackend backend);

/// Result of one backend selection (env read + CPUID).
struct AccelSelection {
  AccelBackend active = AccelBackend::kGeneric;
  /// True when SURF_ACCEL was set (and non-empty).
  bool override_requested = false;
  /// False when SURF_ACCEL named an unknown or unsupported backend (the
  /// selection then falls back to the best supported backend).
  bool override_honored = true;
  /// Raw SURF_ACCEL value, for diagnostics.
  std::string requested;
};

/// The active kernel table. First call performs selection (env +
/// CPUID); subsequent calls are one atomic load.
const AccelOps& Accel();

/// Backend of the active table.
AccelBackend ActiveAccelBackend();

/// The selection that produced the active table (forces selection on
/// first use).
AccelSelection CurrentAccelSelection();

/// Re-reads SURF_ACCEL and re-selects the active table. Test/bench
/// hook: the env var is naturally read once per process, so tests that
/// sweep backends re-trigger selection explicitly after setenv().
AccelSelection ReselectAccelFromEnv();

/// Pins the active table to `backend` (bypassing the env var). Returns
/// false — leaving the active table unchanged — when `backend` is not
/// supported on this host.
bool SetActiveAccelBackend(AccelBackend backend);

}  // namespace surf

#endif  // SURF_ACCEL_ACCEL_H_
