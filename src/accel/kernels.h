#ifndef SURF_ACCEL_KERNELS_H_
#define SURF_ACCEL_KERNELS_H_

/// \file
/// \brief The per-backend kernel table and the kernel contracts.
///
/// One `AccelOps` table exists per backend (generic / AVX2 / AVX-512);
/// `accel.h` owns selection. The table holds only the kernels that
/// vectorize: `mask_range_and` / `mask_count` are dense streaming
/// compares (measured ~2.8× / ~6.8× on AVX-512), integer-valued and
/// therefore bitwise-identical on every backend.
///
/// The GBRT kernels have no entry, because every backend would only
/// alias one scalar routine:
///  - histogram accumulation is a scattered read-modify-write keyed by
///    data-dependent bins; an AVX-512 gather-add-scatter form ran 2–4×
///    SLOWER than the scalar loop (see docs/perf.md). It stays one loop
///    in ml/tree.cc, in ascending row order. A future vector attempt
///    must keep that per-bin order and pin operand order too: a two-NaN
///    add is not bitwise commutative (x86 propagates the FIRST operand).
///  - tree-ensemble prediction: gather-based vector walks measured
///    2.6–5× slower than scalar code. GBRT predicts through its
///    complete-tree image (ml/gbrt_image.cc), one scalar kernel compiled
///    like the generic TU (see docs/perf.md, "Ensemble evaluation").

#include <cstddef>
#include <cstdint>

namespace surf {

/// \brief Function-pointer table of the vectorized hot-loop kernels.
///
/// Modeled on the classic per-backend dispatch pattern: each backend
/// fills one table; a runtime selector publishes the active one.
struct AccelOps {
  /// Backend this table implements (value of `AccelBackend`; an int to
  /// keep this header free of accel.h).
  int backend;
  /// Canonical backend name ("generic", "avx2", "avx512").
  const char* name;

  /// Branchless membership mask:
  ///   mask[r] &= !(col[r] < lo) & !(col[r] > hi)   for r in [0, n)
  /// — the legacy inclusion test, NaN-keeps-the-row included.
  void (*mask_range_and)(const double* col, size_t n, double lo, double hi,
                         uint8_t* mask);

  /// Sum of the (0/1) mask bytes.
  uint64_t (*mask_count)(const uint8_t* mask, size_t n);
};

/// Backend tables. The generic table is always real scalar code
/// (compiled with baseline flags — no wide ISA, no FP contraction). The
/// AVX2/AVX-512 tables contain vector code only when the corresponding
/// `kAccel*Compiled` flag is true; otherwise they alias the generic
/// kernels and must never be selected.
extern const AccelOps kAccelGenericOps;
extern const AccelOps kAccelAvx2Ops;
extern const bool kAccelAvx2Compiled;
extern const AccelOps kAccelAvx512Ops;
extern const bool kAccelAvx512Compiled;

}  // namespace surf

#endif  // SURF_ACCEL_KERNELS_H_
