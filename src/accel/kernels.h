#ifndef SURF_ACCEL_KERNELS_H_
#define SURF_ACCEL_KERNELS_H_

/// \file
/// \brief The per-backend kernel table and the kernel contracts.
///
/// One `AccelOps` table exists per backend (generic / AVX2 / AVX-512);
/// `accel.h` owns selection. Every kernel is specified to produce
/// bitwise-identical output on every backend:
///
///  - `hist_u8_unit` accumulates in plain ascending row order. Every
///    backend shares the one scalar routine compiled in the generic TU:
///    measurement killed the vector variants (an AVX-512 lane-private
///    gather-add-scatter scheme ran 2–4× SLOWER than the scalar loop —
///    8-byte gathers/scatters cost ~1 element per cycle and the
///    scatter→gather dependence on repeated bins serializes through
///    memory; see docs/perf.md). Sharing one compiled routine makes
///    bit-identity trivial, NaN payloads included. Future vector
///    attempts must keep ascending-row accumulation order per bin — and
///    beware that a two-NaN add is not bitwise commutative (x86
///    propagates the FIRST source operand), so any reordering scheme
///    must also pin operand order.
///  - `mask_range_and` / `mask_count` are integer-valued and therefore
///    order-independent — these ARE profitably vectorized (dense
///    streaming compares: measured ~2.8× / ~6.8× on AVX-512).
///
/// Tree-ensemble prediction has no entry: gather-based vector walks
/// measured 2.6–5× slower than scalar code, so every backend would only
/// alias one routine. GBRT predicts through its complete-tree image
/// (ml/gbrt_image.cc), one scalar kernel compiled like the generic TU
/// (see docs/perf.md, "Ensemble evaluation").

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

  /// Unit-hessian uint8-binned histogram accumulation:
  ///   for each row i in [0, n): b = bins[row(i)]; g[b] += grad[i]; ++cnt[b]
  /// where row(i) = i when `row_ids == nullptr` (the sequential
  /// identity-root fast path) and row_ids[i] otherwise, in the canonical
  /// order described above. `bins` values must be < num_bins <= 256.
  /// `g` and `cnt` are accumulated into (not cleared).
  void (*hist_u8_unit)(const uint8_t* bins, const uint32_t* row_ids,
                       const double* grad, size_t n, uint32_t num_bins,
                       double* g, uint32_t* cnt);

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
