#ifndef SURF_ACCEL_KERNELS_DETAIL_H_
#define SURF_ACCEL_KERNELS_DETAIL_H_

/// \file
/// \brief Shared scalar helpers behind the kernel backends.
///
/// Every function here has exactly ONE definition, in kernels_generic.cc,
/// which is compiled with baseline flags. The vector backends call these
/// for remainders, small inputs, and the sub-histogram merge instead of
/// re-instantiating inline copies: an inline helper instantiated inside
/// a `-mavx512f` TU could be COMDAT-selected by the linker as THE
/// definition, silently putting wide-ISA (and FMA-contracted) code on the
/// generic path — breaking both portability and bit-identity. Keeping
/// them out-of-line makes the reference semantics single-sourced.

#include <cstddef>
#include <cstdint>

#include "accel/kernels.h"

namespace surf {
namespace accel_detail {

/// Scalar membership-mask update over [r0, n).
void MaskRangeTail(const double* col, size_t r0, size_t n, double lo,
                   double hi, uint8_t* mask);

/// Scalar mask-byte sum over [r0, n).
uint64_t MaskCountTail(const uint8_t* mask, size_t r0, size_t n);

/// The complete generic reference kernels (the bodies behind
/// kAccelGenericOps). Exposed for two reasons: a backend TU whose ISA
/// the toolchain cannot compile fills its (never-selected) table with
/// real definitions instead of copy-initializing from another global at
/// dynamic-init time, and the vector backends reuse HistU8UnitRef
/// directly — measurement showed its gather/scatter vector form is a net
/// loss (see kernels.h).
void HistU8UnitRef(const uint8_t* bins, const uint32_t* row_ids,
                   const double* grad, size_t n, uint32_t num_bins,
                   double* g, uint32_t* cnt);
void MaskRangeRef(const double* col, size_t n, double lo, double hi,
                  uint8_t* mask);
uint64_t MaskCountRef(const uint8_t* mask, size_t n);

}  // namespace accel_detail
}  // namespace surf

#endif  // SURF_ACCEL_KERNELS_DETAIL_H_
