#ifndef SURF_ACCEL_KERNELS_DETAIL_H_
#define SURF_ACCEL_KERNELS_DETAIL_H_

/// \file
/// \brief Shared scalar helpers behind the kernel backends.
///
/// Every function here has exactly ONE definition, in kernels_generic.cc,
/// which is compiled with baseline flags. The vector backends call these
/// for remainders and small inputs instead of re-instantiating inline
/// copies: an inline helper instantiated inside a `-mavx512f` TU could be
/// COMDAT-selected by the linker as THE definition, silently putting
/// wide-ISA code on the generic path — breaking portability. Keeping them
/// out-of-line makes the reference semantics single-sourced.

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
/// kAccelGenericOps). Exposed so a backend TU whose ISA the toolchain
/// cannot compile fills its (never-selected) table with real definitions
/// instead of copy-initializing from another global at dynamic-init time.
void MaskRangeRef(const double* col, size_t n, double lo, double hi,
                  uint8_t* mask);
uint64_t MaskCountRef(const uint8_t* mask, size_t n);

}  // namespace accel_detail
}  // namespace surf

#endif  // SURF_ACCEL_KERNELS_DETAIL_H_
