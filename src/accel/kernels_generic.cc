// Generic (portable scalar) kernel backend, and the single definitions
// of the shared scalar helpers every vector backend defers to. This TU
// is compiled with baseline flags only: no wide ISA, no FP contraction —
// it IS the bit-identity reference the differential harness compares
// the vector backends against.

#include "accel/kernels_detail.h"

namespace surf {
namespace accel_detail {

void MaskRangeTail(const double* col, size_t r0, size_t n, double lo,
                   double hi, uint8_t* mask) {
  for (size_t r = r0; r < n; ++r) {
    mask[r] &= static_cast<uint8_t>(!(col[r] < lo)) &
               static_cast<uint8_t>(!(col[r] > hi));
  }
}

uint64_t MaskCountTail(const uint8_t* mask, size_t r0, size_t n) {
  uint64_t sum = 0;
  for (size_t r = r0; r < n; ++r) sum += mask[r];
  return sum;
}

void MaskRangeRef(const double* col, size_t n, double lo, double hi,
                  uint8_t* mask) {
  MaskRangeTail(col, 0, n, lo, hi, mask);
}

uint64_t MaskCountRef(const uint8_t* mask, size_t n) {
  return MaskCountTail(mask, 0, n);
}

}  // namespace accel_detail

const AccelOps kAccelGenericOps = {
    /*backend=*/0,
    /*name=*/"generic",
    accel_detail::MaskRangeRef,
    accel_detail::MaskCountRef,
};

}  // namespace surf
