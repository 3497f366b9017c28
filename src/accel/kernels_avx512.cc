// AVX-512 kernel backend (F + BW + DQ + VL). Compiled with
// -mavx512f -mavx512bw -mavx512dq -mavx512vl -ffp-contract=off via
// per-file flags from CMakeLists.txt; degrades to a never-selected table
// of the generic reference kernels when the toolchain lacks AVX-512
// support.
//
// As in the AVX2 TU, only the mask kernels carry vector bodies — the
// histogram's gather-add-scatter vector form measured 2–4× slower than
// the shared scalar reference routine it now aliases (see kernels.h and
// docs/perf.md).

#include "accel/kernels_detail.h"

#if defined(SURF_ACCEL_HAVE_AVX512) && defined(__AVX512F__) && \
    defined(__AVX512BW__) && defined(__AVX512DQ__) && defined(__AVX512VL__)

#include <immintrin.h>

namespace surf {
namespace {

using accel_detail::MaskCountTail;
using accel_detail::MaskRangeTail;

// ------------------------------------------------------------ mask scan

void MaskRangeAvx512(const double* col, size_t n, double lo, double hi,
                     uint8_t* mask) {
  const __m512d vlo = _mm512_set1_pd(lo);
  const __m512d vhi = _mm512_set1_pd(hi);
  size_t r = 0;
  // 16 rows per iteration: two 8-wide NLT/NGT compares (unordered-true,
  // so NaN keeps the row) land directly in k-registers; movm expands the
  // 16 bits to 0x00/0xFF bytes which AND into the mask (mask bytes are
  // 0/1, so 0xFF preserves them).
  for (; r + 16 <= n; r += 16) {
    const __m512d c0 = _mm512_loadu_pd(col + r);
    const __m512d c1 = _mm512_loadu_pd(col + r + 8);
    const __mmask8 m0 =
        _mm512_cmp_pd_mask(c0, vlo, _CMP_NLT_UQ) &
        _mm512_cmp_pd_mask(c0, vhi, _CMP_NGT_UQ);
    const __mmask8 m1 =
        _mm512_cmp_pd_mask(c1, vlo, _CMP_NLT_UQ) &
        _mm512_cmp_pd_mask(c1, vhi, _CMP_NGT_UQ);
    const __mmask16 m =
        static_cast<__mmask16>(m0) |
        static_cast<__mmask16>(static_cast<__mmask16>(m1) << 8);
    const __m128i keep = _mm_movm_epi8(m);
    const __m128i cur =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(mask + r));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(mask + r),
                     _mm_and_si128(cur, keep));
  }
  MaskRangeTail(col, r, n, lo, hi, mask);
}

uint64_t MaskCountAvx512(const uint8_t* mask, size_t n) {
  __m512i acc = _mm512_setzero_si512();
  size_t r = 0;
  for (; r + 64 <= n; r += 64) {
    const __m512i v =
        _mm512_loadu_si512(reinterpret_cast<const void*>(mask + r));
    acc = _mm512_add_epi64(acc, _mm512_sad_epu8(v, _mm512_setzero_si512()));
  }
  return static_cast<uint64_t>(_mm512_reduce_add_epi64(acc)) +
         MaskCountTail(mask, r, n);
}

}  // namespace

const bool kAccelAvx512Compiled = true;
const AccelOps kAccelAvx512Ops = {
    /*backend=*/2,
    /*name=*/"avx512",
    MaskRangeAvx512,
    MaskCountAvx512,
};

}  // namespace surf

#else  // !SURF_ACCEL_HAVE_AVX512

namespace surf {

const bool kAccelAvx512Compiled = false;
// Never-selected placeholder (AccelSupported() gates on the flag above):
// the generic reference kernels under the avx512 label.
const AccelOps kAccelAvx512Ops = {
    /*backend=*/2,
    /*name=*/"avx512",
    accel_detail::MaskRangeRef,
    accel_detail::MaskCountRef,
};

}  // namespace surf

#endif
