// AVX2 kernel backend. Compiled with -mavx2 -ffp-contract=off (per-file
// flags from CMakeLists.txt); when the toolchain cannot build AVX2 this
// TU degrades to a never-selected table of the generic reference
// kernels. FP contraction is disabled so stray scalar code in this TU
// cannot be FMA-fused into results that differ from the generic
// reference.
//
// Only the mask kernels carry vector bodies: the histogram resolves to
// the shared scalar reference routine — its gather-based vector form
// measured slower than the scalar loop (see kernels.h and
// docs/perf.md).

#include "accel/kernels_detail.h"

#if defined(SURF_ACCEL_HAVE_AVX2) && defined(__AVX2__)

#include <immintrin.h>

#include <array>
#include <cstring>

namespace surf {
namespace {

using accel_detail::MaskCountTail;
using accel_detail::MaskRangeTail;

// ------------------------------------------------------------ mask scan

/// kExpandBits[m] has byte j = (m >> j) & 1: turns an 8-bit compare
/// movemask into eight 0/1 mask bytes with one table load.
constexpr std::array<uint64_t, 256> kExpandBits = [] {
  std::array<uint64_t, 256> table{};
  for (int m = 0; m < 256; ++m) {
    uint64_t v = 0;
    for (int j = 0; j < 8; ++j) {
      if (m & (1 << j)) v |= uint64_t{1} << (8 * j);
    }
    table[static_cast<size_t>(m)] = v;
  }
  return table;
}();

void MaskRangeAvx2(const double* col, size_t n, double lo, double hi,
                   uint8_t* mask) {
  const __m256d vlo = _mm256_set1_pd(lo);
  const __m256d vhi = _mm256_set1_pd(hi);
  size_t r = 0;
  // 8 rows per iteration: two 4-wide NLT/NGT compares (unordered-true,
  // so NaN keeps the row — the legacy semantics), movemask to 8 bits,
  // table-expand to bytes, AND into the mask.
  for (; r + 8 <= n; r += 8) {
    const __m256d c0 = _mm256_loadu_pd(col + r);
    const __m256d c1 = _mm256_loadu_pd(col + r + 4);
    const __m256d in0 =
        _mm256_and_pd(_mm256_cmp_pd(c0, vlo, _CMP_NLT_UQ),
                      _mm256_cmp_pd(c0, vhi, _CMP_NGT_UQ));
    const __m256d in1 =
        _mm256_and_pd(_mm256_cmp_pd(c1, vlo, _CMP_NLT_UQ),
                      _mm256_cmp_pd(c1, vhi, _CMP_NGT_UQ));
    const int bits =
        _mm256_movemask_pd(in0) | (_mm256_movemask_pd(in1) << 4);
    uint64_t cur;
    std::memcpy(&cur, mask + r, sizeof(cur));
    cur &= kExpandBits[static_cast<size_t>(bits)];
    std::memcpy(mask + r, &cur, sizeof(cur));
  }
  MaskRangeTail(col, r, n, lo, hi, mask);
}

uint64_t MaskCountAvx2(const uint8_t* mask, size_t n) {
  __m256i acc = _mm256_setzero_si256();
  size_t r = 0;
  for (; r + 32 <= n; r += 32) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(mask + r));
    acc = _mm256_add_epi64(acc, _mm256_sad_epu8(v, _mm256_setzero_si256()));
  }
  alignas(32) uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  return lanes[0] + lanes[1] + lanes[2] + lanes[3] +
         MaskCountTail(mask, r, n);
}

}  // namespace

const bool kAccelAvx2Compiled = true;
const AccelOps kAccelAvx2Ops = {
    /*backend=*/1,
    /*name=*/"avx2",
    MaskRangeAvx2,
    MaskCountAvx2,
};

}  // namespace surf

#else  // !SURF_ACCEL_HAVE_AVX2

namespace surf {

const bool kAccelAvx2Compiled = false;
// Never-selected placeholder (AccelSupported() gates on the flag above):
// the generic reference kernels under the avx2 label.
const AccelOps kAccelAvx2Ops = {
    /*backend=*/1,
    /*name=*/"avx2",
    accel_detail::MaskRangeRef,
    accel_detail::MaskCountRef,
};

}  // namespace surf

#endif
