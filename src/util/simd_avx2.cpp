// AVX2 kernel implementations for util/simd.hpp.
//
// Compiled into every build (per-function `target("avx2")` attributes, no
// -mavx2 flag needed) but dispatched only when the CPU reports AVX2 at
// runtime -- detail::avx2_kernels() returns null otherwise, and on
// non-x86-64 targets this translation unit compiles to just that null.
//
// Every kernel here must match its scalar reference in simd.cpp bit for
// bit; see the dispatch contract in simd.hpp.  The integer kernels match
// structurally (exact mod-2^64 arithmetic, order-free).  hyper_block4
// matches because the cumulative products use the identical scalar
// operation tree and only the 4 divisions and the final scale are packed
// (IEEE divide and multiply are correctly rounded per lane).

#include "util/simd.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define PPK_HAVE_AVX2_TU 1
#include <immintrin.h>
#else
#define PPK_HAVE_AVX2_TU 0
#endif

namespace ppk::simd::detail {

#if PPK_HAVE_AVX2_TU

namespace {

#define PPK_AVX2 __attribute__((target("avx2")))

PPK_AVX2 inline std::uint64_t hsum_epi64(__m256i v) noexcept {
  const __m128i lo = _mm256_castsi256_si128(v);
  const __m128i hi = _mm256_extracti128_si256(v, 1);
  const __m128i s = _mm_add_epi64(lo, hi);
  return static_cast<std::uint64_t>(_mm_extract_epi64(s, 0)) +
         static_cast<std::uint64_t>(_mm_extract_epi64(s, 1));
}

PPK_AVX2 std::uint64_t collision_row_total_avx2(const std::uint32_t* counts,
                                                const std::uint32_t* fresh,
                                                std::size_t d_padded,
                                                std::uint32_t s1) noexcept {
  const std::uint64_t c1 = counts[s1];
  const std::uint64_t f1 = fresh[s1];
  const __m256i c1v = _mm256_set1_epi64x(static_cast<long long>(c1));
  const __m256i f1v = _mm256_set1_epi64x(static_cast<long long>(f1));
  __m256i acc_c = _mm256_setzero_si256();
  __m256i acc_f = _mm256_setzero_si256();
  for (std::size_t s2 = 0; s2 < d_padded; s2 += 8) {
    const __m256i c =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(counts + s2));
    const __m256i f =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(fresh + s2));
    const __m256i c_lo = _mm256_cvtepu32_epi64(_mm256_castsi256_si128(c));
    const __m256i c_hi =
        _mm256_cvtepu32_epi64(_mm256_extracti128_si256(c, 1));
    const __m256i f_lo = _mm256_cvtepu32_epi64(_mm256_castsi256_si128(f));
    const __m256i f_hi =
        _mm256_cvtepu32_epi64(_mm256_extracti128_si256(f, 1));
    acc_c = _mm256_add_epi64(acc_c, _mm256_mul_epu32(c1v, c_lo));
    acc_c = _mm256_add_epi64(acc_c, _mm256_mul_epu32(c1v, c_hi));
    acc_f = _mm256_add_epi64(acc_f, _mm256_mul_epu32(f1v, f_lo));
    acc_f = _mm256_add_epi64(acc_f, _mm256_mul_epu32(f1v, f_hi));
  }
  return hsum_epi64(acc_c) - hsum_epi64(acc_f) + f1 - c1;
}

PPK_AVX2 void add_i64_avx2(std::int64_t* dst, const std::int64_t* src,
                           std::size_t m) noexcept {
  for (std::size_t i = 0; i < m; i += 4) {
    const __m256i a =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i b =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_store_si256(reinterpret_cast<__m256i*>(dst + i),
                       _mm256_add_epi64(a, b));
  }
}

PPK_AVX2 void hyper_block4_avx2(const double* num, const double* den,
                                double pmf_in, double* pmf_out) noexcept {
  // Cumulative products use the scalar reference's exact operation tree;
  // only the divisions and the final scale are packed.
  const double na = num[0] * num[1];
  const double nb = num[2] * num[3];
  const double da = den[0] * den[1];
  const double db = den[2] * den[3];
  const __m256d cn = _mm256_set_pd(na * nb, na * num[2], na, num[0]);
  const __m256d cd = _mm256_set_pd(da * db, da * den[2], da, den[0]);
  const __m256d q = _mm256_div_pd(cn, cd);
  const __m256d out = _mm256_mul_pd(_mm256_set1_pd(pmf_in), q);
  _mm256_storeu_pd(pmf_out, out);
}

constexpr Kernels kAvx2 = {&collision_row_total_avx2, &add_i64_avx2,
                           &hyper_block4_avx2};

}  // namespace

const Kernels* avx2_kernels() noexcept {
  return __builtin_cpu_supports("avx2") ? &kAvx2 : nullptr;
}

#else  // !PPK_HAVE_AVX2_TU

const Kernels* avx2_kernels() noexcept { return nullptr; }

#endif

}  // namespace ppk::simd::detail
