// Scalar kernel implementations + runtime dispatch for util/simd.hpp.
//
// The scalar kernels are the semantic reference: the AVX2 translation unit
// (simd_avx2.cpp) must match them bit for bit, which the dispatch tests
// fuzz.  Note the deliberately lane-structured hyper_block4 -- the scalar
// code performs the vector path's exact operation tree so the FP results
// agree to the last bit (see the header's dispatch contract).

#include "util/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace ppk::simd {

namespace {

std::uint64_t collision_row_total_scalar(const std::uint32_t* counts,
                                         const std::uint32_t* fresh,
                                         std::size_t d_padded,
                                         std::uint32_t s1) noexcept {
  const std::uint64_t c1 = counts[s1];
  const std::uint64_t f1 = fresh[s1];
  std::uint64_t sum = 0;
  for (std::size_t s2 = 0; s2 < d_padded; ++s2) {
    sum += c1 * counts[s2] - f1 * fresh[s2];
  }
  // The diagonal lane computed c1*c1 - f1*f1; the ordered-distinct-pair
  // weight is c1*(c1-1) - f1*(f1-1).  fresh <= counts makes the correction
  // safe (row weight stays >= 0; intermediate wrap is mod-2^64 exact).
  return sum + f1 - c1;
}

void add_i64_scalar(std::int64_t* dst, const std::int64_t* src,
                    std::size_t m) noexcept {
  for (std::size_t i = 0; i < m; ++i) dst[i] += src[i];
}

void hyper_block4_scalar(const double* num, const double* den, double pmf_in,
                         double* pmf_out) noexcept {
  // The fixed product tree of the vector path, lane by lane.
  const double na = num[0] * num[1];
  const double nb = num[2] * num[3];
  const double cum_n0 = num[0];
  const double cum_n1 = na;
  const double cum_n2 = na * num[2];
  const double cum_n3 = na * nb;
  const double da = den[0] * den[1];
  const double db = den[2] * den[3];
  const double cum_d0 = den[0];
  const double cum_d1 = da;
  const double cum_d2 = da * den[2];
  const double cum_d3 = da * db;
  pmf_out[0] = pmf_in * (cum_n0 / cum_d0);
  pmf_out[1] = pmf_in * (cum_n1 / cum_d1);
  pmf_out[2] = pmf_in * (cum_n2 / cum_d2);
  pmf_out[3] = pmf_in * (cum_n3 / cum_d3);
}

constexpr detail::Kernels kScalar = {&collision_row_total_scalar,
                                     &add_i64_scalar, &hyper_block4_scalar};

/// PPK_NO_SIMD unset, empty or "0" keeps SIMD eligible; anything else
/// forces scalar from startup (the CI forced-scalar leg).
bool simd_disabled_by_env() noexcept {
  const char* v = std::getenv("PPK_NO_SIMD");
  return v != nullptr && v[0] != '\0' && std::strcmp(v, "0") != 0;
}

std::atomic<const detail::Kernels*>& active_slot() noexcept {
  static std::atomic<const detail::Kernels*> slot{[]() noexcept {
    const detail::Kernels* avx2 = detail::avx2_kernels();
    return (avx2 != nullptr && !simd_disabled_by_env()) ? avx2 : &kScalar;
  }()};
  return slot;
}

const detail::Kernels& active() noexcept {
  return *active_slot().load(std::memory_order_relaxed);
}

}  // namespace

namespace detail {
const Kernels& scalar_kernels() noexcept { return kScalar; }
}  // namespace detail

bool avx2_supported() noexcept { return detail::avx2_kernels() != nullptr; }

bool enabled() noexcept { return &active() != &kScalar; }

void set_enabled(bool on) noexcept {
  const detail::Kernels* next = &kScalar;
  if (on) {
    const detail::Kernels* avx2 = detail::avx2_kernels();
    if (avx2 != nullptr) next = avx2;
  }
  active_slot().store(next, std::memory_order_relaxed);
}

const char* active_name() noexcept { return enabled() ? "avx2" : "scalar"; }

std::uint64_t collision_row_total(const std::uint32_t* counts,
                                  const std::uint32_t* fresh,
                                  std::size_t d_padded,
                                  std::uint32_t s1) noexcept {
  return active().collision_row_total(counts, fresh, d_padded, s1);
}

void add_i64(std::int64_t* dst, const std::int64_t* src,
             std::size_t m) noexcept {
  active().add_i64(dst, src, m);
}

void hyper_block4(const double* num, const double* den, double pmf_in,
                  double* pmf_out) noexcept {
  active().hyper_block4(num, den, pmf_in, pmf_out);
}

}  // namespace ppk::simd
