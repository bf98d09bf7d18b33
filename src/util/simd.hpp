// Runtime-dispatched SIMD kernels for the structure-of-arrays batch engine.
//
// Three kernels, all on the batch path of BatchShardedSimulator: the
// collision pair's row totals (collision_row_total), the shard-delta
// reduction (add_i64) and the blocked hypergeometric pmf step
// (hyper_block4, via util/block_sampler.hpp).  The engine's thin regime
// is the scalar effective-pair sampler (pp/effective_pair_sampler.hpp),
// whose O(|Q|) transfer passes the compiler vectorizes on its own.
//
// Dispatch contract -- the part that makes SIMD admissible in engines whose
// trajectories are pinned bit-for-bit by the conformance nets:
//
//   Every kernel has a scalar implementation and an AVX2 implementation
//   that produce IDENTICAL results, bit for bit, for every input.
//
// For the integer kernels (collision row totals, tile reductions) this is
// free: unsigned arithmetic is exact and associative
// mod 2^64, so lane order cannot matter.  For the one floating-point kernel
// (the blocked hypergeometric pmf evaluation) identity is engineered: both
// implementations perform the same IEEE double operations in the same
// balanced-tree order -- the scalar fallback mirrors the vector lane
// structure rather than the other way around -- and every operation used
// (mul, div) is correctly rounded per lane by IEEE 754.  The build disables
// FP contraction globally (-ffp-contract=off, root CMakeLists) so an
// -mavx2 compile cannot fuse the scalar path's multiplies into FMAs and
// break the equivalence.  tests/util_simd_test.cpp fuzzes both paths
// against each other; the engine-level guarantee (same trajectory under
// PPK_NO_SIMD=1) rides on this.
//
// Dispatch policy: the AVX2 path is selected iff the CPU reports AVX2,
// the build compiled the AVX2 translation unit (x86-64 with GCC/Clang)
// and the PPK_NO_SIMD environment variable is unset/empty/"0" at first
// use.  set_enabled(false) forces the scalar path at runtime (the test
// hook); set_enabled(true) re-enables AVX2 only where supported.
//
// Kernel preconditions: `counts`/`fresh` point at 64-byte-aligned arrays
// padded to a multiple of 8 entries with zero counts in the padding, so
// padded lanes cannot perturb a total.  AlignedVector (util/aligned.hpp)
// is the intended storage.

#pragma once

#include <cstddef>
#include <cstdint>

namespace ppk::simd {

/// True iff this build carries the AVX2 kernels and the CPU supports them.
[[nodiscard]] bool avx2_supported() noexcept;

/// True iff the AVX2 kernels are currently dispatched.
[[nodiscard]] bool enabled() noexcept;

/// Test hook: force the scalar kernels (false) or restore AVX2 where
/// supported (true).  Enabling on a machine without AVX2 is a no-op.
/// Not thread-safe against in-flight kernel calls; flip it between runs.
void set_enabled(bool on) noexcept;

/// Human-readable name of the active dispatch ("avx2" or "scalar"), for
/// bench reports and logs.
[[nodiscard]] const char* active_name() noexcept;

// ---------------------------------------------------------------------------
// Integer kernels (exact; SIMD/scalar identity is structural)

/// Total collision weight of ordered state-pair row s1 against every s2 in
/// [0, d_padded): sum of c1*(c2 - [s1==s2]) - f1*(f2 - [s1==s2]) where
/// c = counts, f = fresh (the not-yet-touched sub-population; f <= c
/// pointwise).  d_padded must be a multiple of 8 with zeroed padding.
[[nodiscard]] std::uint64_t collision_row_total(const std::uint32_t* counts,
                                                const std::uint32_t* fresh,
                                                std::size_t d_padded,
                                                std::uint32_t s1) noexcept;

/// Adds src[i] to dst[i] for i < m (the shard-delta reduction).  m must be
/// a multiple of 8; both arrays 64-byte aligned.
void add_i64(std::int64_t* dst, const std::int64_t* src,
             std::size_t m) noexcept;

// ---------------------------------------------------------------------------
// Floating-point kernel (SIMD/scalar identity is engineered; see header)

/// Blocked pmf-recurrence step for the mode-centered hypergeometric walk.
/// Given per-step ratio numerators num[0..3] and denominators den[0..3]
/// (each finite and nonzero; pad unused steps with 1.0), computes
///
///   pmf_out[j] = pmf_in * (num[0]*...*num[j]) / (den[0]*...*den[j])
///
/// with the fixed product tree  a = n0*n1, b = n2*n3,
/// cum = {n0, a, a*n2, a*b}  (same for den), one IEEE division per lane,
/// one scale by pmf_in.  Both dispatches produce identical bits.
void hyper_block4(const double* num, const double* den, double pmf_in,
                  double* pmf_out) noexcept;

// ---------------------------------------------------------------------------
// Implementation plumbing (internal; exposed for the dispatch tests)

namespace detail {

struct Kernels {
  std::uint64_t (*collision_row_total)(const std::uint32_t*,
                                       const std::uint32_t*, std::size_t,
                                       std::uint32_t) noexcept;
  void (*add_i64)(std::int64_t*, const std::int64_t*, std::size_t) noexcept;
  void (*hyper_block4)(const double*, const double*, double,
                       double*) noexcept;
};

[[nodiscard]] const Kernels& scalar_kernels() noexcept;
/// Null when the build carries no AVX2 translation unit.
[[nodiscard]] const Kernels* avx2_kernels() noexcept;

}  // namespace detail

}  // namespace ppk::simd
