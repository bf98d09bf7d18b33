// The SIMD dispatch contract (util/simd.hpp): every kernel's scalar and
// AVX2 implementations must produce identical results, bit for bit, for
// every input -- that identity is what lets engines pinned by bit-exact
// conformance nets dispatch vector kernels at runtime.  These tests fuzz
// both implementations against each other directly (through the detail
// kernel tables, so they run meaningfully even when only one dispatch is
// available), pin the dispatch hooks, and check the blocked hypergeometric
// sampler (util/block_sampler.hpp) against the reference inversion sampler
// it reimplements, plus the shared log-factorial table it feeds on.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "util/aligned.hpp"
#include "util/block_sampler.hpp"
#include "util/log_fact.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace ppk {
namespace {

// ---------------------------------------------------------------------------
// Dispatch hooks

TEST(SimdDispatch, ActiveNameMatchesEnabledFlag) {
  EXPECT_STREQ(simd::active_name(),
               simd::enabled() ? "avx2" : "scalar");
}

TEST(SimdDispatch, SetEnabledForcesScalarAndRestores) {
  const bool was = simd::enabled();
  simd::set_enabled(false);
  EXPECT_FALSE(simd::enabled());
  EXPECT_STREQ(simd::active_name(), "scalar");
  simd::set_enabled(true);
  // Re-enabling selects AVX2 iff the build and CPU carry it.
  EXPECT_EQ(simd::enabled(), simd::avx2_supported());
  simd::set_enabled(was);
}

TEST(SimdDispatch, EnableWithoutSupportIsANoOp) {
  if (simd::avx2_supported()) GTEST_SKIP() << "machine has AVX2";
  simd::set_enabled(true);
  EXPECT_FALSE(simd::enabled());
}

// ---------------------------------------------------------------------------
// Integer kernels: scalar vs AVX2 on random padded count tiles

struct CountFixture {
  AlignedVector<std::uint32_t> counts;
  AlignedVector<std::uint32_t> fresh;
  std::size_t d_padded = 0;  // padded state count (multiple of 8)
};

/// Random counts with the engine's invariants: zero padding, fresh <=
/// counts pointwise.
CountFixture random_fixture(Xoshiro256& rng, std::size_t num_states) {
  CountFixture f;
  f.d_padded = (num_states + 7) / 8 * 8;
  f.counts.assign(f.d_padded, 0);
  f.fresh.assign(f.d_padded, 0);
  for (std::size_t s = 0; s < num_states; ++s) {
    f.counts[s] = static_cast<std::uint32_t>(rng.below(50'000));
    f.fresh[s] = static_cast<std::uint32_t>(rng.below(f.counts[s] + 1));
  }
  return f;
}

TEST(SimdKernels, CollisionRowTotalMatchesScalarOnRandomInputs) {
  const simd::detail::Kernels* avx2 = simd::detail::avx2_kernels();
  if (avx2 == nullptr) GTEST_SKIP() << "no AVX2 kernels in this build";
  const simd::detail::Kernels& scalar = simd::detail::scalar_kernels();
  Xoshiro256 rng(555);
  for (int round = 0; round < 200; ++round) {
    const std::size_t states = 2 + rng.below(100);
    const CountFixture f = random_fixture(rng, states);
    for (std::uint32_t s1 = 0; s1 < states; ++s1) {
      EXPECT_EQ(scalar.collision_row_total(f.counts.data(), f.fresh.data(),
                                           f.d_padded, s1),
                avx2->collision_row_total(f.counts.data(), f.fresh.data(),
                                          f.d_padded, s1))
          << "s1=" << s1;
    }
  }
}

TEST(SimdKernels, AddI64MatchesScalar) {
  const simd::detail::Kernels* avx2 = simd::detail::avx2_kernels();
  if (avx2 == nullptr) GTEST_SKIP() << "no AVX2 kernels in this build";
  const simd::detail::Kernels& scalar = simd::detail::scalar_kernels();
  Xoshiro256 rng(9);
  for (int round = 0; round < 50; ++round) {
    const std::size_t m = (1 + rng.below(64)) * 8;
    AlignedVector<std::int64_t> src(m), a(m), b(m);
    for (std::size_t i = 0; i < m; ++i) {
      src[i] = static_cast<std::int64_t>(rng()) >> 16;
      a[i] = static_cast<std::int64_t>(rng()) >> 16;
      b[i] = a[i];
    }
    scalar.add_i64(a.data(), src.data(), m);
    avx2->add_i64(b.data(), src.data(), m);
    EXPECT_EQ(std::vector<std::int64_t>(a.begin(), a.end()),
              std::vector<std::int64_t>(b.begin(), b.end()));
  }
}

// ---------------------------------------------------------------------------
// The floating-point kernel: identity must hold to the last bit

TEST(SimdKernels, HyperBlock4IsBitIdenticalAcrossDispatch) {
  const simd::detail::Kernels* avx2 = simd::detail::avx2_kernels();
  if (avx2 == nullptr) GTEST_SKIP() << "no AVX2 kernels in this build";
  const simd::detail::Kernels& scalar = simd::detail::scalar_kernels();
  Xoshiro256 rng(31337);
  for (int round = 0; round < 5000; ++round) {
    // Ratios in the ranges the blocked walk actually produces: products of
    // two counts in [1, n], so magnitudes up to ~1e18, plus 1.0 padding.
    double num[4];
    double den[4];
    for (int j = 0; j < 4; ++j) {
      num[j] = rng.below(4) == 0
                   ? 1.0
                   : static_cast<double>(1 + rng.below(1'000'000'000)) *
                         static_cast<double>(1 + rng.below(1'000'000'000));
      den[j] = static_cast<double>(1 + rng.below(1'000'000'000)) *
               static_cast<double>(1 + rng.below(1'000'000'000));
    }
    const double pmf_in = std::exp(-static_cast<double>(rng.below(700)));
    double out_scalar[4];
    double out_avx2[4];
    scalar.hyper_block4(num, den, pmf_in, out_scalar);
    avx2->hyper_block4(num, den, pmf_in, out_avx2);
    for (int j = 0; j < 4; ++j) {
      // Bit equality, not approximate equality: the dispatch contract.
      EXPECT_EQ(out_scalar[j], out_avx2[j]) << "lane " << j;
    }
  }
}

// ---------------------------------------------------------------------------
// Blocked hypergeometric sampler vs the reference inversion sampler

TEST(BlockSampler, AgreesWithReferenceSamplerInLaw) {
  // Both samplers walk the same pmf from the same mode, but consume their
  // uniform differently, so they only agree in law.  Chi-squared-free
  // check: compare empirical means and supports over many draws.
  Xoshiro256 rng_a(4242);
  Xoshiro256 rng_b(171717);
  const LogFact lf(1'000'000);
  const std::uint64_t total = 1'000'000;
  const std::uint64_t marked = 300'000;
  const std::uint64_t m = 50'000;
  const double expected_mean = static_cast<double>(marked) *
                               static_cast<double>(m) /
                               static_cast<double>(total);
  double sum_blocked = 0.0;
  double sum_ref = 0.0;
  const int draws = 4000;
  for (int i = 0; i < draws; ++i) {
    const std::uint64_t x = hypergeometric_blocked(rng_a, total, marked, m, lf);
    EXPECT_LE(x, m);
    sum_blocked += static_cast<double>(x);
    sum_ref += static_cast<double>(rng_b.hypergeometric(
        total, marked, m, [&lf](double v) { return lf(v); }));
  }
  // stddev of one draw ~= 112; the mean of 4000 draws has SE ~= 1.8, so a
  // +-9 window is a 5-sigma net against distribution-level breakage.
  EXPECT_NEAR(sum_blocked / draws, expected_mean, 9.0);
  EXPECT_NEAR(sum_ref / draws, expected_mean, 9.0);
}

TEST(BlockSampler, EarlyOutsConsumeNoRandomness) {
  // The sharded engine's empty-shard determinism rides on trivial draws
  // consuming NO uniforms: a shard with nothing to match must leave its
  // stream untouched regardless of dispatch or thread count.
  const LogFact lf(1024);
  for (const auto [total, marked, m, expect] :
       {std::array<std::uint64_t, 4>{100, 0, 10, 0},
        std::array<std::uint64_t, 4>{100, 40, 0, 0},
        std::array<std::uint64_t, 4>{100, 100, 17, 17},
        std::array<std::uint64_t, 4>{100, 23, 100, 23}}) {
    Xoshiro256 rng(7);
    Xoshiro256 untouched(7);
    EXPECT_EQ(hypergeometric_blocked(rng, total, marked, m, lf), expect);
    EXPECT_EQ(rng(), untouched());
  }
}

TEST(BlockSampler, DeterministicAcrossDispatch) {
  if (!simd::avx2_supported()) GTEST_SKIP() << "machine lacks AVX2";
  const LogFact lf(1'000'000);
  std::vector<std::uint64_t> with_avx2;
  std::vector<std::uint64_t> with_scalar;
  for (const bool use_avx2 : {true, false}) {
    simd::set_enabled(use_avx2);
    Xoshiro256 rng(99);
    auto& out = use_avx2 ? with_avx2 : with_scalar;
    for (int i = 0; i < 500; ++i) {
      out.push_back(
          hypergeometric_blocked(rng, 1'000'000, 250'000, 60'000, lf));
    }
  }
  simd::set_enabled(true);
  EXPECT_EQ(with_avx2, with_scalar);
}

// ---------------------------------------------------------------------------
// The shared log-factorial table

TEST(LogFactTable, SharedSingletonReusesOneAllocation) {
  const auto a = LogFactTable::shared(1000);
  const auto b = LogFactTable::shared(500);
  // A second request within an already-built prefix returns the same block.
  EXPECT_EQ(a.get(), b.get());
  const auto c = LogFactTable::shared(2000);
  EXPECT_GE(c->size(), 2001u);
}

TEST(LogFactTable, ValuesMatchLgamma) {
  const LogFact lf(100'000);
  for (const std::uint64_t x : {0ULL, 1ULL, 2ULL, 17ULL, 999ULL, 100'000ULL}) {
    EXPECT_EQ(lf(static_cast<double>(x)),
              std::lgamma(static_cast<double>(x) + 1.0));
  }
}

TEST(LogFactTable, StirlingTailIsAccurateBeyondTheTable) {
  // Past the table bound the tail must agree with lgamma to ~1e-12
  // relative -- the pmf walk only needs the *mode's* log-pmf once per draw,
  // and mode-relative ratios are exact, so this tolerance is conservative.
  for (const double x : {1.5e6, 1e7, 5e8, 1e9}) {
    const double exact = std::lgamma(x + 1.0);
    EXPECT_NEAR(log_fact_tail(x) / exact, 1.0, 1e-12) << "x=" << x;
  }
}

}  // namespace
}  // namespace ppk
