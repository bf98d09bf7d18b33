// Deterministic, splittable pseudo-random number generation.
//
// Simulation results must be reproducible from a single master seed even when
// trials run on different threads, so we use SplitMix64 to derive independent
// stream seeds and xoshiro256** as the per-stream generator (Blackman &
// Vigna).  Both are tiny, allocation-free and an order of magnitude faster
// than std::mt19937_64, which matters when a single trial draws 10^8 pairs.
//
// The generator also carries the exact discrete samplers the aggregated
// engines are built on -- geometric (null-run skipping), binomial
// (multinomial batch decomposition) and hypergeometric (the
// without-replacement form used by the collision-free batch engine).  All
// three are inversion-based and exact; see each method's comment.

#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>

#include "util/assert.hpp"

namespace ppk {

/// SplitMix64: used to expand a 64-bit seed into independent sub-seeds.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256**: the workhorse generator.  Satisfies
/// std::uniform_random_bit_generator so it can drive <random> distributions.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from a 64-bit seed via SplitMix64, as the
  /// reference implementation recommends.
  explicit Xoshiro256(std::uint64_t seed = 0x853c49e6748fea9bULL) noexcept {
    SplitMix64 mix(seed);
    for (auto& word : state_) word = mix.next();
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform draw from [0, bound) using Lemire's multiply-shift rejection
  /// method (unbiased, usually a single multiplication).
  std::uint64_t below(std::uint64_t bound) noexcept {
    PPK_EXPECTS(bound > 0);
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto low = static_cast<std::uint64_t>(m);
    if (low < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (low < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * bound;
        low = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform draw from [0, 1).
  double uniform01() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Geometric draw: the number of failures before the first success in
  /// Bernoulli(p) trials (support {0, 1, 2, ...}).  Inverse transform on a
  /// single uniform; the only inexactness is ~1 ulp of floating-point
  /// rounding in log space, negligible against Monte-Carlo noise (this is
  /// the same tolerance the jump engine's null-run skipping has always
  /// accepted).  Requires p in (0, 1]; values >= 1 return 0 without a
  /// draw.
  std::uint64_t geometric(double p) noexcept {
    return geometric(p, p < 1.0 ? std::log1p(-p) : 0.0);
  }

  /// geometric(p) with log1m_p = std::log1p(-p) computed by the caller,
  /// which may keep it across draws at one p (ignored at p >= 1).
  std::uint64_t geometric(double p, double log1m_p) noexcept {
    PPK_EXPECTS(p > 0.0);
    if (p >= 1.0) return 0;
    const double u = 1.0 - uniform01();  // in (0, 1]
    const double g = std::floor(std::log(u) / log1m_p);
    if (g <= 0.0) return 0;
    if (g >= 0x1.0p63) return UINT64_MAX;  // astronomically rare; saturate
    return static_cast<std::uint64_t>(g);
  }

  /// Binomial draw: successes in n Bernoulli(p) trials.
  ///
  /// Exact for every parameter range (no normal approximation):
  ///  - small mean: bottom-up inversion through the CDF, O(mean);
  ///  - large mean: inversion through the outcomes ordered by distance from
  ///    the mode, walking the pmf recurrence outward, O(stddev) expected.
  /// The mode-centered walk is the exactness-preserving alternative to
  /// BTRD-style rejection: same O(sqrt(n p (1-p))) expected cost for large
  /// mean, a fraction of the code, and no acceptance-region subtleties.
  /// Rounding error is ~1e-13 relative (lgamma + a product of pmf ratios),
  /// far below Monte-Carlo resolution.
  std::uint64_t binomial(std::uint64_t n, double p) noexcept {
    PPK_EXPECTS(p >= 0.0 && p <= 1.0);
    if (n == 0 || p <= 0.0) return 0;
    if (p >= 1.0) return n;
    if (p > 0.5) return n - binomial(n, 1.0 - p);  // keep the mean small
    const double nd = static_cast<double>(n);
    const double mean = nd * p;
    const double odds = p / (1.0 - p);
    if (mean <= 32.0) {
      // Bottom-up inversion: pmf(0) = (1-p)^n, then the ratio recurrence
      // pmf(k+1)/pmf(k) = (n-k)/(k+1) * odds.
      const double u = uniform01();
      double pmf = std::exp(nd * std::log1p(-p));
      double cdf = pmf;
      std::uint64_t k = 0;
      while (cdf <= u && k < n) {
        pmf *= (static_cast<double>(n - k) / static_cast<double>(k + 1)) *
               odds;
        cdf += pmf;
        ++k;
      }
      return k;
    }
    // Mode-centered inversion: fix the outcome ordering mode, mode-1,
    // mode+1, mode-2, ... and walk it accumulating pmf mass until the
    // uniform is covered.  Any fixed ordering yields an exact sampler; this
    // one terminates in O(stddev) steps because the mass concentrates
    // around the mode.
    const auto mode =
        static_cast<std::uint64_t>((nd + 1.0) * p);  // floor((n+1)p) <= n
    const double log_pmf_mode =
        std::lgamma(nd + 1.0) - std::lgamma(static_cast<double>(mode) + 1.0) -
        std::lgamma(static_cast<double>(n - mode) + 1.0) +
        static_cast<double>(mode) * std::log(p) +
        static_cast<double>(n - mode) * std::log1p(-p);
    const double u = uniform01();
    double lo_pmf = std::exp(log_pmf_mode);  // pmf at next lower candidate
    double hi_pmf = lo_pmf;                  // pmf at next higher candidate
    double cdf = lo_pmf;
    if (u < cdf) return mode;
    std::uint64_t lo = mode;  // next lower candidate is lo - 1
    std::uint64_t hi = mode;  // next higher candidate is hi + 1
    while (lo > 0 || hi < n) {
      if (lo > 0) {
        lo_pmf *= (static_cast<double>(lo) /
                   static_cast<double>(n - lo + 1)) /
                  odds;
        cdf += lo_pmf;
        --lo;
        if (u < cdf) return lo;
      }
      if (hi < n) {
        hi_pmf *= (static_cast<double>(n - hi) /
                   static_cast<double>(hi + 1)) *
                  odds;
        cdf += hi_pmf;
        ++hi;
        if (u < cdf) return hi;
      }
    }
    return mode;  // cdf rounding left a ~1e-13 sliver; return the mode
  }

  /// Hypergeometric draw: marked items in a uniform without-replacement
  /// sample of `m` from a population of `total` containing `marked` marked
  /// items.  Exact: parameter symmetries shrink the problem, then the same
  /// mode-centered inversion as binomial() walks the pmf recurrence
  /// outward from the mode, O(stddev) expected.
  ///
  /// `log_fact(x)` must return log(x!) for the integral-valued double x;
  /// the overload below passes lgamma.  Hot callers (the batch engine
  /// draws dozens of hypergeometrics per batch) pass a precomputed table
  /// of the very same lgamma values, which removes the dominant cost
  /// without changing a single bit of output.
  template <typename LogFact>
  std::uint64_t hypergeometric(std::uint64_t total, std::uint64_t marked,
                               std::uint64_t m, LogFact&& log_fact) noexcept {
    PPK_EXPECTS(marked <= total && m <= total);
    if (m == 0 || marked == 0) return 0;
    if (marked == total) return m;
    if (m == total) return marked;
    // Symmetries: sample the complement when it is smaller.
    if (m > total / 2) {
      return marked - hypergeometric(total, marked, total - m, log_fact);
    }
    if (marked > total / 2) {
      return m - hypergeometric(total, total - marked, m, log_fact);
    }
    const double nd = static_cast<double>(total);
    const double kd = static_cast<double>(marked);
    const double md = static_cast<double>(m);
    // Support [x_min, x_max]; after the reductions x_min is usually 0.
    const std::uint64_t x_min = m + marked > total ? m + marked - total : 0;
    const std::uint64_t x_max = marked < m ? marked : m;
    auto mode = static_cast<std::uint64_t>(
        (md + 1.0) * (kd + 1.0) / (nd + 2.0));  // floor; in [x_min, x_max]
    if (mode < x_min) mode = x_min;  // guard float rounding at the edges
    if (mode > x_max) mode = x_max;
    auto log_choose = [&log_fact](double a, double b) {
      return log_fact(a) - log_fact(b) - log_fact(a - b);
    };
    const double log_pmf_mode =
        log_choose(kd, static_cast<double>(mode)) +
        log_choose(nd - kd, md - static_cast<double>(mode)) -
        log_choose(nd, md);
    // pmf(x+1)/pmf(x) = (marked-x)(m-x) / ((x+1)(total-marked-m+x+1)).
    auto up_ratio = [&](std::uint64_t x) {
      return (kd - static_cast<double>(x)) * (md - static_cast<double>(x)) /
             ((static_cast<double>(x) + 1.0) *
              (nd - kd - md + static_cast<double>(x) + 1.0));
    };
    const double u = uniform01();
    double lo_pmf = std::exp(log_pmf_mode);
    double hi_pmf = lo_pmf;
    double cdf = lo_pmf;
    if (u < cdf) return mode;
    std::uint64_t lo = mode;
    std::uint64_t hi = mode;
    while (lo > x_min || hi < x_max) {
      if (lo > x_min) {
        lo_pmf /= up_ratio(lo - 1);
        cdf += lo_pmf;
        --lo;
        if (u < cdf) return lo;
      }
      if (hi < x_max) {
        hi_pmf *= up_ratio(hi);
        cdf += hi_pmf;
        ++hi;
        if (u < cdf) return hi;
      }
    }
    return mode;  // cdf rounding sliver; return the mode
  }

  std::uint64_t hypergeometric(std::uint64_t total, std::uint64_t marked,
                               std::uint64_t m) noexcept {
    return hypergeometric(total, marked, m,
                          [](double x) { return std::lgamma(x + 1.0); });
  }

  /// The full 256-bit generator state, for snapshot/restore.  Restoring a
  /// saved state resumes the stream at exactly the draw where it was saved.
  [[nodiscard]] const std::array<std::uint64_t, 4>& state() const noexcept {
    return state_;
  }

  /// Restores a state previously obtained from state().  The all-zero state
  /// is a fixed point of xoshiro256** and therefore rejected.
  void set_state(const std::array<std::uint64_t, 4>& state) noexcept {
    PPK_EXPECTS((state[0] | state[1] | state[2] | state[3]) != 0);
    state_ = state;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int s) noexcept {
    return (x << s) | (x >> (64 - s));
  }

  std::array<std::uint64_t, 4> state_{};
};

/// Derives the seed of the `stream`-th independent generator from a master
/// seed.  Distinct streams come from distinct SplitMix64 outputs, so trials
/// scheduled on different threads reproduce bit-for-bit regardless of the
/// execution order.
inline std::uint64_t derive_stream_seed(std::uint64_t master_seed,
                                        std::uint64_t stream) noexcept {
  SplitMix64 mix(master_seed ^ (0x5851f42d4c957f2dULL * (stream + 1)));
  mix.next();
  return mix.next();
}

}  // namespace ppk
