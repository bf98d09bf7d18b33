// Tests of the CSR sparse-matrix kit (util/csr.hpp): builder canonical
// form, both iterative solvers against hand-solvable systems, the
// block-by-block Gauss-Seidel of a block-lower-triangular system, the
// direct seed of small diagonally dominant blocks, the line sweeps and
// their fallback to rows, and the residual certificate's refusal to bless
// a non-converged answer.

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "util/csr.hpp"

namespace ppk::util {
namespace {

TEST(CsrBuilder, SortsColumnsAndMergesDuplicates) {
  CsrBuilder builder(2, 3);
  builder.add(0, 2, 1.0);
  builder.add(0, 0, 2.0);
  builder.add(0, 2, 0.5);  // duplicate: must merge additively
  builder.add(1, 1, 4.0);
  const CsrMatrix a = builder.build();

  ASSERT_EQ(a.rows, 2u);
  ASSERT_EQ(a.cols, 3u);
  ASSERT_EQ(a.nnz(), 3u);
  // Row 0: columns ascending, duplicate merged.
  EXPECT_EQ(a.col[0], 0u);
  EXPECT_DOUBLE_EQ(a.value[0], 2.0);
  EXPECT_EQ(a.col[1], 2u);
  EXPECT_DOUBLE_EQ(a.value[1], 1.5);
  // Row 1.
  EXPECT_EQ(a.col[2], 1u);
  EXPECT_DOUBLE_EQ(a.value[2], 4.0);
}

TEST(CsrSolve, GaussSeidelSolvesADiagonallyDominantSystem) {
  // [ 4 -1  0 ] [x]   [ 2 ]        x = (1, 2, 3)
  // [-1  4 -1 ] [y] = [ 4 ]
  // [ 0 -1  4 ] [z]   [10 ]
  CsrBuilder builder(3, 3);
  builder.add(0, 0, 4.0);
  builder.add(0, 1, -1.0);
  builder.add(1, 0, -1.0);
  builder.add(1, 1, 4.0);
  builder.add(1, 2, -1.0);
  builder.add(2, 1, -1.0);
  builder.add(2, 2, 4.0);
  const CsrMatrix a = builder.build();
  const std::vector<double> b = {2.0, 4.0, 10.0};

  std::vector<double> x(3, 0.0);
  const SolveCertificate cert = solve_sparse(a, b, x);
  ASSERT_TRUE(cert.converged) << "residual " << cert.residual;
  EXPECT_LE(cert.residual, cert.residual_bound);
  EXPECT_NEAR(x[0], 1.0, 1e-10);
  EXPECT_NEAR(x[1], 2.0, 1e-10);
  EXPECT_NEAR(x[2], 3.0, 1e-10);
}

TEST(CsrSolve, JacobiAgreesWithGaussSeidel) {
  CsrBuilder builder(3, 3);
  builder.add(0, 0, 5.0);
  builder.add(0, 2, 1.0);
  builder.add(1, 1, 3.0);
  builder.add(1, 0, -1.0);
  builder.add(2, 2, 6.0);
  builder.add(2, 1, 2.0);
  const CsrMatrix a = builder.build();
  const std::vector<double> b = {7.0, -1.0, 4.0};

  std::vector<double> gs(3, 0.0);
  SolveOptions gs_options;
  gs_options.method = SolveOptions::Method::kGaussSeidel;
  ASSERT_TRUE(solve_sparse(a, b, gs, gs_options).converged);

  std::vector<double> jacobi(3, 0.0);
  SolveOptions jacobi_options;
  jacobi_options.method = SolveOptions::Method::kJacobi;
  ASSERT_TRUE(solve_sparse(a, b, jacobi, jacobi_options).converged);

  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(gs[i], jacobi[i], 1e-10) << "component " << i;
  }
}

TEST(CsrSolve, MissingDiagonalFailsTheCertificateInsteadOfDividing) {
  CsrBuilder builder(2, 2);
  builder.add(0, 0, 1.0);
  builder.add(0, 1, 1.0);
  builder.add(1, 0, 1.0);  // row 1 has no diagonal entry
  const CsrMatrix a = builder.build();
  const std::vector<double> b = {1.0, 1.0};

  std::vector<double> x(2, 0.0);
  const SolveCertificate cert = solve_sparse(a, b, x);
  EXPECT_FALSE(cert.converged);
}

TEST(CsrSolve, NonConvergentSystemReportsFailure) {
  // Not diagonally dominant and spectral radius of the iteration matrix
  // > 1: both stationary methods diverge, and the certificate must say so
  // rather than returning garbage as "solved".
  CsrBuilder builder(2, 2);
  builder.add(0, 0, 1.0);
  builder.add(0, 1, 3.0);
  builder.add(1, 0, 3.0);
  builder.add(1, 1, 1.0);
  const CsrMatrix a = builder.build();
  const std::vector<double> b = {1.0, 2.0};

  std::vector<double> x(2, 0.0);
  SolveOptions options;
  options.max_sweeps = 200;
  const SolveCertificate cert = solve_sparse(a, b, x, options);
  EXPECT_FALSE(cert.converged);
  EXPECT_GT(cert.residual, cert.residual_bound);
}

TEST(CsrSolve, DivergedIterateIsNeverCertified) {
  // Enough sweeps of the divergent system above for the iterate to
  // overflow to inf and then NaN: a NaN residual must not read as zero.
  CsrBuilder builder(2, 2);
  builder.add(0, 0, 1.0);
  builder.add(0, 1, 3.0);
  builder.add(1, 0, 3.0);
  builder.add(1, 1, 1.0);
  const CsrMatrix a = builder.build();
  const std::vector<double> b = {1.0, 2.0};

  std::vector<double> x(2, 0.0);
  SolveOptions options;
  options.max_sweeps = 2000;
  const SolveCertificate cert = solve_sparse(a, b, x, options);
  EXPECT_FALSE(cert.converged);
  EXPECT_GT(cert.residual, cert.residual_bound);
}

TEST(CsrSolve, ADivergedBlockStopsBeforeTheSweepCap) {
  // The divergent system above overflows within a few hundred sweeps.  The
  // first residual check after that ends the block, long before the cap,
  // and the failure is reported against a finite bound.
  CsrBuilder builder(2, 2);
  builder.add(0, 0, 1.0);
  builder.add(0, 1, 3.0);
  builder.add(1, 0, 3.0);
  builder.add(1, 1, 1.0);
  const CsrMatrix a = builder.build();
  const std::vector<double> b = {1.0, 2.0};

  for (const auto method : {SolveOptions::Method::kGaussSeidel,
                            SolveOptions::Method::kJacobi}) {
    std::vector<double> x(2, 0.0);
    SolveOptions options;
    options.method = method;
    options.max_sweeps = 100'000;
    const SolveCertificate cert = solve_sparse(a, b, x, options);
    EXPECT_FALSE(cert.converged);
    EXPECT_LT(cert.sweeps, 1000u);
    EXPECT_TRUE(std::isfinite(cert.residual_bound));
    EXPECT_GT(cert.residual, cert.residual_bound);
  }
}

TEST(CsrSolve, ANaNFromFiniteValuesStopsTheBlock) {
  // Gauss-Seidel diverges here, and after 300 sweeps row 0 adds two
  // finite products that overflow with opposite signs: its value is NaN
  // while every entry it read was finite.  That must end the block as
  // promptly as an overflow to infinity does.
  CsrBuilder builder(3, 3);
  builder.add(0, 0, 1.0);
  builder.add(0, 1, -3.0);
  builder.add(0, 2, -3.0);
  builder.add(1, 0, -3.0);
  builder.add(1, 1, 1.0);
  builder.add(1, 2, -3.0);
  builder.add(2, 0, -2.0);
  builder.add(2, 1, 2.0);
  builder.add(2, 2, 1.0);
  const CsrMatrix a = builder.build();
  const std::vector<double> b = {1.0, 2.0, 3.0};

  std::vector<double> x;
  SolveOptions options;
  options.max_sweeps = 100'000;
  const SolveCertificate cert = solve_sparse(a, b, x, options);
  EXPECT_FALSE(cert.converged);
  EXPECT_LT(cert.sweeps, 1000u);
  EXPECT_TRUE(std::isfinite(cert.residual_bound));
  EXPECT_GT(cert.residual, cert.residual_bound);
}

/// A two-block lower-triangular system: rows 0-1 a fast block, rows 2-3 a
/// slow-mixing one (off-diagonals -0.995) fed by column 0.
CsrMatrix two_block_system() {
  CsrBuilder builder(4, 4);
  builder.add(0, 0, 4.0);
  builder.add(0, 1, -1.0);
  builder.add(1, 0, -1.0);
  builder.add(1, 1, 4.0);
  builder.add(2, 0, -0.002);
  builder.add(2, 2, 1.0);
  builder.add(2, 3, -0.995);
  builder.add(3, 2, -0.995);
  builder.add(3, 3, 1.0);
  return builder.build();
}

TEST(CsrSolve, GaussSeidelSolvesTwoBlocksInTurnAndMatchesJacobi) {
  const CsrMatrix a = two_block_system();
  const std::vector<double> b = {3.0, 3.0, 0.01, 0.005};

  std::vector<double> gs(4, 0.0);
  const SolveCertificate gs_cert = solve_sparse(a, b, gs);
  ASSERT_TRUE(gs_cert.converged) << "residual " << gs_cert.residual;
  EXPECT_LE(gs_cert.residual, gs_cert.residual_bound);
  EXPECT_EQ(gs_cert.blocks, 2u);
  // Both blocks are small and diagonally dominant: each starts from its
  // direct solution and certifies after one sweep.
  EXPECT_EQ(gs_cert.sweeps, 1u);

  std::vector<double> jacobi(4, 0.0);
  SolveOptions jacobi_options;
  jacobi_options.method = SolveOptions::Method::kJacobi;
  const SolveCertificate jacobi_cert =
      solve_sparse(a, b, jacobi, jacobi_options);
  ASSERT_TRUE(jacobi_cert.converged) << "residual " << jacobi_cert.residual;
  EXPECT_EQ(jacobi_cert.blocks, 1u);

  EXPECT_NEAR(gs[0], 1.0, 1e-10);
  EXPECT_NEAR(gs[1], 1.0, 1e-10);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(gs[i], jacobi[i], 1e-10) << "component " << i;
  }
}

/// One irreducible block of `rows` rows: a directed ring, row r feeding
/// on row r + 1 (and the last on the first) with weight `feed`, plus a
/// right-hand side of 1 - feed, so x = 1 solves it.  The ring's mixing
/// slows as feed approaches 1.
CsrMatrix ring_system(std::uint32_t rows, double feed) {
  CsrBuilder builder(rows, rows);
  for (std::uint32_t r = 0; r < rows; ++r) {
    builder.add(r, r, 1.0);
    builder.add(r, (r + 1) % rows, -feed);
  }
  return builder.build();
}

/// Solves with both methods and checks that each certifies and that they
/// agree to 1e-10.  Returns the Gauss-Seidel certificate.
SolveCertificate solve_both_and_compare(const CsrMatrix& a,
                                        const std::vector<double>& b) {
  std::vector<double> gs;
  const SolveCertificate gs_cert = solve_sparse(a, b, gs);
  EXPECT_TRUE(gs_cert.converged) << "residual " << gs_cert.residual;
  std::vector<double> jacobi;
  SolveOptions jacobi_options;
  jacobi_options.method = SolveOptions::Method::kJacobi;
  const SolveCertificate jacobi_cert =
      solve_sparse(a, b, jacobi, jacobi_options);
  EXPECT_TRUE(jacobi_cert.converged) << "residual " << jacobi_cert.residual;
  for (std::size_t i = 0; i < b.size(); ++i) {
    EXPECT_NEAR(gs[i], jacobi[i], 1e-10) << "component " << i;
  }
  return gs_cert;
}

TEST(CsrSolve, ASlowBlockAboveTheDirectSizeSweepsAndMatchesJacobi) {
  // Too large to seed: the ring mixes slowly, so Gauss-Seidel needs many
  // sweeps, and still meets the reference.
  constexpr std::uint32_t rows = 200;
  static_assert(rows > kDirectBlockMax);
  const CsrMatrix a = ring_system(rows, 0.995);
  const std::vector<double> b(rows, 0.005);
  const SolveCertificate cert = solve_both_and_compare(a, b);
  EXPECT_EQ(cert.blocks, 1u);
  EXPECT_GT(cert.sweeps, 100u);
}

TEST(CsrSolve, BlocksAtAndJustAboveTheDirectSizeBothCertify) {
  // At kDirectBlockMax rows the block is seeded and certifies after one
  // sweep; one row more and it sweeps from zero.  Both meet Jacobi.
  for (const std::uint32_t rows : {kDirectBlockMax, kDirectBlockMax + 1}) {
    const CsrMatrix a = ring_system(rows, 0.9);
    const std::vector<double> b(rows, 0.1);
    const SolveCertificate cert = solve_both_and_compare(a, b);
    EXPECT_EQ(cert.blocks, 1u);
    if (rows == kDirectBlockMax) {
      EXPECT_EQ(cert.sweeps, 1u);
    } else {
      EXPECT_GT(cert.sweeps, 1u);
    }
  }
}

TEST(CsrSolve, TheDirectSeedIsGaussianElimination) {
  // Row 0 is a block of its own (x0 = 1); rows 1-3 are the block
  //   [ 4 -1 -2 ]       [ 1 ]
  //   [-1  5 -3 ] y  =  [ 2 ]
  //   [-2 -1  6 ]       [ 3 ]
  // once column 0 is folded into the right-hand side.  By hand:
  // eliminating y1 leaves [19/4 -7/2 | 9/4; -3/2 5 | 7/2], eliminating y2
  // leaves 74/19 y3 = 80/19, so y3 = 40/37, y2 = (9/4 + 7/2 y3) 4/19 =
  // 47/37 and y1 = (1 + y2 + 2 y3) / 4 = 41/37.
  CsrBuilder builder(4, 4);
  builder.add(0, 0, 2.0);
  builder.add(1, 0, -1.0);
  builder.add(1, 1, 4.0);
  builder.add(1, 2, -1.0);
  builder.add(1, 3, -2.0);
  builder.add(2, 1, -1.0);
  builder.add(2, 2, 5.0);
  builder.add(2, 3, -3.0);
  builder.add(3, 0, -2.0);
  builder.add(3, 1, -2.0);
  builder.add(3, 2, -1.0);
  builder.add(3, 3, 6.0);
  const CsrMatrix a = builder.build();
  const std::vector<double> b = {2.0, 0.0, 2.0, 1.0};

  std::vector<double> seeded = {1.0, 0.0, 0.0, 0.0};
  std::vector<double> dense;
  detail::seed_block(a, b, 1, 4, seeded, dense);
  EXPECT_EQ(seeded[0], 1.0);  // earlier blocks are read, never written
  EXPECT_NEAR(seeded[1], 41.0 / 37.0, 1e-15);
  EXPECT_NEAR(seeded[2], 47.0 / 37.0, 1e-15);
  EXPECT_NEAR(seeded[3], 40.0 / 37.0, 1e-15);

  // The solve seeds both blocks, so one sweep each certifies.
  std::vector<double> x;
  const SolveCertificate cert = solve_sparse(a, b, x);
  ASSERT_TRUE(cert.converged) << "residual " << cert.residual;
  EXPECT_EQ(cert.blocks, 2u);
  EXPECT_EQ(cert.sweeps, 1u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(x[i], seeded[i], 1e-15) << "component " << i;
  }
}

TEST(CsrSolve, AJumpChainRowSummingToOnePlusRoundingIsStillSeeded) {
  // Row 0 jumps to rows 1-3 with probabilities 9/28, 18/28 and 1/28: they
  // sum to exactly 1, but as doubles to 1 + 2^-52.  Rows 1-3 jump back
  // with probability 1/2 and leave the chain otherwise, so x = 1.  The
  // block is diagonally dominant but for rounding, and is seeded.
  const std::vector<double> jump = {9.0 / 28.0, 18.0 / 28.0, 1.0 / 28.0};
  double rounded_sum = 0.0;
  for (const double p : jump) rounded_sum += p;
  ASSERT_GT(rounded_sum, 1.0);

  CsrBuilder builder(4, 4);
  builder.add(0, 0, 1.0);
  for (std::uint32_t j = 0; j < 3; ++j) builder.add(0, j + 1, -jump[j]);
  for (std::uint32_t r = 1; r < 4; ++r) {
    builder.add(r, 0, -0.5);
    builder.add(r, r, 1.0);
  }
  const CsrMatrix a = builder.build();
  const std::vector<double> b = {0.0, 0.5, 0.5, 0.5};

  std::vector<double> x;
  const SolveCertificate cert = solve_sparse(a, b, x);
  ASSERT_TRUE(cert.converged) << "residual " << cert.residual;
  EXPECT_EQ(cert.blocks, 1u);
  EXPECT_EQ(cert.sweeps, 1u);
  for (const double v : x) EXPECT_NEAR(v, 1.0, 1e-12);
}

TEST(CsrSolve, ADivergentLaterBlockFailsTheWholeSolve) {
  // Row 0 is a block of its own and converges at once; rows 1-2 are the
  // divergent system above, fed by column 0.
  CsrBuilder builder(3, 3);
  builder.add(0, 0, 2.0);
  builder.add(1, 0, -1.0);
  builder.add(1, 1, 1.0);
  builder.add(1, 2, 3.0);
  builder.add(2, 1, 3.0);
  builder.add(2, 2, 1.0);
  const CsrMatrix a = builder.build();
  const std::vector<double> b = {2.0, 1.0, 2.0};

  std::vector<double> x(3, 0.0);
  SolveOptions options;
  options.max_sweeps = 200;
  const SolveCertificate cert = solve_sparse(a, b, x, options);
  EXPECT_EQ(cert.blocks, 2u);
  EXPECT_FALSE(cert.converged);
  EXPECT_GT(cert.residual, cert.residual_bound);
  EXPECT_EQ(cert.sweeps, 200u);
  EXPECT_DOUBLE_EQ(x[0], 1.0);  // the first block was solved
}

TEST(CsrSolve, AMatrixWithoutBlockStructureIsOneBlock) {
  // Row 0 reaches the last column, so no block can end before it.
  CsrBuilder builder(3, 3);
  builder.add(0, 0, 4.0);
  builder.add(0, 2, -1.0);
  builder.add(1, 0, -1.0);
  builder.add(1, 1, 4.0);
  builder.add(2, 1, -1.0);
  builder.add(2, 2, 4.0);
  const CsrMatrix a = builder.build();
  const std::vector<double> b = {3.0, 3.0, 3.0};

  std::vector<double> x(3, 0.0);
  const SolveCertificate cert = solve_sparse(a, b, x);
  ASSERT_TRUE(cert.converged);
  EXPECT_EQ(cert.blocks, 1u);
  for (const double v : x) EXPECT_NEAR(v, 1.0, 1e-10);
}

// ---------------------------------------------------------------------------
// Line Gauss-Seidel

/// A matrix given by its (row, column, value) entries.
CsrMatrix from_entries(
    std::uint32_t rows,
    const std::vector<std::tuple<std::uint32_t, std::uint32_t, double>>&
        entries) {
  CsrBuilder builder(rows, rows);
  for (const auto& [row, col, value] : entries) builder.add(row, col, value);
  return builder.build();
}

/// Every line one row long: the ends 1, 2, ..., rows.
std::vector<std::uint32_t> one_row_lines(std::uint32_t rows) {
  std::vector<std::uint32_t> ends(rows);
  for (std::uint32_t r = 0; r < rows; ++r) ends[r] = r + 1;
  return ends;
}

/// Solves without lines and with `lines` from the same start and requires
/// the same x and certificate, bit for bit.
void expect_same_solve(const CsrMatrix& a, const std::vector<double>& b,
                       const SolveOptions& options,
                       const std::vector<std::uint32_t>& lines,
                       const std::string& label) {
  std::vector<double> plain;
  const SolveCertificate plain_cert = solve_sparse(a, b, plain, options);
  std::vector<double> lined;
  const SolveCertificate lined_cert =
      solve_sparse(a, b, lined, options, lines);
  ASSERT_EQ(plain.size(), lined.size()) << label;
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(plain[i]),
              std::bit_cast<std::uint64_t>(lined[i]))
        << label << ": component " << i;
  }
  EXPECT_EQ(plain_cert.converged, lined_cert.converged) << label;
  EXPECT_EQ(plain_cert.sweeps, lined_cert.sweeps) << label;
  EXPECT_EQ(plain_cert.blocks, lined_cert.blocks) << label;
  EXPECT_EQ(plain_cert.row_updates, lined_cert.row_updates) << label;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(plain_cert.residual),
            std::bit_cast<std::uint64_t>(lined_cert.residual))
      << label;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(plain_cert.residual_bound),
            std::bit_cast<std::uint64_t>(lined_cert.residual_bound))
      << label;
}

TEST(CsrLines, OneRowLinesAreThePointSweepBitForBit) {
  // Every system of the tests above, under the options they solve it
  // with: one-row lines must change nothing, converged or not.
  struct System {
    std::string name;
    CsrMatrix a;
    std::vector<double> b;
    std::uint32_t max_sweeps;
  };
  const CsrMatrix divergent =
      from_entries(2, {{0, 0, 1.0}, {0, 1, 3.0}, {1, 0, 3.0}, {1, 1, 1.0}});
  const std::vector<System> systems = {
      {"dominant 3x3",
       from_entries(3, {{0, 0, 4.0}, {0, 1, -1.0}, {1, 0, -1.0}, {1, 1, 4.0},
                        {1, 2, -1.0}, {2, 1, -1.0}, {2, 2, 4.0}}),
       {2.0, 4.0, 10.0}, 100'000},
      {"jacobi agreement",
       from_entries(3, {{0, 0, 5.0}, {0, 2, 1.0}, {1, 1, 3.0}, {1, 0, -1.0},
                        {2, 2, 6.0}, {2, 1, 2.0}}),
       {7.0, -1.0, 4.0}, 100'000},
      {"missing diagonal",
       from_entries(2, {{0, 0, 1.0}, {0, 1, 1.0}, {1, 0, 1.0}}), {1.0, 1.0},
       100'000},
      {"divergent, 200 sweeps", divergent, {1.0, 2.0}, 200},
      {"divergent, 2000 sweeps", divergent, {1.0, 2.0}, 2000},
      {"divergent, to the cap", divergent, {1.0, 2.0}, 100'000},
      {"NaN from finite values",
       from_entries(3, {{0, 0, 1.0}, {0, 1, -3.0}, {0, 2, -3.0}, {1, 0, -3.0},
                        {1, 1, 1.0}, {1, 2, -3.0}, {2, 0, -2.0}, {2, 1, 2.0},
                        {2, 2, 1.0}}),
       {1.0, 2.0, 3.0}, 100'000},
      {"two blocks", two_block_system(), {3.0, 3.0, 0.01, 0.005}, 100'000},
      {"slow ring", ring_system(200, 0.995),
       std::vector<double>(200, 0.005), 100'000},
      {"ring at the direct size", ring_system(kDirectBlockMax, 0.9),
       std::vector<double>(kDirectBlockMax, 0.1), 100'000},
      {"ring past the direct size", ring_system(kDirectBlockMax + 1, 0.9),
       std::vector<double>(kDirectBlockMax + 1, 0.1), 100'000},
      {"direct seed",
       from_entries(4, {{0, 0, 2.0}, {1, 0, -1.0}, {1, 1, 4.0}, {1, 2, -1.0},
                        {1, 3, -2.0}, {2, 1, -1.0}, {2, 2, 5.0}, {2, 3, -3.0},
                        {3, 0, -2.0}, {3, 1, -2.0}, {3, 2, -1.0},
                        {3, 3, 6.0}}),
       {2.0, 0.0, 2.0, 1.0}, 100'000},
      {"jump-chain row",
       from_entries(4, {{0, 0, 1.0}, {0, 1, -9.0 / 28.0},
                        {0, 2, -18.0 / 28.0}, {0, 3, -1.0 / 28.0},
                        {1, 0, -0.5}, {1, 1, 1.0}, {2, 0, -0.5}, {2, 2, 1.0},
                        {3, 0, -0.5}, {3, 3, 1.0}}),
       {0.0, 0.5, 0.5, 0.5}, 100'000},
      {"divergent later block",
       from_entries(3, {{0, 0, 2.0}, {1, 0, -1.0}, {1, 1, 1.0}, {1, 2, 3.0},
                        {2, 1, 3.0}, {2, 2, 1.0}}),
       {2.0, 1.0, 2.0}, 200},
      {"no block structure",
       from_entries(3, {{0, 0, 4.0}, {0, 2, -1.0}, {1, 0, -1.0}, {1, 1, 4.0},
                        {2, 1, -1.0}, {2, 2, 4.0}}),
       {3.0, 3.0, 3.0}, 100'000},
  };
  for (const System& system : systems) {
    for (const auto method : {SolveOptions::Method::kGaussSeidel,
                              SolveOptions::Method::kJacobi}) {
      SolveOptions options;
      options.method = method;
      options.max_sweeps = system.max_sweeps;
      expect_same_solve(system.a, system.b, options,
                        one_row_lines(system.a.rows), system.name);
    }
  }
}

/// One irreducible pentadiagonal block of `rows` rows: row r feeds on its
/// neighbours within two rows, sharing the weight `feed` among them, with
/// a right-hand side of 1 - feed, so x = 1 solves it.
CsrMatrix pentadiagonal_system(std::uint32_t rows, double feed) {
  CsrBuilder builder(rows, rows);
  for (std::uint32_t r = 0; r < rows; ++r) {
    builder.add(r, r, 1.0);
    std::vector<std::uint32_t> neighbours;
    for (std::uint32_t c = r >= 2 ? r - 2 : 0; c <= r + 2 && c < rows; ++c) {
      if (c != r) neighbours.push_back(c);
    }
    for (const std::uint32_t c : neighbours) {
      builder.add(r, c, -feed / static_cast<double>(neighbours.size()));
    }
  }
  return builder.build();
}

TEST(CsrLines, ALineIsSolvedExactlyInEachSweep) {
  // A slow-mixing block too large to seed: point sweeps need hundreds,
  // while one line over the whole block is solved exactly by the first
  // sweep and certified by the second.  Both meet Jacobi.
  constexpr std::uint32_t rows = 200;
  static_assert(rows > kDirectBlockMax);
  const CsrMatrix a = pentadiagonal_system(rows, 0.995);
  const std::vector<double> b(rows, 0.005);
  const std::vector<std::uint32_t> one_line = {rows};

  std::vector<double> lined;
  const SolveCertificate lined_cert = solve_sparse(a, b, lined, {}, one_line);
  ASSERT_TRUE(lined_cert.converged) << "residual " << lined_cert.residual;
  EXPECT_EQ(lined_cert.blocks, 1u);
  EXPECT_LE(lined_cert.sweeps, 3u);
  EXPECT_EQ(lined_cert.row_updates, std::uint64_t{lined_cert.sweeps} * rows);

  std::vector<double> point;
  const SolveCertificate point_cert = solve_sparse(a, b, point);
  ASSERT_TRUE(point_cert.converged) << "residual " << point_cert.residual;
  EXPECT_GT(point_cert.sweeps, 100u);

  std::vector<double> jacobi;
  SolveOptions jacobi_options;
  jacobi_options.method = SolveOptions::Method::kJacobi;
  ASSERT_TRUE(solve_sparse(a, b, jacobi, jacobi_options, one_line).converged);
  for (std::uint32_t r = 0; r < rows; ++r) {
    EXPECT_NEAR(lined[r], jacobi[r], 1e-10) << "component " << r;
    EXPECT_NEAR(lined[r], 1.0, 1e-10) << "component " << r;
  }
}

TEST(CsrLines, LinesAreCutAtBlockBoundaries) {
  // The two-block system with one line over all four rows: the line is
  // cut into one per block, each solved exactly, and the answer meets the
  // point sweep's.
  const CsrMatrix a = two_block_system();
  const std::vector<double> b = {3.0, 3.0, 0.01, 0.005};
  std::vector<double> lined;
  const SolveCertificate cert =
      solve_sparse(a, b, lined, {}, std::vector<std::uint32_t>{4});
  ASSERT_TRUE(cert.converged) << "residual " << cert.residual;
  EXPECT_EQ(cert.blocks, 2u);
  std::vector<double> point;
  ASSERT_TRUE(solve_sparse(a, b, point).converged);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(lined[i], point[i], 1e-10) << "component " << i;
  }
}

TEST(CsrLines, ATooWideRunFallsBackToRows) {
  // The ring's last row reaches back to column 0, 199 columns from its
  // diagonal: a line over the whole ring is wider than the band, so it is
  // solved row by row -- exactly the point sweep -- and still certifies.
  constexpr std::uint32_t rows = 200;
  const CsrMatrix a = ring_system(rows, 0.995);
  const std::vector<double> b(rows, 0.005);
  std::vector<detail::LineRow> factors(rows);
  std::vector<std::uint32_t> diag(rows);
  for (std::uint32_t r = 0; r < rows; ++r) {
    for (std::uint32_t i = a.row_ptr[r]; i < a.row_ptr[r + 1]; ++i) {
      if (a.col[i] == r) diag[r] = i;
    }
  }
  EXPECT_FALSE(detail::factor_line(a, diag, 0, rows, factors.data()));
  // Rows 0 .. 198 alone are a band: each reaches one column right.
  EXPECT_TRUE(detail::factor_line(a, diag, 0, rows - 1, factors.data()));

  SolveOptions options;
  expect_same_solve(a, b, options, {rows}, "ring as one line");
  std::vector<double> x;
  const SolveCertificate cert =
      solve_sparse(a, b, x, options, std::vector<std::uint32_t>{rows});
  EXPECT_TRUE(cert.converged) << "residual " << cert.residual;
  for (const double v : x) EXPECT_NEAR(v, 1.0, 1e-10);
}

TEST(CsrLines, AZeroPivotFallsBackToRows) {
  // [1 1; 1 1] has a zero second pivot: the line is solved row by row.
  const CsrMatrix a =
      from_entries(2, {{0, 0, 1.0}, {0, 1, 1.0}, {1, 0, 1.0}, {1, 1, 1.0}});
  std::vector<detail::LineRow> factors(2);
  const std::vector<std::uint32_t> diag = {0, 3};
  EXPECT_FALSE(detail::factor_line(a, diag, 0, 2, factors.data()));
  SolveOptions options;
  options.max_sweeps = 50;
  expect_same_solve(a, {1.0, 2.0}, options, {2}, "singular line");
}


TEST(CompensatedSumTest, RecoversMassLostToCancellation) {
  // 1 + 1e-16 (x many) naively stays 1; Neumaier keeps the tail.
  CompensatedSum sum;
  sum.add(1.0);
  for (int i = 0; i < 1000; ++i) sum.add(1e-16);
  EXPECT_NEAR(sum.value(), 1.0 + 1000e-16, 1e-18);
}

}  // namespace
}  // namespace ppk::util
