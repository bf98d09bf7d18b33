// Compressed-sparse-row matrices and residual-certified linear solves --
// the sparse back end of the lumped Markov analysis
// (verify/lumped_markov.hpp), replacing the O(m^3) dense elimination that
// capped exact analysis at a few thousand configurations.
//
// The systems solved here are (I - Q) x = b with Q a sub-stochastic
// jump-chain matrix (non-negative rows summing to < 1 somewhere along
// every path to absorption), i.e. weakly diagonally dominant M-matrices:
// both Jacobi and Gauss-Seidel converge.  The caller orders the rows by
// the strongly connected components of Q's graph, downstream first (see
// lumped_markov.cpp), which makes A block-lower-triangular.  Gauss-Seidel
// finds those diagonal blocks from the row order alone and solves them one
// at a time, each with the blocks before it already final, so a sweep never
// revisits a solved block and the sweep count is that of the slowest
// block, not of the whole chain.  Within a block the caller puts rows
// downstream-first as well, so an update mostly reads values already
// refreshed in the same sweep.
//
// Gauss-Seidel is a line (block) Gauss-Seidel when the caller passes line
// ends: consecutive runs of rows that are strongly coupled among
// themselves, such as the configurations of the lumped chain that differ
// only by free-agent flips.  Each sweep solves a line exactly: it gathers
// the line's out-of-line terms with the values of the moment, then solves
// the line's own equations by a band LU factored once per block.  A line
// qualifies when each row's in-line entries lie within two columns of the
// diagonal (bandwidth 2); the factorization needs no pivoting, because a
// line is a principal submatrix of a weakly diagonally dominant M-matrix
// whose rows leak out of it somewhere, and every Schur complement of such
// a matrix is again one.  A line that is wider than the band, or whose
// factorization meets a pivot that is zero or not finite, is solved row by
// row.  A one-row line is the point update itself, bit for bit, so
// without lines the sweep is exactly the point Gauss-Seidel.  Lines never
// cross a block boundary (one that does is cut there), and the factors
// live only while their block is solved.
//
// Gauss-Seidel seeds a small block -- at most kDirectBlockMax rows, each
// diagonally dominant inside the block (the sum of |a_rj| over in-block
// j != r is at most |a_rr|, up to the rounding of the entries, which every
// jump-chain block meets: its diagonal is 1 and its off-diagonals sum to
// at most 1) -- with its direct solution: Gaussian elimination without
// pivoting on a dense copy, the columns of earlier blocks, already final,
// folded into the right-hand side.  Every Schur complement of a
// diagonally dominant matrix is diagonally dominant again, so no pivot is
// zero.  The seed is only a starting iterate: the block then sweeps and
// certifies like any other, usually after a single sweep (its
// SolveCertificate::sweeps is 1), and sweeps on from the seed should its
// check fail.  A slow-mixing block of a few rows, which needs thousands of
// sweeps from zero, costs one small elimination instead.  Jacobi never
// seeds and ignores lines: it stays pure point sweeps, the
// order-independent reference.
//
// A row update is a plain sum, split around the diagonal (around the
// in-line run, for a line) so the inner loops carry no branch.  It needs
// no compensation: in these systems every term is non-negative (b >= 0,
// -A off the diagonal >= 0, x >= 0), so there is no cancellation and the
// sum's relative error stays within a few ulps per term.
//
// Convergence is never assumed.  A block is declared converged only by its
// residual, recomputed with compensated summation, and that check (about
// three sweeps' work) runs only once a sweep shows it can pass.  After a
// sweep whose largest change of any x_j is `step`, row i's residual is
// sum_j a_ij * (the change of x_j after row i's line was solved): that
// solve zeroed the residuals of the line's rows against the values it
// read, its own new values included.  Hence ||b - A x||_inf <=
// ||A||_inf * step for point and line sweeps alike, and the block is
// checked when that bound meets the block's residual bound, or at the
// sweep cap.  The bound only decides when to look: what certifies the
// block is the compensated residual itself, so the rounding of a line
// solve can delay a block but never bless it.  The answer itself is
// certified by the global residual of the returned x, also compensated,
// and the solver reports failure honestly instead of returning a
// half-converged vector.

#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <vector>

#include "util/assert.hpp"

namespace ppk::util {

/// Compensated accumulator (Neumaier's scheme): exact enough that a
/// residual computed with it is a certificate, not an estimate.
struct CompensatedSum {
  /// Running sum.
  double sum = 0.0;
  /// Running compensation (lost low-order bits).
  double compensation = 0.0;

  /// Adds one term.  The rounding error of sum + value comes from Knuth's
  /// branch-free TwoSum; for finite inputs it is exactly the error that
  /// Neumaier's magnitude test recovers, so the two agree bit for bit.
  void add(double value) noexcept {
    const double t = sum + value;
    const double z = t - sum;
    compensation += (sum - (t - z)) + (value - z);
    sum = t;
  }

  /// The compensated total.
  [[nodiscard]] double value() const noexcept { return sum + compensation; }
};

/// A sparse matrix in compressed-sparse-row form.
struct CsrMatrix {
  /// Number of rows.
  std::uint32_t rows = 0;
  /// Number of columns.
  std::uint32_t cols = 0;
  /// row_ptr[r] .. row_ptr[r+1] index the entries of row r (size rows+1);
  /// 32 bits, so a matrix holds fewer than 2^32 entries.
  std::vector<std::uint32_t> row_ptr;
  /// Column index of each stored entry, ascending within a row.
  std::vector<std::uint32_t> col;
  /// Value of each stored entry.
  std::vector<double> value;

  /// Number of stored entries.
  [[nodiscard]] std::size_t nnz() const noexcept { return value.size(); }
};

/// Incremental CsrMatrix builder: add entries in any order, duplicates
/// accumulate.  O(nnz log nnz) build.
class CsrBuilder {
 public:
  /// Builder for a rows x cols matrix.
  CsrBuilder(std::uint32_t rows, std::uint32_t cols)
      : rows_(rows), cols_(cols) {}

  /// Schedules entry (row, col) += value.
  void add(std::uint32_t row, std::uint32_t col, double value) {
    PPK_EXPECTS(row < rows_ && col < cols_);
    entries_.push_back({row, col, value});
  }

  /// Assembles the matrix (sorts, merges duplicates).  The builder is
  /// consumed.
  [[nodiscard]] CsrMatrix build() {
    PPK_EXPECTS(entries_.size() <= UINT32_MAX);
    std::sort(entries_.begin(), entries_.end(),
              [](const Entry& a, const Entry& b) {
                return a.row != b.row ? a.row < b.row : a.col < b.col;
              });
    CsrMatrix m;
    m.rows = rows_;
    m.cols = cols_;
    m.row_ptr.assign(rows_ + 1, 0);
    for (std::size_t i = 0; i < entries_.size();) {
      std::size_t j = i + 1;
      double sum = entries_[i].value;
      while (j < entries_.size() && entries_[j].row == entries_[i].row &&
             entries_[j].col == entries_[i].col) {
        sum += entries_[j].value;
        ++j;
      }
      m.col.push_back(entries_[i].col);
      m.value.push_back(sum);
      ++m.row_ptr[entries_[i].row + 1];
      i = j;
    }
    for (std::uint32_t r = 0; r < rows_; ++r) m.row_ptr[r + 1] += m.row_ptr[r];
    entries_.clear();
    return m;
  }

 private:
  struct Entry {
    std::uint32_t row, col;
    double value;
  };
  std::uint32_t rows_, cols_;
  std::vector<Entry> entries_;
};

/// Largest diagonal block that solve_sparse seeds with its direct
/// solution.  The block's dense copy, right-hand side included, then holds
/// at most kDirectBlockMax * (kDirectBlockMax + 1) doubles (129 KiB).
inline constexpr std::uint32_t kDirectBlockMax = 128;

/// Iterative-solver configuration.
struct SolveOptions {
  /// Sweep kind.
  enum class Method : std::uint8_t {
    kGaussSeidel,  // in-place sweeps, block by block; see solve_sparse
    kJacobi,       // two-vector global sweeps; order-independent reference
  };
  /// Sweep kind (default Gauss-Seidel).
  Method method = Method::kGaussSeidel;
  /// Hard sweep cap per diagonal block; failure to certify within it is
  /// reported, not hidden.
  std::uint32_t max_sweeps = 100'000;
  /// Relative residual target: certify when
  /// ||b - A x||_inf <= tolerance * (||A||_inf * ||x||_inf + ||b||_inf).
  double tolerance = 1e-13;
};

/// Outcome of a solve: the certificate the caller must inspect.
struct SolveCertificate {
  /// True iff every block converged and the global residual bound below
  /// was met.
  bool converged = false;
  /// Sweeps performed on the block that needed the most (the whole system
  /// is one block under Jacobi; a seeded block usually needs 1).
  std::uint32_t sweeps = 0;
  /// Final ||b - A x||_inf, recomputed with compensated summation.
  double residual = 0.0;
  /// The bound `residual` was required to meet.
  double residual_bound = 0.0;
  /// Diagonal blocks solved in turn (1 when the matrix has no block
  /// structure, and always 1 under Jacobi).
  std::uint32_t blocks = 0;
  /// Rows updated: the sum over blocks of sweeps times rows.  A count of
  /// work that no host noise moves.
  std::uint64_t row_updates = 0;
};

namespace detail {

/// True iff rows [begin, end) of `a` are diagonally dominant inside the
/// block: the sum of |a_rj| over in-block j != r is at most |a_rr|, up to
/// one epsilon of |a_rr| per stored entry of the row.  That slack admits
/// the rounding of entries that are exact fractions: a jump-chain row
/// whose w_j / L all stay in the block sums to exactly 1 in exact
/// arithmetic, but its rounded entries can sum to 1 + 2^-52.  The rows may
/// not reach past `end` (true of every diagonal block).
[[nodiscard]] inline bool dominant_block(const CsrMatrix& a,
                                         const std::vector<std::uint32_t>& diag,
                                         std::uint32_t begin,
                                         std::uint32_t end) {
  for (std::uint32_t r = begin; r < end; ++r) {
    double off = 0.0;
    for (std::size_t i = a.row_ptr[r]; i < a.row_ptr[r + 1]; ++i) {
      if (a.col[i] >= begin && i != diag[r]) off += std::abs(a.value[i]);
    }
    const double slack =
        static_cast<double>(a.row_ptr[r + 1] - a.row_ptr[r]) *
        std::numeric_limits<double>::epsilon();
    if (off > std::abs(a.value[diag[r]]) * (1.0 + slack)) return false;
  }
  return true;
}

/// Overwrites x[begin, end) with the direct solution of the diagonal block
/// [begin, end) of A x = b, taking x below `begin` as final: Gaussian
/// elimination without pivoting on `dense` (reused scratch), valid for a
/// block that dominant_block accepts.  An entry that comes out non-finite
/// keeps its incoming value.
inline void seed_block(const CsrMatrix& a, const std::vector<double>& b,
                       std::uint32_t begin, std::uint32_t end,
                       std::vector<double>& x, std::vector<double>& dense) {
  // The block row-major, with the right-hand side as column m.
  const std::uint32_t m = end - begin;
  const std::size_t stride = std::size_t{m} + 1;
  dense.assign(m * stride, 0.0);
  for (std::uint32_t r = begin; r < end; ++r) {
    double* row = &dense[(r - begin) * stride];
    double rhs = b[r];
    for (std::size_t i = a.row_ptr[r]; i < a.row_ptr[r + 1]; ++i) {
      if (a.col[i] < begin) {
        rhs -= a.value[i] * x[a.col[i]];
      } else {
        row[a.col[i] - begin] = a.value[i];
      }
    }
    row[m] = rhs;
  }
  for (std::uint32_t k = 0; k < m; ++k) {
    const double* pivot = &dense[k * stride];
    for (std::uint32_t i = k + 1; i < m; ++i) {
      double* row = &dense[i * stride];
      if (row[k] == 0.0) continue;
      const double factor = row[k] / pivot[k];
      for (std::uint32_t j = k + 1; j <= m; ++j) row[j] -= factor * pivot[j];
    }
  }
  // Back substitution; the solution replaces column m.
  for (std::uint32_t i = m; i-- > 0;) {
    double* row = &dense[i * stride];
    double sum = row[m];
    for (std::uint32_t j = i + 1; j < m; ++j) {
      sum -= row[j] * dense[j * stride + m];
    }
    row[m] = sum / row[i];
    if (std::isfinite(row[m])) x[begin + i] = row[m];
  }
}

/// One row of a line's band LU factors (see factor_line).
struct LineRow {
  /// The row's in-line entries are a.col / a.value [lo, hi).
  std::uint32_t lo = 0;
  std::uint32_t hi = 0;
  /// L's multipliers of the line rows one and two before this one.
  double l1 = 0.0;
  double l2 = 0.0;
  /// The reciprocal of U's diagonal, and U's entries one and two columns
  /// right of the diagonal.
  double inv_u0 = 0.0;
  double u1 = 0.0;
  double u2 = 0.0;
};

/// Writes into f[0, end - begin) the band LU factors, without pivoting, of
/// the line of rows [begin, end): the principal submatrix on those rows
/// and columns.  Returns false, leaving `f` partly written, when some
/// row's in-line entries reach more than two columns from the diagonal or
/// a factor comes out non-finite or a pivot zero; the line is then solved
/// row by row.
[[nodiscard]] inline bool factor_line(const CsrMatrix& a,
                                      const std::vector<std::uint32_t>& diag,
                                      std::uint32_t begin, std::uint32_t end,
                                      LineRow* f) {
  for (std::uint32_t r = begin; r < end; ++r) {
    LineRow& row = f[r - begin];
    // Columns ascend, so the in-line entries are one run around the
    // diagonal.
    row.lo = diag[r];
    row.hi = diag[r] + 1;
    while (row.lo > a.row_ptr[r] && a.col[row.lo - 1] >= begin) --row.lo;
    while (row.hi < a.row_ptr[r + 1] && a.col[row.hi] < end) ++row.hi;
    std::array<double, 5> band{};  // a_{r, r-2} .. a_{r, r+2}
    for (std::uint32_t i = row.lo; i < row.hi; ++i) {
      const std::int64_t offset =
          static_cast<std::int64_t>(a.col[i]) - static_cast<std::int64_t>(r);
      if (offset < -2 || offset > 2) return false;
      band[static_cast<std::size_t>(offset + 2)] = a.value[i];
    }
    // The rows before, or zeros at the line's start.
    const LineRow none;
    const LineRow& up1 = r > begin ? f[r - begin - 1] : none;
    const LineRow& up2 = r > begin + 1 ? f[r - begin - 2] : none;
    row.l2 = band[0] * up2.inv_u0;
    row.l1 = (band[1] - row.l2 * up2.u1) * up1.inv_u0;
    const double u0 = band[2] - row.l2 * up2.u2 - row.l1 * up1.u1;
    row.inv_u0 = 1.0 / u0;
    row.u1 = band[3] - row.l1 * up1.u2;
    row.u2 = band[4];
    for (const double factor : {row.l1, row.l2, u0, row.inv_u0, row.u1}) {
      if (!std::isfinite(factor)) return false;
    }
  }
  return true;
}

}  // namespace detail

/// Solves A x = b iteratively, overwriting `x` (whose incoming contents,
/// which must be finite, seed the iteration; zeros are a fine start).
/// Every row of A must carry a nonzero diagonal entry.  Returns the
/// convergence certificate -- callers must check `converged` and treat
/// failure as an error, never as an approximate answer.
///
/// Gauss-Seidel first splits the rows into the diagonal blocks of a
/// block-lower-triangular order: a block ends after row r when no row
/// <= r has a column > r (a prefix max over the column indices).  Each
/// block then iterates to its own residual bound in turn, earliest first,
/// with the columns of the blocks before it already final; a small,
/// diagonally dominant block starts from its direct solution.  A block that
/// misses its bound within `max_sweeps`, or whose iterate stops being
/// finite, ends the solve as not converged.  Either way the certificate is
/// the global residual of the returned x.
///
/// `line_end` lists, ascending, where each line of rows ends: line i is
/// rows [line_end[i - 1], line_end[i]) (line 0 starts at row 0), and rows
/// past the last end are lines of one row.  Gauss-Seidel solves each line
/// exactly within a sweep (see the file comment); an empty list, the
/// default, is point Gauss-Seidel.  Jacobi ignores the lines.
[[nodiscard]] inline SolveCertificate solve_sparse(
    const CsrMatrix& a, const std::vector<double>& b, std::vector<double>& x,
    const SolveOptions& options = {},
    std::span<const std::uint32_t> line_end = {}) {
  PPK_EXPECTS(a.rows == a.cols);
  PPK_EXPECTS(b.size() == a.rows);
  PPK_EXPECTS(std::ranges::adjacent_find(line_end, std::greater_equal<>()) ==
                  line_end.end() &&
              (line_end.empty() || line_end.back() <= a.rows));
  x.resize(a.rows, 0.0);
  const bool jacobi = options.method == SolveOptions::Method::kJacobi;

  // Locate diagonals, the matrix / rhs norms for the residual bound, and
  // the block boundaries (Jacobi: one block).
  std::vector<std::uint32_t> diag(a.rows);
  std::vector<std::uint32_t> block_end;
  double norm_a = 0.0;
  double norm_b = 0.0;
  std::uint32_t reach = 0;  // largest column seen in rows 0..r
  for (std::uint32_t r = 0; r < a.rows; ++r) {
    std::uint32_t d = UINT32_MAX;
    double row_sum = 0.0;
    for (std::uint32_t i = a.row_ptr[r]; i < a.row_ptr[r + 1]; ++i) {
      row_sum += std::abs(a.value[i]);
      if (a.col[i] == r) d = i;
      reach = std::max(reach, a.col[i]);
    }
    if (d == UINT32_MAX || a.value[d] == 0.0) {
      return {false, 0, std::numeric_limits<double>::infinity(), 0.0, 0, 0};
    }
    diag[r] = d;
    norm_a = std::max(norm_a, row_sum);
    norm_b = std::max(norm_b, std::abs(b[r]));
    if (reach <= r && !jacobi) block_end.push_back(r + 1);
  }
  if (jacobi && a.rows > 0) block_end.push_back(a.rows);

  const auto residual_inf = [&](std::uint32_t begin, std::uint32_t end) {
    double worst = 0.0;
    for (std::uint32_t r = begin; r < end; ++r) {
      CompensatedSum acc;
      acc.add(b[r]);
      for (std::size_t i = a.row_ptr[r]; i < a.row_ptr[r + 1]; ++i) {
        acc.add(-a.value[i] * x[a.col[i]]);
      }
      const double r_abs = std::abs(acc.value());
      // A diverged iterate overflows to inf and then NaN, which std::max
      // would skip: report it as an infinite residual instead.
      if (!std::isfinite(r_abs)) return std::numeric_limits<double>::infinity();
      worst = std::max(worst, r_abs);
    }
    return worst;
  };
  const auto meets = [](double residual, double bound) {
    return std::isfinite(residual) && residual <= bound;
  };
  const auto bound = [&](double norm_x) {
    return options.tolerance * (norm_a * norm_x + norm_b);
  };
  // ||x||_inf over rows [begin, end); infinite once an entry is not finite.
  const auto max_abs = [&](std::uint32_t begin, std::uint32_t end) {
    double m = 0.0;
    for (std::uint32_t r = begin; r < end; ++r) {
      if (!std::isfinite(x[r])) return std::numeric_limits<double>::infinity();
      m = std::max(m, std::abs(x[r]));
    }
    return m;
  };

  // The current block's lines of two rows or more that factor: rows
  // [begin, end), factors from factors[offset].  Block-scoped scratch.
  struct Line {
    std::uint32_t begin, end;
    std::size_t offset;
  };
  std::vector<Line> lines;
  std::vector<detail::LineRow> factors;
  std::vector<double> work;  // one line's forward and back substitution
  std::size_t next_line = 0;  // first entry of line_end not yet passed
  if (!jacobi && !line_end.empty()) {
    // Room for the largest block at once, so the factors are never copied.
    std::uint32_t largest = 0;
    std::uint32_t previous = 0;
    for (const std::uint32_t end : block_end) {
      largest = std::max(largest, end - previous);
      previous = end;
    }
    factors.reserve(largest);
  }

  SolveCertificate cert;
  cert.blocks = static_cast<std::uint32_t>(block_end.size());
  std::vector<double> next;   // Jacobi scratch
  std::vector<double> dense;  // direct-seed scratch
  if (jacobi) next = x;
  double solved_norm = 0.0;  // ||x||_inf over the blocks already final
  std::uint32_t begin = 0;
  bool blocks_converged = true;
  for (const std::uint32_t end : block_end) {
    if (!jacobi && end - begin <= kDirectBlockMax &&
        detail::dominant_block(a, diag, begin, end)) {
      detail::seed_block(a, b, begin, end, x, dense);
    }
    // The block's lines, cut at its boundaries, factored once.
    lines.clear();
    factors.clear();
    std::size_t longest = 0;
    for (std::uint32_t first = begin; !jacobi && first < end;) {
      while (next_line < line_end.size() && line_end[next_line] <= first) {
        ++next_line;
      }
      if (next_line == line_end.size()) break;  // one-row lines from here
      const std::uint32_t last = std::min(line_end[next_line], end);
      if (last - first > 1) {
        const std::size_t offset = factors.size();
        factors.resize(offset + (last - first));
        if (detail::factor_line(a, diag, first, last, &factors[offset])) {
          lines.push_back({first, last, offset});
          longest = std::max<std::size_t>(longest, last - first);
        } else {
          factors.resize(offset);
        }
      }
      first = last;
    }
    // Two zeros on either side stand for the rows outside the line.
    work.assign(longest + 4, 0.0);

    // The block's bound takes ||x|| over the blocks solved so far, so it
    // never exceeds the global bound of the returned x.  With the later
    // blocks still at zero it equals that bound when this block is the
    // one that fails.
    std::uint32_t sweeps = 0;
    bool met = false;
    double block_norm = 0.0;
    while (!met && sweeps < options.max_sweeps) {
      // The sweep's largest change of any x_r, and ||x||_inf of the block.
      double step = 0.0;
      block_norm = 0.0;
      const auto record = [&](std::uint32_t r, double value) {
        // A NaN change sticks (std::max would skip it), so a non-finite
        // value anywhere leaves `step` non-finite.
        const double change = std::abs(value - x[r]);
        step = change > step || std::isnan(change) ? change : step;
        block_norm = std::max(block_norm, std::abs(value));
        (jacobi ? next[r] : x[r]) = value;
      };
      std::size_t line = 0;
      for (std::uint32_t r = begin; r < end;) {
        if (line < lines.size() && lines[line].begin == r) {
          // A line: gather each row's out-of-line terms and eliminate
          // forward (y in work[2 ..]), then substitute back, new values
          // replacing y in place.
          const Line& l = lines[line++];
          const detail::LineRow* f = &factors[l.offset];
          const std::uint32_t size = l.end - l.begin;
          for (std::uint32_t i = 0; i < size; ++i) {
            const std::uint32_t row = l.begin + i;
            double acc = b[row];
            for (std::size_t e = a.row_ptr[row]; e < f[i].lo; ++e) {
              acc -= a.value[e] * x[a.col[e]];
            }
            for (std::size_t e = f[i].hi; e < a.row_ptr[row + 1]; ++e) {
              acc -= a.value[e] * x[a.col[e]];
            }
            work[i + 2] = acc - f[i].l1 * work[i + 1] - f[i].l2 * work[i];
          }
          work[size + 2] = 0.0;
          work[size + 3] = 0.0;
          for (std::uint32_t i = size; i-- > 0;) {
            work[i + 2] = (work[i + 2] - f[i].u2 * work[i + 4] -
                           f[i].u1 * work[i + 3]) *
                          f[i].inv_u0;
            record(l.begin + i, work[i + 2]);
          }
          r = l.end;
          continue;
        }
        // A point update: a plain sum, split around the diagonal entry.
        double acc = b[r];
        for (std::size_t i = a.row_ptr[r]; i < diag[r]; ++i) {
          acc -= a.value[i] * x[a.col[i]];
        }
        for (std::size_t i = diag[r] + 1; i < a.row_ptr[r + 1]; ++i) {
          acc -= a.value[i] * x[a.col[i]];
        }
        record(r, acc / a.value[diag[r]]);
        ++r;
      }
      if (jacobi) x.swap(next);
      ++sweeps;
      // A diverged iterate cannot recover: end the block unconverged.
      if (!std::isfinite(step)) break;
      // ||b - A x|| <= ||A|| * step: check only once that can pass.
      const double block_bound = bound(std::max(solved_norm, block_norm));
      if (norm_a * step <= block_bound || sweeps == options.max_sweeps) {
        met = meets(residual_inf(begin, end), block_bound);
      }
    }
    cert.sweeps = std::max(cert.sweeps, sweeps);
    cert.row_updates += std::uint64_t{sweeps} * (end - begin);
    if (!met) {
      blocks_converged = false;
      break;
    }
    solved_norm = std::max(solved_norm, block_norm);
    begin = end;
  }

  // The certificate proper: the global compensated residual of x.  After
  // a divergence ||x|| is infinite; the bound then takes ||x|| over the
  // blocks certified before it, so an infinite residual never meets an
  // infinite bound.
  cert.residual = residual_inf(0, a.rows);
  const double norm_x = max_abs(0, a.rows);
  cert.residual_bound = bound(std::isfinite(norm_x) ? norm_x : solved_norm);
  cert.converged =
      blocks_converged && meets(cert.residual, cert.residual_bound);
  return cert;
}

}  // namespace ppk::util
