// Symmetry-lumped exact Markov-chain analysis under the uniform-random
// scheduler.
//
// This is the one exact solver; verify/markov.hpp is its front.  The raw
// chain lives on count-vector configurations.  When the protocol declares
// a state-permutation symmetry group (SymmetrySpec, machine-checked by
// pp::check_symmetry), the group's action on count vectors commutes with
// the scheduler, so the orbit partition of the configuration space is
// *strongly lumpable* (Kemeny-Snell): the process watched on orbits is
// itself a Markov chain, and every orbit-invariant quantity -- hitting
// times of symmetric target sets, absorption probabilities, the full
// hitting-time distribution -- is preserved
// exactly.  This module explores only canonical orbit representatives
// (lex-min over group images), accumulates transition rates as exact
// integer numerators over the common denominator n*(n-1), and certifies
// lumpability programmatically: every group image's row must equal the
// representative's integer for integer, not a trust-the-declaration
// shortcut.  Exploration evaluates one successor per net move class: the
// table's effective ordered pairs are grouped by the net count change
// they cause, all pairs of a class lead to the same successor, and a
// row visits each class once with the class's summed rate.  Rows are
// sorted and merged by target and unseen targets numbered by their
// counts, so this changes no row.  Nothing is allocated per transition:
// successors are canonicalized in reused buffers and looked up in an
// open-addressing index keyed by the stored representatives.
//
// Storage is sized for the ceiling, where memory runs out before time
// does.  Representatives sit in one flat array, |Q| counts per orbit; a
// row entry is 8 bytes, a uint32 target and a uint32 numerator, which
// holds because n(n-1) < 2^32 for n <= 65,536; rows are found by uint32
// offsets.  Null numerators are not stored but derived from the row
// (denom - the row's sum), orbit sizes are 16 bits wide and not stored at
// all for the trivial group, the orbit index is freed before the SCC
// condensation, and every stored array is trimmed to its size once
// exploration ends.  At k = 3 (|Q| = 7, 7.2 to 8.4 entries per row) that
// is 98 to 107 bytes per orbit for n = 36 to 120, condensation included;
// storage_bytes() reports it.
//
// The resulting linear systems go to the residual-certified sparse
// Gauss-Seidel of util/csr.hpp instead of dense elimination, assembled
// row by row in the order of the orbit graph's SCCs (verify/scc.hpp):
// SCCs downstream first, so the solve goes block by block, and orbits
// downstream-first inside each SCC, so each update reads fresh successor
// values.  The sweep is a plain sum -- every term is non-negative -- and
// the certificate a compensated residual.
//
// Inside an SCC the unknowns are grouped into lines, which the solver
// solves exactly in each sweep (line Gauss-Seidel).  try_build derives
// merge classes from the table: the states joined by the transfers of an
// effective pair whose every transfer a -> b joins two states with
// identical effectiveness rows and columns.  Such a pair changes no pair
// weight; in k-partition these are the free flips initial <-> initial'
// (rules 1-4), which carry about two thirds of the jump chain's
// off-diagonal mass and tie a configuration to up to n + 1 others.  A
// line is the set of an SCC's unknowns whose representatives agree once
// each merge class is summed, ordered by the count of its first class's
// first state; a flip moves that count by at most 2, so a row's in-line
// entries lie within two columns of its diagonal.  Point Gauss-Seidel
// needs about 6.7 n sweeps on the largest k = 3 block, because it relaxes
// a line one row at a time; the line sweep needs a few dozen.
//
// The win is twofold: the orbit quotient shrinks the state space by up to
// the group order, and the sparse solver removes the few-thousand-unknown
// ceiling of dense elimination -- together they push exact analysis an
// order of magnitude past where dense elimination over the raw chain gives
// up (bench/exact_vs_monte_carlo measures the ceilings against the tests'
// dense reference).  Under the trivial group (no symmetry declared) every
// orbit is one configuration and this solves the raw chain itself.

#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "pp/population.hpp"
#include "pp/protocol.hpp"
#include "pp/transition_table.hpp"
#include "util/csr.hpp"
#include "verify/scc.hpp"

namespace ppk::verify {

/// Predicate selecting target (absorbing) configurations.
using ConfigPredicate = std::function<bool(const pp::Counts&)>;

/// Limits and solver configuration for the lumped analysis.
struct LumpedOptions {
  /// Exploration aborts (recoverably: try_build returns nullopt) past this
  /// many orbits.
  std::size_t max_orbits = 5'000'000;
  /// Cap on the expanded symmetry-group order (guards bogus specs; the
  /// groups this repo declares have order <= 4).  Orbit sizes are stored
  /// in 16 bits, so try_build refuses a cap above 65,535.
  std::size_t max_group_order = 4096;
  /// Run the exact integer rate-sum lumpability certificate per orbit.
  /// Default on; the check is O(group order) per orbit and is the module's
  /// defence against a declared symmetry that is not one.
  bool check_lumpability = true;
  /// Sparse-solver configuration (tolerance, sweep cap, method).
  util::SolveOptions solver = {};
};

/// Exact analysis of the orbit-quotient chain.  Construct via try_build();
/// all failure modes of construction (bad spec, group blow-up, orbit-count
/// blow-up, lumpability violation) are recoverable and reported through the
/// `why` out-parameter rather than aborting the process.
class LumpedMarkovAnalysis {
 public:
  /// A stored rate: (target orbit, numerator over n*(n-1)).
  using Rate = std::pair<std::uint32_t, std::uint32_t>;

  /// Builds the lumped chain reachable from `initial`.  Returns nullopt --
  /// with a one-line reason in `*why` when non-null -- if n(n-1) does not
  /// fit the 32-bit numerators (n > 65,536), max_group_order exceeds the
  /// 16-bit orbit sizes, the spec fails pp::check_symmetry, the group
  /// exceeds max_group_order, exploration exceeds max_orbits, or the exact
  /// rate-sum lumpability check fails.
  [[nodiscard]] static std::optional<LumpedMarkovAnalysis> try_build(
      const pp::TransitionTable& table, const pp::SymmetrySpec& symmetry,
      const pp::Counts& initial, LumpedOptions options = {},
      std::string* why = nullptr);

  /// Number of orbits explored (orbit 0 is the initial configuration's).
  [[nodiscard]] std::size_t num_orbits() const noexcept {
    return rate_begin_.size() - 1;
  }

  /// Canonical (lex-min) representative configuration of an orbit: its
  /// slice of the flat representative array.
  [[nodiscard]] std::span<const std::uint32_t> representative(
      std::size_t orbit) const {
    return std::span(reps_).subspan(orbit * num_states_, num_states_);
  }

  /// Number of raw configurations in an orbit (1 .. group order).
  [[nodiscard]] std::uint64_t orbit_size(std::size_t orbit) const {
    return sizes_.empty() ? 1 : sizes_[orbit];
  }

  /// Total raw configurations covered: the sum of orbit sizes.  This is
  /// the number the raw chain would have had to explore and is the basis
  /// for ceiling comparisons against dense elimination.
  [[nodiscard]] std::uint64_t raw_config_count() const noexcept {
    return raw_config_count_;
  }

  /// Order of the expanded symmetry group (1 = trivial).
  [[nodiscard]] std::size_t group_order() const noexcept {
    return group_.size();
  }

  /// Population size n (derived from the initial configuration).
  [[nodiscard]] std::uint64_t population_size() const noexcept { return n_; }

  /// Exact out-rates of one orbit: (target orbit, numerator over n*(n-1))
  /// pairs sorted by target.  May include the orbit itself (an effective
  /// transition to another member of the same orbit, or an effective swap).
  [[nodiscard]] std::span<const Rate> rates(std::size_t orbit) const {
    return std::span(rates_).subspan(rate_begin_[orbit],
                                     rate_begin_[orbit + 1] - rate_begin_[orbit]);
  }

  /// The SCC condensation of the orbit graph (verify/scc.hpp).  Under the
  /// trivial group its bottom SCCs are those of the configuration graph.
  [[nodiscard]] const Condensation& sccs() const noexcept { return sccs_; }

  /// Null-interaction numerator of an orbit over n*(n-1): the ordered
  /// pairs present in its representative that change no agent, derived as
  /// denom minus the row's sum.
  [[nodiscard]] std::uint64_t null_numerator(std::size_t orbit) const;

  /// Bytes held by the stored arrays (their summed capacities): the
  /// representatives, rows, row offsets, orbit sizes, group elements and
  /// the SCC condensation.  Solves allocate their systems on top of this.
  [[nodiscard]] std::size_t storage_bytes() const noexcept;

  /// The merge classes of the table's states with two or more members,
  /// each ascending, ordered by their first state: see the file comment.
  /// Unknowns whose representatives agree once each class is summed form
  /// one line of the solve.
  [[nodiscard]] std::vector<std::vector<pp::StateId>> merge_classes() const;

  /// Exact expected number of interactions (including nulls) from the
  /// initial configuration until `target` is entered; same contract as
  /// MarkovAnalysis::expected_hitting_time (nullopt when the target is not
  /// reached with probability 1).  The predicate must be constant on each
  /// orbit -- this is verified against every group image and violation
  /// throws std::invalid_argument.  Throws std::runtime_error if the
  /// sparse solve fails to certify convergence.  When `certificate` is
  /// non-null it receives the solve's certificate (converged, with zero
  /// counts, when the answer needs no solve).
  [[nodiscard]] std::optional<double> expected_hitting_time(
      const ConfigPredicate& target,
      util::SolveCertificate* certificate = nullptr) const;

  /// Probability of eventual absorption in one bottom SCC of the orbit
  /// graph, keyed by the canonical representative of one of its orbits.
  struct Absorption {
    /// Orbit-graph SCC id (reverse topological order).
    std::uint32_t scc;
    /// Canonical representative configuration of the SCC's first orbit.
    pp::Counts representative;
    /// Probability of ending in this SCC; probabilities sum to 1.
    double probability;
  };

  /// Exact absorption probabilities from the initial configuration; same
  /// contract as MarkovAnalysis::absorption_probabilities (a lone bottom
  /// SCC gets exactly 1.0, with no solve).  Throws std::runtime_error if a
  /// sparse solve fails to certify convergence.  When `certificate` is
  /// non-null it receives the solves' certificates combined: converged iff
  /// all did, the largest sweeps and blocks, row updates summed, and the
  /// residual and bound of the last solve (converged, with zero counts,
  /// when no solve is needed).
  [[nodiscard]] std::vector<Absorption> absorption_probabilities(
      util::SolveCertificate* certificate = nullptr) const;

  /// Exact distribution of the hitting time of `target`: returns F with
  /// F[t] = P(target entered within the first t interactions), for
  /// t = 0..horizon (F[0] is 1 iff the initial configuration is a target).
  /// Computed by stepping the full lumped chain (self-loops included) with
  /// targets made absorbing; the predicate must be orbit-invariant
  /// (std::invalid_argument otherwise).  This is what the
  /// exact-distribution conformance net KS-tests engines against.
  [[nodiscard]] std::vector<double> hitting_time_cdf(
      const ConfigPredicate& target, std::size_t horizon) const;

 private:
  /// A jump-chain linear system over some of the orbits: see jump_system().
  struct JumpSystem {
    /// Unknown r is orbit `orbits[r]`.
    std::vector<std::uint32_t> orbits;
    /// Leave rate of each unknown: denom_ minus its self-loop numerator,
    /// below 2^32 like every numerator.
    std::vector<std::uint32_t> leave;
    /// The unknown of orbit 0, which holds the initial configuration.
    std::uint32_t initial = 0;
    /// I - Q, Q the jump chain restricted to the unknowns.
    util::CsrMatrix a;
    /// Where each line of unknowns ends (util::solve_sparse's line_end).
    std::vector<std::uint32_t> line_end;
  };

  LumpedMarkovAnalysis() = default;

  /// Evaluates `target` on every group image of each representative,
  /// throwing std::invalid_argument on an orbit-inconsistent predicate.
  [[nodiscard]] std::vector<char> target_orbits(
      const ConfigPredicate& target) const;

  /// Total self-loop numerator of an orbit (nulls + within-orbit rates):
  /// denom_ minus the row's off-orbit entries, in one pass.
  [[nodiscard]] std::uint64_t self_numerator(std::size_t orbit) const;

  /// The embedded jump chain's system (I - Q) x = b over every orbit not
  /// `excluded`, with Q's transitions into excluded orbits dropped.
  /// Unknowns follow the SCC condensation: ascending SCC id (downstream
  /// SCCs first, so I - Q is block-lower-triangular) and, inside an SCC,
  /// line by line.  Lines come in the order of their first member in
  /// descending orbit id, which the breadth-first numbering makes roughly
  /// downstream-first too, so a Gauss-Seidel update mostly reads values
  /// already refreshed in the same sweep; inside a line, members ascend
  /// by the count of the first merge class's first state.  Without merge
  /// classes every line is one orbit, in descending orbit id.
  [[nodiscard]] JumpSystem jump_system(const std::vector<char>& excluded) const;

  /// Reorders the unknowns of `sys.orbits`, given in descending orbit id
  /// within each SCC, line by line, and fills `sys.line_end`.
  void order_lines(JumpSystem& sys) const;

  std::uint64_t n_ = 0;
  std::uint64_t denom_ = 0;  // n * (n - 1), the common rate denominator
  std::size_t num_states_ = 0;  // |Q|, the stride of reps_
  std::vector<std::vector<pp::StateId>> group_;
  /// Each state's merge class, named by its smallest state.
  std::vector<pp::StateId> merge_;
  /// Orbit u's representative is reps_[u * |Q| .. (u + 1) * |Q|).
  std::vector<std::uint32_t> reps_;
  /// Orbit sizes; empty for the trivial group, where every size is 1.
  std::vector<std::uint16_t> sizes_;
  /// Orbit u's rates are rates_[rate_begin_[u] .. rate_begin_[u + 1]).
  std::vector<Rate> rates_;
  std::vector<std::uint32_t> rate_begin_ = {0};
  Condensation sccs_;  // of the orbit graph (verify/scc.hpp)
  std::uint64_t raw_config_count_ = 0;
  util::SolveOptions solver_;
};

}  // namespace ppk::verify
