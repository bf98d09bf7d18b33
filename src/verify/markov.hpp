// Exact Markov-chain analysis of a protocol under the uniform-random
// scheduler.
//
// The uniform-random scheduler turns the configuration space into a finite
// Markov chain: from configuration C, the ordered state pair (p, q) is
// drawn with probability c[p] * (c[q] - [p==q]) / (n * (n-1)); null
// interactions are self-loops.  This module computes, exactly:
//
//  * expected_hitting_time(): the exact expected number of interactions
//    (including nulls) from the initial configuration until a target set
//    is first entered.  With the Lemma 6 stable pattern as the target this
//    is the *analytic* version of the paper's Section 5 measurements, and
//    the test suite checks that the Monte-Carlo estimates converge to it.
//
//  * absorption_probabilities(): the probability of ending in each bottom
//    SCC.  For the paper's protocol every fair execution reaches the
//    stable pattern (probability 1); for the basic strategy this yields
//    the exact wedge probability that the ablation bench estimates
//    empirically.
//
// One solver does the work: MarkovAnalysis is a thin front over the
// symmetry-lumped quotient chain and its residual-certified sparse solver
// (verify/lumped_markov.hpp).  The chain is quotiented by the declared
// symmetry (MarkovOptions::symmetry, normally pp::Protocol::symmetry()) or,
// when none is declared, by the trivial group, which leaves every orbit a
// single configuration, so the solve runs on the raw chain.  Even then it
// beats dense elimination over the raw graph by one to two orders of
// magnitude in time (docs/exact.md, "Back-end selection") and has no
// few-thousand-unknown ceiling, so the library has no dense path.  The
// tests keep dense elimination as their independent oracle
// (tests/dense_markov_reference.hpp).
//
// Every resource limit is a *recoverable* error: construction is by
// try_create() returning nullopt with the lumped build's reason (the
// convenience constructor throws std::runtime_error instead), and a query
// whose sparse solve fails to certify throws rather than aborting the
// process -- a too-large analysis request must never take down a server
// that embeds this module.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "pp/protocol.hpp"
#include "pp/transition_table.hpp"
#include "verify/config_graph.hpp"
#include "verify/lumped_markov.hpp"

namespace ppk::verify {

/// Which symmetry MarkovAnalysis quotients by.  Kept only because
/// perfbench's exact_ceiling check still names kDense; it goes once that
/// check stops setting it (ROADMAP item 1).
enum class MarkovMethod : std::uint8_t {
  kAuto,   // MarkovOptions::symmetry, or the trivial group when unset
  kDense,  // the trivial group whatever is declared: the unlumped chain
};

/// Construction options for MarkovAnalysis.
struct MarkovOptions {
  /// See MarkovMethod.
  MarkovMethod method = MarkovMethod::kAuto;
  /// Read by nothing.  Kept only because perfbench's exact_ceiling
  /// workload still sets it; it goes with MarkovMethod (ROADMAP item 1).
  /// The orbit cap is `lumped.max_orbits`.
  ExploreOptions explore = {};
  /// The protocol's declared symmetry (pp::Protocol::symmetry()); the
  /// chain is quotiented by it.  Unset means the trivial group.
  std::optional<pp::SymmetrySpec> symmetry;
  /// Limits and solver configuration of the lumped chain.
  LumpedOptions lumped = {};
};

class MarkovAnalysis {
 public:
  using Absorption = LumpedMarkovAnalysis::Absorption;

  /// Builds the chain reachable from `initial` under `table`.  Returns
  /// nullopt -- with the lumped build's one-line reason in `*why` when
  /// non-null -- if the build fails (a limit of `options.lumped` exceeded,
  /// or a declared symmetry that is not one; see
  /// LumpedMarkovAnalysis::try_build).  Never aborts the process.
  [[nodiscard]] static std::optional<MarkovAnalysis> try_create(
      const pp::TransitionTable& table, const pp::Counts& initial,
      MarkovOptions options = {}, std::string* why = nullptr);

  /// Convenience constructor: as try_create(), but throws
  /// std::runtime_error with the reason on failure.
  MarkovAnalysis(const pp::TransitionTable& table, const pp::Counts& initial,
                 MarkovOptions options = {});

  /// Exact expected number of interactions from the initial configuration
  /// until a configuration satisfying `target` is entered (0 if the
  /// initial configuration already satisfies it).  Returns nullopt if the
  /// target is not reached with probability 1 (some execution can get
  /// absorbed elsewhere).  `target` must be constant on each orbit of the
  /// symmetry (std::invalid_argument otherwise), and a sparse solve that
  /// fails to certify throws std::runtime_error.  When `certificate` is
  /// non-null it receives the solve's certificate
  /// (LumpedMarkovAnalysis::expected_hitting_time).
  [[nodiscard]] std::optional<double> expected_hitting_time(
      const ConfigPredicate& target,
      util::SolveCertificate* certificate = nullptr) const {
    return lumped_.expected_hitting_time(target, certificate);
  }

  /// Probability, starting from the initial configuration, of eventually
  /// being absorbed in each bottom SCC of the orbit graph, each keyed by
  /// a canonical orbit representative.  A lone bottom SCC gets exactly
  /// 1.0 without a solve; otherwise throws std::runtime_error if a solve
  /// fails to certify.  `certificate` as there
  /// (LumpedMarkovAnalysis::absorption_probabilities).
  [[nodiscard]] std::vector<Absorption> absorption_probabilities(
      util::SolveCertificate* certificate = nullptr) const {
    return lumped_.absorption_probabilities(certificate);
  }

  /// Stable name of the solver: always "lumped".  Tags cached exact
  /// results, so answers from different solvers are never conflated.
  [[nodiscard]] static const char* method_name() noexcept { return "lumped"; }

  /// Number of raw reachable configurations covered by the analysis: the
  /// sum of orbit sizes.
  [[nodiscard]] std::uint64_t reachable_configs() const noexcept {
    return lumped_.raw_config_count();
  }

  /// The orbit-quotient analysis.
  [[nodiscard]] const LumpedMarkovAnalysis& lumped() const noexcept {
    return lumped_;
  }

  /// Population size n (derived from the initial configuration).
  [[nodiscard]] std::uint64_t population_size() const noexcept {
    return lumped_.population_size();
  }

 private:
  explicit MarkovAnalysis(LumpedMarkovAnalysis lumped)
      : lumped_(std::move(lumped)) {}

  LumpedMarkovAnalysis lumped_;
};

}  // namespace ppk::verify
