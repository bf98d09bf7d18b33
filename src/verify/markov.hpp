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
// Two back ends, selected by MarkovOptions::method:
//
//  * kDense -- the raw reachable configuration graph with dense Gaussian
//    elimination; simple, battle-tested, capped at a few thousand
//    unknowns.
//  * kLumped -- the symmetry-lumped quotient chain with the sparse
//    residual-certified solver (verify/lumped_markov.hpp); reaches an
//    order of magnitude further when a SymmetrySpec is supplied.
//  * kAuto (default) -- lumped when a symmetry is declared in the options,
//    dense otherwise; falls back to dense if the lumped build fails.
//
// Every resource limit is a *recoverable* error: construction is by
// try_create() returning nullopt with a reason (the convenience
// constructor throws std::runtime_error instead), and a query whose
// linear system exceeds the dense cap throws rather than aborting the
// process -- a too-large analysis request must never take down a server
// that embeds this module.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "pp/protocol.hpp"
#include "pp/transition_table.hpp"
#include "verify/config_graph.hpp"
#include "verify/lumped_markov.hpp"

namespace ppk::verify {

/// Back-end selection for MarkovAnalysis.
enum class MarkovMethod : std::uint8_t {
  kAuto,    // lumped when MarkovOptions::symmetry is set, else dense
  kDense,   // raw configuration chain + dense elimination
  kLumped,  // orbit-quotient chain + sparse solver (requires symmetry)
};

/// Construction options for MarkovAnalysis.
struct MarkovOptions {
  /// Back end (see MarkovMethod).
  MarkovMethod method = MarkovMethod::kAuto;
  /// Exploration limits for the dense back end.
  ExploreOptions explore = {};
  /// The protocol's declared symmetry (pp::Protocol::symmetry()); enables
  /// the lumped back end.  A trivial spec still routes kAuto/kLumped
  /// through the sparse solver -- only an absent one forces dense.
  std::optional<pp::SymmetrySpec> symmetry;
  /// Limits and solver configuration for the lumped back end.
  LumpedOptions lumped = {};
};

class MarkovAnalysis {
 public:
  /// Builds the chain reachable from `initial` under `table`.  Returns
  /// nullopt -- with a one-line reason in `*why` when non-null -- if
  /// exploration exceeds the configured limits or the requested back end
  /// cannot be built.  Never aborts the process.
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
  /// absorbed elsewhere).  Throws std::runtime_error if the linear system
  /// exceeds the dense back end's cap or a sparse solve fails to certify.
  /// When `certificate` is non-null it receives the lumped back end's
  /// solve certificate (LumpedMarkovAnalysis::expected_hitting_time); the
  /// dense back end, which eliminates instead of sweeping, reports a
  /// converged certificate with zero counts.
  [[nodiscard]] std::optional<double> expected_hitting_time(
      const ConfigPredicate& target,
      util::SolveCertificate* certificate = nullptr) const;

  /// One bottom SCC of the chain and the probability of being absorbed
  /// into it.
  struct Absorption {
    /// SCC id (reverse topological order, per back end).
    std::uint32_t scc;
    /// A representative configuration of the SCC (the canonical orbit
    /// representative under the lumped back end).
    pp::Counts representative;
    /// Probability of ending in this SCC; probabilities sum to 1.
    double probability;
  };

  /// Probability, starting from the initial configuration, of eventually
  /// being absorbed in each bottom SCC.  A lone bottom SCC gets exactly
  /// 1.0 without a solve; otherwise throws std::runtime_error under the
  /// same conditions as expected_hitting_time().  `certificate` as there
  /// (LumpedMarkovAnalysis::absorption_probabilities).
  [[nodiscard]] std::vector<Absorption> absorption_probabilities(
      util::SolveCertificate* certificate = nullptr) const;

  /// The back end actually built (kDense or kLumped, never kAuto).
  [[nodiscard]] MarkovMethod method() const noexcept { return method_; }

  /// Stable name of the built back end: "dense" or "lumped".  Used to tag
  /// cached exact results so answers from different solvers are never
  /// conflated.
  [[nodiscard]] const char* method_name() const noexcept {
    return method_ == MarkovMethod::kLumped ? "lumped" : "dense";
  }

  /// Number of raw reachable configurations covered by the analysis (the
  /// sum of orbit sizes under the lumped back end).
  [[nodiscard]] std::uint64_t reachable_configs() const noexcept;

  /// True iff the dense back end was built (graph() is then available).
  [[nodiscard]] bool has_graph() const noexcept { return graph_.has_value(); }

  /// The raw configuration graph; dense back end only.
  [[nodiscard]] const ConfigGraph& graph() const;

  /// The orbit-quotient analysis; lumped back end only (see has_graph()).
  [[nodiscard]] const LumpedMarkovAnalysis& lumped() const;

  /// Population size n (derived from the initial configuration).
  [[nodiscard]] std::uint64_t population_size() const noexcept { return n_; }

 private:
  MarkovAnalysis() = default;

  std::optional<ConfigGraph> graph_;
  std::optional<LumpedMarkovAnalysis> lumped_;
  MarkovMethod method_ = MarkovMethod::kDense;
  std::uint64_t n_ = 0;
};

}  // namespace ppk::verify
