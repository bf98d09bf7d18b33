// Decision procedure for protocol correctness under global fairness.
//
// Theory (why bottom SCCs are the right object):  Let InfSet be the set of
// configurations occurring infinitely often in a globally fair execution.
// Global fairness makes InfSet closed under the step relation, and any two
// of its members are mutually reachable (the execution itself provides the
// paths), so InfSet is exactly one bottom SCC of the reachable configuration
// graph.  Conversely, every bottom SCC supports a globally fair execution
// that round-robins through all of its configurations.  Hence:
//
//   P solves a stabilization problem from initial configuration C0 under
//   global fairness  <=>  every bottom SCC reachable from C0 is "good".
//
// For the uniform k-partition problem, "good" means (Section 2.2 of the
// paper): (i) no transition enabled anywhere in the SCC changes either
// participant's output group -- so each agent's group membership is fixed
// forever, which is the per-agent stability condition expressed at count
// level -- and (ii) the group sizes differ pairwise by at most one.
//
// The same skeleton verifies any eventually-output-stable property: pass a
// predicate over the (constant) output of the bottom SCC.
//
// The graph, over count vectors, is explored by the exact Markov analysis:
// LumpedMarkovAnalysis under the trivial group, whose orbits are single
// configurations, so its condensation holds the bottom SCCs above.  It
// stores rates, not rules: test (i) enumerates each bottom-SCC
// configuration's enabled ordered pairs against the table.  Memory, about
// 100 bytes per configuration at k = 3, bounds the reach.

#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "pp/protocol.hpp"
#include "pp/transition_table.hpp"
#include "verify/lumped_markov.hpp"

namespace ppk::verify {

/// Exploration limits.
struct ExploreOptions {
  std::size_t max_configs = 5'000'000;
};

struct Verdict {
  bool solves = false;
  bool exploration_complete = true;
  /// From the global-fairness verifier below: the graph's size, 0 when
  /// exploration did not complete; bottom_sccs counts every bottom SCC,
  /// also when a failing one ends the check.  The weak-fairness verifier
  /// fills these its own way (weak_fairness.hpp).
  std::size_t reachable_configs = 0;
  std::size_t num_sccs = 0;
  std::size_t bottom_sccs = 0;
  /// Empty when solves; otherwise a description of the failing bottom SCC
  /// with a witness configuration.
  std::string failure;
};

/// Predicate judging the stabilized output of a bottom SCC: receives one
/// configuration of the SCC (outputs are constant across it once
/// preservation holds) and its group-size vector.
using OutputPredicate = std::function<bool(
    const pp::Counts& config, const std::vector<std::uint32_t>& group_sizes)>;

/// The graph reachable from `initial` (n >= 2): the lumped chain under the
/// trivial group, orbit u the configuration representative(u).  Nullopt,
/// with the reason in `*why`, past `options.max_configs` or a limit of
/// LumpedMarkovAnalysis::try_build.
[[nodiscard]] std::optional<LumpedMarkovAnalysis> explore_configurations(
    const pp::TransitionTable& table, const pp::Counts& initial,
    ExploreOptions options = {}, std::string* why = nullptr);

/// Generic check: every bottom SCC is output-preserving and its stabilized
/// output satisfies `good_output`.  A population of at most one agent is
/// its own single bottom SCC, with no pair enabled.
Verdict verify_stabilization(const pp::Protocol& protocol,
                             const pp::TransitionTable& table,
                             const pp::Counts& initial,
                             const OutputPredicate& good_output,
                             ExploreOptions options = {});

/// The same check on a graph already built by explore_configurations().
Verdict verify_stabilization(const pp::Protocol& protocol,
                             const pp::TransitionTable& table,
                             const LumpedMarkovAnalysis& graph,
                             const OutputPredicate& good_output);

/// The paper's Theorem 1 statement for one (n, k): starting from n agents in
/// the designated initial state, every globally fair execution stabilizes to
/// a uniform k-partition.
Verdict verify_uniform_partition(const pp::Protocol& protocol,
                                 const pp::TransitionTable& table,
                                 std::uint32_t n, ExploreOptions options = {});

/// The same property on a graph already built by explore_configurations().
Verdict verify_uniform_partition(const pp::Protocol& protocol,
                                 const pp::TransitionTable& table,
                                 const LumpedMarkovAnalysis& graph);

/// Same property from an arbitrary initial configuration -- used to probe
/// the designated-initial-states assumption (the protocol is not
/// self-stabilizing, so this fails for adversarial starts).
Verdict verify_uniform_partition_from(const pp::Protocol& protocol,
                                      const pp::TransitionTable& table,
                                      const pp::Counts& initial,
                                      ExploreOptions options = {});

/// Runs `check` on every reachable configuration (for exhaustive invariant
/// verification, e.g. the paper's Lemma 1), in exploration order.  Returns
/// the number of configurations visited; `check` should gtest-assert
/// internally or record failures.  Exploration must complete.
std::size_t for_each_reachable(const pp::TransitionTable& table,
                               const pp::Counts& initial,
                               const std::function<void(const pp::Counts&)>& check,
                               ExploreOptions options = {});

}  // namespace ppk::verify
