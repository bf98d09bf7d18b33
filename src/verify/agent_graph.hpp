// Exhaustive exploration of the PER-AGENT configuration space.
//
// The count-vector graph (global_fairness.hpp explores it as the lumped
// chain under the trivial group) is the right object under global
// fairness on the complete graph, where agents are interchangeable.
// Two verification questions break that symmetry:
//
//  - WEAK fairness quantifies over agent *pairs* ("every pair interacts
//    infinitely often"), so the adversary's obligations are per-pair and
//    configurations with equal counts but different agent placements are
//    not equivalent.
//  - Arbitrary interaction graphs make agents distinguishable by position:
//    a state on the hub of a star is not a state on a leaf.
//
// This graph therefore keys configurations by the full state *tuple*
// (one state per agent), restricted to an optional topology.  The space is
// |Q|^n, so this is strictly a small-(n, k) ground-truth tool -- the
// count-vector graph's role for the complete-graph/global case, one
// symmetry-reduction rung down.  Tuples are packed into a single 64-bit
// key (n * ceil(log2 |Q|) <= 64, checked), which keeps exploration at
// hash-map speed.
//
// SCCs come from the shared condensation in verify/scc.hpp; bottom SCCs
// decide global fairness on the given topology (verify/weak_fairness.hpp),
// and *maximal* SCCs plus a per-pair closure test decide weak fairness.

#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "pp/interaction_graph.hpp"
#include "pp/protocol.hpp"
#include "pp/transition_table.hpp"
#include "verify/scc.hpp"

namespace ppk::verify {

/// Exploration limits and topology for AgentConfigGraph.  (Namespace scope
/// like global_fairness.hpp's ExploreOptions: a nested struct with default member initializers
/// cannot be a `= {}` default argument inside its own enclosing class.)
struct AgentExploreOptions {
  /// Abort threshold on distinct reachable state tuples.
  std::size_t max_configs = 2'000'000;
  /// Interaction topology; nullptr means the complete graph on n agents.
  /// Both orientations of every edge are schedulable.
  const pp::InteractionGraph* topology = nullptr;
};

/// The reachable per-agent configuration graph of one (protocol, n,
/// topology) instance, with its SCC decomposition.
class AgentConfigGraph {
 public:
  /// Exploration limits and topology (see AgentExploreOptions).
  using Options = AgentExploreOptions;

  /// Explores everything reachable from the all-`initial_state` tuple of
  /// `n` agents.  Requires n * ceil(log2 num_states) <= 64.
  AgentConfigGraph(const pp::Protocol& protocol,
                   const pp::TransitionTable& table, std::uint32_t n,
                   Options options = {});

  /// False iff exploration hit max_configs (results are then partial and
  /// must not be used for verification).
  [[nodiscard]] bool complete() const noexcept { return complete_; }

  /// Number of agents n the graph was explored for.
  [[nodiscard]] std::uint32_t num_agents() const noexcept { return n_; }
  /// Number of distinct reachable state tuples.
  [[nodiscard]] std::size_t num_configs() const noexcept {
    return keys_.size();
  }

  /// The unordered agent pairs the scheduler may fire (topology edges, or
  /// all n(n-1)/2 pairs on the complete graph).
  [[nodiscard]] const std::vector<pp::InteractionGraph::Edge>& pairs()
      const noexcept {
    return pairs_;
  }

  /// State of one agent in one configuration.
  [[nodiscard]] pp::StateId state_of(std::size_t config,
                                     std::uint32_t agent) const {
    return static_cast<pp::StateId>((keys_[config] >> (agent * bits_)) &
                                    mask_);
  }

  /// The full state tuple of a configuration (unpacked copy).
  [[nodiscard]] std::vector<pp::StateId> config(std::size_t index) const;

  /// Index of the configuration reached from `config` by firing agent `i`
  /// as initiator against responder `j`.  The graph is transition-closed,
  /// so the successor always exists; a null interaction returns `config`.
  [[nodiscard]] std::uint32_t apply(std::size_t config, std::uint32_t i,
                                    std::uint32_t j) const;

  /// The SCC condensation (verify/scc.hpp).  Bottom SCCs are where
  /// globally fair executions on this topology are eventually trapped.
  /// Empty unless complete().
  [[nodiscard]] const Condensation& sccs() const noexcept { return sccs_; }

 private:
  void explore(const pp::TransitionTable& table, const Options& options);

  std::uint32_t n_;
  std::uint32_t bits_;      // bits per agent in the packed key
  std::uint64_t mask_;      // (1 << bits_) - 1
  const pp::TransitionTable* table_;
  std::vector<pp::InteractionGraph::Edge> pairs_;
  std::vector<std::uint64_t> keys_;  // packed tuple per config index
  std::unordered_map<std::uint64_t, std::uint32_t> index_;
  std::vector<std::vector<std::uint32_t>> succ_;  // deduped successors
  Condensation sccs_;
  bool complete_ = true;
};

}  // namespace ppk::verify
