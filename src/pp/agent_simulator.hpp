// The agent-array engine: the literal model of Section 5 of the paper.
// Each step draws an ordered pair of distinct agents and applies delta.
// Every draw -- including null interactions, where the rule leaves both
// agents unchanged -- counts as one interaction, matching the paper's
// measurement "total number of interactions until a population reaches a
// stable configuration".
//
// The engine keeps one per-agent array, one apply step and one snapshot
// format; only the pair draw differs between schedulers.  The draw rule is
// fixed at construction, one constructor per rule:
//
//  - Complete graph (table, population, seed): an ordered pair of distinct
//    agents uniformly at random -- the paper's scheduler.
//
//  - Topology (table, InteractionGraph, population, seed): an edge
//    uniformly at random, then a uniform orientation (initiator /
//    responder).  On the complete graph this is the same distribution; on
//    sparse graphs it models spatially constrained populations (sensors
//    that only meet their neighbours).  Oracles hear effective
//    interactions only, so a wedged configuration -- every *adjacent* pair
//    null while non-adjacent effective pairs remain -- produces no oracle
//    callbacks, and this rule draws null edges until the budget runs out.
//    GraphJumpSimulator (pp/graph_jump_simulator.hpp) detects the wedge
//    exactly (zero live directed edges); prefer it for wedge-prone sweeps,
//    and this rule when per-drawn-pair observability (on_step) matters
//    more.  docs/topologies.md discusses the phenomenology.
//
//  - Fairness (protocol, table, population, FairnessSpec, seed, topology):
//    the adversarial schedulers of pp/fairness.hpp, optionally restricted
//    to the edges of a topology (both orientations).
//     - kEpsilonFair: with probability 1 - epsilon the scheduler probes up
//       to kProbes candidate pairs and takes the first that makes *no
//       group-output progress* (a null interaction or a pure free-agent
//       flip); with probability epsilon (or when every probe progresses)
//       it keeps a uniform pair.  Every ordered pair keeps at least
//       epsilon / (n(n-1)) probability in every configuration, so an
//       infinite execution is globally fair with probability 1 -- the
//       protocol still stabilizes, just slower (bench/fairness_stress).
//       kUniformRandom is this rule with epsilon = 1.
//     - kWeakRoundRobin: each round schedules every ordered pair exactly
//       once, in an adversarial order (non-progressing pairs are probed
//       first).  Weakly fair by construction and NOT globally fair:
//       protocols that need global fairness livelock or mis-stabilize
//       under it (run them with a bounded budget), while
//       core::WeakKPartitionProtocol stabilizes.  The round costs one
//       32-bit index per ordered pair, so the policy is for the
//       small/medium n where weak-fairness questions live.
//
// Snapshots are tagged by rule ("agent", "graph", "adversarial"), so a
// snapshot restores only into an engine built with the same rule.

#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "pp/engine_loop.hpp"
#include "pp/fairness.hpp"
#include "pp/interaction_graph.hpp"
#include "pp/population.hpp"
#include "pp/protocol.hpp"
#include "pp/sim_result.hpp"
#include "pp/snapshot.hpp"
#include "pp/stability.hpp"
#include "pp/transition_table.hpp"
#include "util/rng.hpp"

namespace ppk::obs {
class ObsSink;
}  // namespace ppk::obs

namespace ppk::pp {

/// The agent-array engine under one of three draw rules (see the file
/// comment), fixed by the constructor.
class AgentSimulator : public EngineLoop<AgentSimulator> {
 public:
  /// Complete-graph draw: a uniform ordered pair of distinct agents.
  AgentSimulator(const TransitionTable& table, Population population,
                 std::uint64_t seed);

  /// Topology draw: a uniform edge of `graph`, then a uniform orientation.
  AgentSimulator(const TransitionTable& table, const InteractionGraph& graph,
                 Population population, std::uint64_t seed);

  /// Fairness draw: `fairness`'s scheduler over the complete graph, or
  /// over `topology`'s edges when non-null (copied; it need not outlive
  /// the engine).  `protocol` supplies the group map the adversary probes
  /// against and must outlive the engine.
  AgentSimulator(const Protocol& protocol, const TransitionTable& table,
                 Population population, FairnessSpec fairness,
                 std::uint64_t seed,
                 const InteractionGraph* topology = nullptr);

  /// Observer invoked after every *effective* interaction.  Null
  /// interactions are invisible to observers (they change nothing).
  void set_observer(std::function<void(const SimEvent&)> observer) {
    observer_ = std::move(observer);
  }

  /// Records, into `marks`, the interaction index of every increase of
  /// `state`'s count (one entry per unit of increase).  Pass nullptr to
  /// stop recording.
  void set_watch(StateId state, std::vector<std::uint64_t>* marks) {
    PPK_EXPECTS(marks == nullptr || state < table_->num_states());
    watch_state_ = state;
    watch_marks_ = marks;
  }

  /// Attaches an observability sink (obs/sink.hpp); nullptr detaches.  The
  /// sink is notified after every drawn interaction (null or effective)
  /// and must outlive the simulator.  Totals count from attachment.
  void set_obs_sink(obs::ObsSink* sink) noexcept { obs_ = sink; }

  /// Draws one pair and applies the rule.  Returns true iff effective.
  bool step(StabilityOracle& oracle) { return advance(oracle, 1).notified; }

  /// Draws pairs for the shared run()/resume() loop (pp/engine_loop.hpp)
  /// up to and including the first effective one, at most `budget`.  The
  /// loop asks the oracle only after an effective draw, so stopping there
  /// is the same run as one draw per advance.  This engine does not detect
  /// silence, so it always draws.
  Advance advance(StabilityOracle& oracle, std::uint64_t budget);

  /// Applies an explicit interaction schedule (pairs of agent indices);
  /// used for trace replay and engine cross-validation.  Returns the number
  /// of effective interactions.
  std::uint64_t replay(
      const std::vector<std::pair<std::uint32_t, std::uint32_t>>& schedule);

  /// Serializable mid-run state: per-agent states, RNG position,
  /// interaction counters and, under kWeakRoundRobin, the unscheduled
  /// remainder of the current round (contract in pp/snapshot.hpp).  The
  /// draw rule, topology and fairness spec are constructor arguments, not
  /// dynamic state, so they are not serialized.
  [[nodiscard]] Snapshot snapshot() const;

  /// Restores a snapshot() taken from an engine constructed with the same
  /// arguments; resuming afterwards is bit-identical to the snapshotted
  /// engine under the same resume() grants.
  void restore(const Snapshot& snap);

  /// Current per-agent configuration.
  [[nodiscard]] const Population& population() const noexcept {
    return population_;
  }

  /// Current state counts (what run() resets the oracle from).
  [[nodiscard]] const Counts& counts() const noexcept {
    return population_.counts();
  }

 private:
  enum class DrawRule : std::uint8_t {
    kComplete,
    kEdge,
    kEpsilonFair,
    kWeakRoundRobin,
  };
  static constexpr int kProbes = 16;

  /// Counts the draw of (i, j) and applies delta; true iff effective.
  bool apply_pair(std::uint32_t i, std::uint32_t j, StabilityOracle* oracle);
  /// The effective tail of apply_pair(), after the draw was counted.
  void apply_effective(std::uint32_t i, std::uint32_t j, StateId p, StateId q,
                       StabilityOracle* oracle);

  /// An ordered pair of agents: (initiator, responder).
  using Pair = std::pair<std::uint32_t, std::uint32_t>;

  /// Draws pairs with `draw` up to the first effective one, at most
  /// `budget` (advance() of the complete-graph and topology rules).
  template <typename Draw>
  Advance draw_run(StabilityOracle& oracle, std::uint64_t budget, Draw draw);

  /// A uniform ordered pair of distinct agents out of n.
  static Pair uniform_pair(Xoshiro256& rng, std::uint32_t n) {
    const auto i = static_cast<std::uint32_t>(rng.below(n));
    auto j = static_cast<std::uint32_t>(rng.below(n - 1));
    if (j >= i) ++j;
    return {i, j};
  }

  /// The kEpsilonFair and kWeakRoundRobin draws.
  Pair draw_adversarial();
  /// An adversary's candidate pair: uniform over its ordered pairs.
  Pair draw_candidate();
  Pair draw_weak_round_robin();
  [[nodiscard]] std::uint64_t num_ordered_pairs() const noexcept;
  [[nodiscard]] Pair decode_pair(std::uint32_t e) const;
  [[nodiscard]] bool progresses(const Pair& pair) const;
  [[nodiscard]] const char* snapshot_tag() const noexcept;

  const TransitionTable* table_;
  Population population_;
  Xoshiro256 rng_;
  DrawRule rule_ = DrawRule::kComplete;
  // kEdge, or an adversary restricted to a topology; empty = complete graph.
  std::vector<InteractionGraph::Edge> edges_;
  const Protocol* protocol_ = nullptr;  // the adversaries' group map
  double epsilon_ = 1.0;                // kEpsilonFair
  std::vector<std::uint32_t> round_;  // kWeakRoundRobin: unscheduled pairs
  std::function<void(const SimEvent&)> observer_;
  obs::ObsSink* obs_ = nullptr;
  StateId watch_state_ = 0;
  std::vector<std::uint64_t>* watch_marks_ = nullptr;
};

extern template class EngineLoop<AgentSimulator>;

}  // namespace ppk::pp
