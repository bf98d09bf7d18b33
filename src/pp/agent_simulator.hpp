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
//  - Churn (table, population, seed, schedule): the complete-graph draw
//    plus a fault schedule (pp/faults.hpp) fired on the interaction clock,
//    with surgical fault primitives for recovery layers and a complete
//    fault trace.  Pairs that draw a sleeping agent are null.  Fault
//    targets have an RNG stream of their own, so a schedule never perturbs
//    the pair sequence.  Every fault notifies the oracle via
//    on_external_change() -- oracles built for a fixed population go stale
//    and fail loudly (stability.hpp) -- and then the fault observer, which
//    may itself apply surgical writes (core::RecoveryManager's reset waves).
//
// Snapshots are tagged by rule ("agent", "graph", "adversarial", "churn"),
// so a snapshot restores only into an engine built with the same rule.

#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "pp/engine_loop.hpp"
#include "pp/fairness.hpp"
#include "pp/faults.hpp"
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

/// The agent-array engine under one of four draw rules (see the file
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

  /// Churn draw: the complete-graph draw plus `schedule` (stably sorted by
  /// firing time; may be empty).  Pairs come from stream 0 of `seed`,
  /// fault targets from stream 1.
  AgentSimulator(const TransitionTable& table, Population population,
                 std::uint64_t seed, std::vector<FaultEvent> schedule);

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
  /// and must outlive the simulator.  Totals count from attachment.  Under
  /// the churn rule it also counts applied faults per kind (faults.crash,
  /// faults.join, ...) and tracks the live population size in the
  /// churn.population gauge.
  void set_obs_sink(obs::ObsSink* sink) noexcept { obs_ = sink; }

  /// Draws one pair and applies the rule (the churn rule first fires the
  /// due faults).  Returns true iff the oracle was notified.
  bool step(StabilityOracle& oracle) { return advance(oracle, 1).notified; }

  /// Draws pairs for the shared run()/resume() loop (pp/engine_loop.hpp)
  /// up to and including the first effective one, at most `budget`.  The
  /// loop asks the oracle only after an effective draw, so stopping there
  /// is the same run as one draw per advance.  This engine does not detect
  /// silence, so it always draws.  The churn rule first fires the due
  /// faults; an advance that fired any draws just one pair and reports
  /// notified, and no advance draws past the next event's firing time.
  Advance advance(StabilityOracle& oracle, std::uint64_t budget);

  /// Applies an explicit interaction schedule (pairs of agent indices);
  /// used for trace replay and engine cross-validation.  Returns the number
  /// of effective interactions.
  std::uint64_t replay(
      const std::vector<std::pair<std::uint32_t, std::uint32_t>>& schedule);

  /// Serializable mid-run state: per-agent states, RNG position,
  /// interaction counters and, under kWeakRoundRobin, the unscheduled
  /// remainder of the current round (contract in pp/snapshot.hpp).  The
  /// churn rule adds the fault stream, the schedule cursor, the default
  /// join state and the sleep table.  The draw rule, topology, fairness
  /// spec and fault schedule are constructor arguments, not dynamic state,
  /// so they are not serialized; neither is the fault trace, an audit log:
  /// a restored engine records faults from the restore point on.
  [[nodiscard]] Snapshot snapshot() const;

  /// Restores a snapshot() taken from an engine constructed with the same
  /// arguments; resuming afterwards is bit-identical to the snapshotted
  /// engine under the same resume() grants.  Under the churn rule the
  /// snapshot may carry a different population size.
  void restore(const Snapshot& snap);

  /// Current per-agent configuration.
  [[nodiscard]] const Population& population() const noexcept {
    return population_;
  }

  /// Current state counts (what run() resets the oracle from).
  [[nodiscard]] const Counts& counts() const noexcept {
    return population_.counts();
  }

  // --- The churn rule only ----------------------------------------------
  // The fault primitives record a FaultRecord, notify `oracle` (when
  // non-null) via on_external_change, and invoke the fault observer.

  /// State that kJoin events without an explicit state enter; defaults to
  /// state 0.  Recovery layers keep this pointed at the current epoch's
  /// initial state.
  void set_default_join_state(StateId s);

  /// Observer invoked after every applied fault (including surgical ones).
  void set_fault_observer(std::function<void(const FaultRecord&)> observer);

  /// Removes an agent (resolved uniformly when `agent` is unset).  Returns
  /// the removed agent's index, or nullopt if the population is already at
  /// the minimum size of 2 (the event is dropped).
  std::optional<std::uint32_t> crash(std::optional<std::uint32_t> agent,
                                     StabilityOracle* oracle);

  /// Adds an agent in `state` (default join state when unset); returns its
  /// index.
  std::uint32_t join(std::optional<StateId> state, StabilityOracle* oracle);

  /// Overwrites an agent's state; an unset `state` draws uniformly among
  /// the other states (a corrupting fault always corrupts).
  void corrupt(std::optional<std::uint32_t> agent,
               std::optional<StateId> state, StabilityOracle* oracle);

  /// Makes an agent unresponsive for `duration` interactions (saturating:
  /// a duration past the end of the interaction clock sleeps for good).
  void sleep(std::optional<std::uint32_t> agent, std::uint64_t duration,
             StabilityOracle* oracle);

  /// Recovery-layer write: sets an agent's state, recorded as kReset.
  void overwrite_state(std::uint32_t agent, StateId state,
                       StabilityOracle* oracle);

  /// True while `agent` sleeps (its pairs are null draws).
  [[nodiscard]] bool asleep(std::uint32_t agent) const {
    PPK_EXPECTS(agent < churn_.sleep_until.size());
    return churn_.sleep_until[agent] > interactions_;
  }

  /// Every applied fault since construction (or restore), in order.
  [[nodiscard]] const FaultTrace& trace() const noexcept {
    return churn_.trace;
  }

  /// Scheduled events not yet fired (or dropped).
  [[nodiscard]] std::size_t pending_events() const noexcept {
    return churn_.schedule.size() - churn_.next_event;
  }

  /// The loop's stop-rule hook (pp/engine_loop.hpp): a scheduled fault
  /// fires before interaction `end`.  Always false outside the churn rule.
  [[nodiscard]] bool event_due_before(std::uint64_t end) const noexcept {
    return pending_events() > 0 && churn_.schedule[churn_.next_event].at < end;
  }

 private:
  enum class DrawRule : std::uint8_t {
    kComplete,
    kEdge,
    kEpsilonFair,
    kWeakRoundRobin,
    kChurn,
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

  /// The churn rule's advance() (see advance()).
  Advance advance_churn(StabilityOracle& oracle, std::uint64_t budget);
  /// Fires every scheduled event due at the current interaction; true iff
  /// the schedule cursor moved.
  bool fire_due_faults(StabilityOracle& oracle);
  std::uint32_t resolve_agent(const std::optional<std::uint32_t>& agent);
  void record(FaultKind kind, std::uint32_t agent, StateId old_state,
              StateId new_state, StabilityOracle* oracle);

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

  /// The churn rule's state; empty under every other rule.
  struct Churn {
    Xoshiro256 rng;                    // fault-target stream
    std::vector<FaultEvent> schedule;  // sorted by firing time
    std::size_t next_event = 0;        // cursor into schedule
    /// Per-agent wake time; kept index-aligned with the population across
    /// crash swap-removals.
    std::vector<std::uint64_t> sleep_until;
    StateId default_join_state = 0;
    FaultTrace trace;
    std::function<void(const FaultRecord&)> observer;
  };
  Churn churn_;
};

extern template class EngineLoop<AgentSimulator>;

}  // namespace ppk::pp
