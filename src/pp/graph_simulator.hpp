// Simulation on a restricted interaction graph: each step draws an edge
// uniformly at random and then a uniform orientation (initiator /
// responder).  On the complete graph this is exactly the AgentSimulator
// distribution; on sparse graphs it models spatially constrained
// populations (sensors that only meet their neighbours).
//
// Oracle contract (shared by every engine; see pp/stability.hpp): oracles
// are notified of *effective* interactions only -- null draws cannot
// change the configuration, so `on_transition` is never called for them
// and a QuiescenceOracle window counts effective interactions, not drawn
// ones.  On sparse graphs this has a sharp consequence: a wedged
// configuration (every *adjacent* pair null, while non-adjacent effective
// pairs still exist) produces no oracle callbacks at all, so no oracle --
// quiescence included -- can fire, and this engine draws null edges until
// the budget runs out.  That is the intended behavior for a per-draw
// engine, pinned by the stalled-detection regression tests: detecting the
// dead end exactly requires edge-level bookkeeping, which is what
// GraphJumpSimulator (pp/graph_jump_simulator.hpp) provides -- zero live
// directed edges <=> dead-silent on the graph, detected in O(1) instead
// of via budget exhaustion.  Prefer it for wedge-prone sweeps; prefer
// this engine when per-drawn-pair observability (on_step) matters more
// than wedge detection.  docs/topologies.md discusses the phenomenology.

#pragma once

#include <cstdint>

#include "obs/sink.hpp"
#include "pp/engine_loop.hpp"
#include "pp/interaction_graph.hpp"
#include "pp/population.hpp"
#include "pp/sim_result.hpp"
#include "pp/snapshot.hpp"
#include "pp/stability.hpp"
#include "pp/transition_table.hpp"
#include "util/rng.hpp"

namespace ppk::pp {

class GraphSimulator : public EngineLoop<GraphSimulator> {
 public:
  GraphSimulator(const TransitionTable& table, InteractionGraph graph,
                 Population population, std::uint64_t seed)
      : table_(&table),
        graph_(std::move(graph)),
        population_(std::move(population)),
        rng_(seed) {
    PPK_EXPECTS(graph_.num_agents() == population_.size());
    PPK_EXPECTS(!graph_.edges().empty());
  }

  /// Attaches an observability sink (obs/sink.hpp); nullptr detaches.  The
  /// sink is notified after every drawn interaction (null or effective)
  /// and must outlive the simulator.  Totals count from attachment.
  void set_obs_sink(obs::ObsSink* sink) noexcept { obs_ = sink; }

  /// Draws one edge + orientation and applies the rule.  Returns true iff
  /// the interaction was effective.
  bool step(StabilityOracle& oracle) {
    const auto& edges = graph_.edges();
    const auto& [a, b] = edges[rng_.below(edges.size())];
    const bool forward = (rng_() & 1u) == 0;
    const std::uint32_t i = forward ? a : b;
    const std::uint32_t j = forward ? b : a;
    ++interactions_;
    const StateId p = population_.state_of(i);
    const StateId q = population_.state_of(j);
    if (!table_->effective(p, q)) {
      PPK_OBS_HOOK(obs_, on_step(population_.counts(), interactions_, false));
      return false;
    }
    const Transition& t = table_->apply(p, q);
    population_.apply(i, j, t);
    ++effective_;
    oracle.on_transition(p, q, t.initiator, t.responder);
    PPK_OBS_HOOK(obs_, on_step(population_.counts(), interactions_, true));
    return true;
  }

  /// One draw for the shared run()/resume() loop (pp/engine_loop.hpp).
  /// This engine does not detect wedges, so it always draws.
  Advance advance(StabilityOracle& oracle, std::uint64_t /*budget*/) {
    return {1, step(oracle)};
  }

  /// Serializable mid-run state: per-agent states, RNG position and
  /// interaction counters (contract in pp/snapshot.hpp).  The topology is a
  /// constructor argument, not dynamic state, so it is not serialized.
  [[nodiscard]] Snapshot snapshot() const {
    SnapshotWriter w("graph");
    w.rng(rng_);
    w.u64(interactions_);
    w.u64(effective_);
    w.states(population_.states());
    return std::move(w).take();
  }

  /// Restores a snapshot() taken from an engine constructed with the same
  /// arguments (same graph); resuming afterwards is bit-identical to the
  /// snapshotted engine under the same resume() grants.
  void restore(const Snapshot& snap) {
    SnapshotReader r(snap, "graph");
    r.rng(rng_);
    interactions_ = r.u64();
    effective_ = r.u64();
    auto states = r.states(table_->num_states());
    r.finish();
    PPK_EXPECTS(states.size() == population_.size());
    population_.restore_states(std::move(states));
  }

  [[nodiscard]] const Population& population() const noexcept {
    return population_;
  }

  /// Current state counts (what run() resets the oracle from).
  [[nodiscard]] const Counts& counts() const noexcept {
    return population_.counts();
  }

  [[nodiscard]] const InteractionGraph& graph() const noexcept {
    return graph_;
  }

 private:
  const TransitionTable* table_;
  InteractionGraph graph_;
  Population population_;
  Xoshiro256 rng_;
  obs::ObsSink* obs_ = nullptr;
};

}  // namespace ppk::pp
