// The live-edge ("graph jump") simulation engine: the distribution of the
// agent array's topology draw (pp/agent_simulator.hpp) with
// JumpSimulator's null-skipping.
//
// On a sparse interaction graph the wedged endgame is even more extreme
// than the complete-graph one: a k-partition run on a ring typically ends
// with a handful of builders walled in by committed neighbours, where
// *every* adjacent pair is null and the per-draw engine draws null edges
// until the budget runs out.  This engine never draws a null pair and
// recognizes that dead end exactly, in O(1).
//
// It maintains the set of **live directed edges** -- orientations (i, j)
// of graph edges whose current endpoint-state pair (state(i), state(j))
// has an effective rule -- incrementally:
//
//  - CSR adjacency over the InteractionGraph (offset + incident-edge
//    arrays) locates the edges a state change can affect;
//  - a dense position index with swap-delete keeps the live set a
//    contiguous array, so membership updates are O(1) and sampling is one
//    uniform draw;
//  - an effective interaction at agents (i, j) re-derives liveness for
//    both orientations of every edge incident to i or j: O(deg i + deg j)
//    per effective interaction, independent of how many nulls it skipped.
//
// Sampling matches the per-draw engine's law exactly.  It draws a uniform
// edge then a uniform orientation -- a uniform directed edge out
// of 2m -- and the draw is effective iff that directed edge is live, so
// with L live directed edges each drawn pair is effective with probability
// p_eff = L / 2m and, conditioned on being effective, is uniform over the
// live set.  This engine samples the null-run length from geometric(p_eff)
// in O(1) and then one uniform live directed edge: the same conditional
// distribution, which the conformance harness KS-verifies per topology.
//
// Zero live directed edges is precisely the dead-silent condition on the
// graph (wedged, or globally silent): step() then returns false without
// advancing, so wedged runs stop immediately instead of exhausting the
// budget -- exact wedge detection, where the per-draw engine cannot detect
// it at all (see the contract note in agent_simulator.hpp).
//
// Chunked runs are bit-identical to unchunked ones: when a budget boundary
// truncates a null run, the *remainder* of the already-sampled run is
// carried into the next grant instead of being re-sampled (memorylessness
// makes re-sampling equally correct in law, but carrying the remainder
// keeps the RNG stream independent of the chunking, so run() + resume()
// reproduces an unchunked run bit for bit -- the conformance harness
// checks this engine under the pairwise chunked-resume net, which the
// complete-graph jump/batch engines cannot pass).  Liveness cannot change
// during a null run (counts do not move), so the carried remainder's
// p_eff is still exact.

#pragma once

#include <cstdint>
#include <vector>

#include "pp/engine_loop.hpp"
#include "pp/interaction_graph.hpp"
#include "pp/population.hpp"
#include "pp/sim_result.hpp"
#include "pp/snapshot.hpp"
#include "pp/stability.hpp"
#include "pp/transition_table.hpp"
#include "util/rng.hpp"

namespace ppk::obs {
class ObsSink;
}  // namespace ppk::obs

namespace ppk::pp {

class GraphJumpSimulator : public EngineLoop<GraphJumpSimulator> {
 public:
  GraphJumpSimulator(const TransitionTable& table, InteractionGraph graph,
                     Population population, std::uint64_t seed);

  /// Advances to (and applies) the next effective interaction, adding the
  /// skipped null draws to interactions().  Returns false iff no directed
  /// edge is live (the configuration is dead-silent on the graph; calling
  /// step again keeps returning false without advancing).
  bool step(StabilityOracle& oracle);

  /// One bounded advance for the shared run()/resume() loop
  /// (pp/engine_loop.hpp): skips nulls and applies the next effective pair,
  /// but never moves interactions() forward by more than `budget`.  A null
  /// run reaching the budget consumes exactly `budget` draws and parks the
  /// remainder for the next advance, so chunked runs are bit-identical to
  /// unchunked ones.  Advances 0 iff no directed edge is live (a wedged
  /// run stops short of its budget).
  Advance advance(StabilityOracle& oracle, std::uint64_t budget);

  /// Records, into `marks`, the interaction index of every increase of
  /// `state`'s count (one entry per unit of increase), exactly as the
  /// agent engine's observer would.  Pass nullptr to stop recording.
  void set_watch(StateId state, std::vector<std::uint64_t>* marks) {
    PPK_EXPECTS(marks == nullptr ||
                state < population_.counts().size());
    watch_state_ = state;
    watch_marks_ = marks;
  }

  /// Attaches an observability sink (obs/sink.hpp); nullptr detaches.  The
  /// sink sees each null run (before the concluding pair is applied, so
  /// timeline samples inside the run are exact) and each effective
  /// interaction; it must outlive the simulator.
  void set_obs_sink(obs::ObsSink* sink) noexcept { obs_ = sink; }

  /// Serializable mid-run state: per-agent states, RNG position,
  /// interaction counters, the parked null-run remainder, and the live
  /// list *in its current order* (draws index into it and swap-removal
  /// makes the order history-dependent, so it is sampling state, not a
  /// rebuildable cache; contract in pp/snapshot.hpp).  The topology is a
  /// constructor argument.
  [[nodiscard]] Snapshot snapshot() const;

  /// Restores a snapshot() taken from an engine constructed with the same
  /// arguments (same graph); resuming afterwards is bit-identical to the
  /// snapshotted engine under the same resume() grants.  Watch hooks are
  /// not part of a snapshot -- re-attach them after restoring.
  void restore(const Snapshot& snap);

  [[nodiscard]] const Population& population() const noexcept {
    return population_;
  }

  [[nodiscard]] const InteractionGraph& graph() const noexcept {
    return graph_;
  }

  /// Current state counts (what run() resets the oracle from).
  [[nodiscard]] const Counts& counts() const noexcept {
    return population_.counts();
  }

  /// Number of live directed edges (orientations with an effective rule).
  /// Zero iff the configuration is dead-silent on this graph -- the exact
  /// O(1) wedge predicate.
  [[nodiscard]] std::uint64_t live_directed_edges() const noexcept {
    return live_.size();
  }

 private:
  /// Re-derives liveness of both orientations of every edge incident to
  /// agent v from the current states.  Idempotent, so edges incident to
  /// both interaction endpoints may be refreshed twice.
  void refresh_incident(std::uint32_t v);

  /// Inserts/removes directed edge d in the live set (swap-delete; no-op
  /// if already in the requested status).
  void set_live(std::uint32_t d, bool live);

  /// Recomputes the live set from the current per-agent states (used by
  /// the constructor and by restore()).
  void rebuild_live();

  const TransitionTable* table_;
  InteractionGraph graph_;
  Population population_;
  Xoshiro256 rng_;

  /// CSR adjacency: incident *edge ids* of agent v are
  /// adj_edge_[adj_offset_[v] .. adj_offset_[v + 1]).
  std::vector<std::uint64_t> adj_offset_;
  std::vector<std::uint32_t> adj_edge_;

  /// Live directed edges, as ids 2 * edge + orientation (0 = stored a->b,
  /// 1 = reversed), contiguous for uniform sampling.
  std::vector<std::uint32_t> live_;
  /// pos_[d] = index of directed edge d inside live_, or kNoPos.
  std::vector<std::uint32_t> pos_;

  /// Remainder of a geometric null run truncated at a budget boundary
  /// (valid iff has_pending_); consumed before any new draw so chunking
  /// never touches the RNG stream.
  std::uint64_t pending_nulls_ = 0;
  bool has_pending_ = false;

  StateId watch_state_ = 0;
  std::vector<std::uint64_t>* watch_marks_ = nullptr;
  obs::ObsSink* obs_ = nullptr;
};

extern template class EngineLoop<GraphJumpSimulator>;

}  // namespace ppk::pp
