// Fairness-policy scheduler: the agent-level engine behind FairnessSpec.
//
// The count-based engines all implement the uniform-random scheduler; this
// simulator is the one that schedules *agents* and can therefore realize
// other fairness policies (pp/fairness.hpp):
//
//  - kEpsilonFair: with probability 1 - epsilon it tries to pick an
//    interaction that makes *no group-output progress* (a null interaction
//    or a pure free-agent flip), sampling up to `kProbes` candidate pairs
//    and taking the first non-progressing one; with probability epsilon
//    (or when all probes would progress) it falls back to a uniform pair.
//    Every ordered pair retains at least epsilon / (n(n-1)) probability in
//    every configuration, so an infinite execution is globally fair with
//    probability 1 -- the protocol still stabilizes, just slower; the
//    fairness-stress bench measures the slowdown as epsilon shrinks.
//
//  - kWeakRoundRobin: each round schedules every ordered pair exactly
//    once, in an adversarially chosen order (non-progressing pairs are
//    probed first, so harmful meetings happen at harmless moments).  An
//    infinite execution interacts every pair infinitely often and
//    guarantees nothing else: weakly fair by construction, NOT globally
//    fair.  Protocols that need global fairness livelock or mis-stabilize
//    under it (run them with a bounded budget and expect
//    `stabilized == false`); core::WeakKPartitionProtocol stabilizes.
//    Round state costs O(n^2) memory (one 32-bit index per ordered pair),
//    so this policy is for the small/medium n where weak-fairness
//    questions live.
//
//  - kUniformRandom: epsilon-fair with epsilon = 1 (no adversary turn).
//
// An optional InteractionGraph restricts scheduling to its edges (both
// orientations), composing the fairness axis with the topology axis.  With
// no topology and a policy other than kWeakRoundRobin the draw sequence is
// bit-identical to the historical epsilon-fair scheduler, so existing
// seeds, snapshots, and conformance corpus entries replay unchanged.

#pragma once

#include <cstdint>
#include <vector>

#include "obs/sink.hpp"
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

namespace ppk::pp {

/// Agent-scheduling engine realizing every FairnessPolicy, optionally
/// restricted to an interaction topology.
class AdversarialSimulator : public EngineLoop<AdversarialSimulator> {
 public:
  /// Full-axis constructor.  `topology` (optional) must outlive the
  /// simulator; nullptr schedules on the complete graph.
  AdversarialSimulator(const Protocol& protocol, const TransitionTable& table,
                       Population population, FairnessSpec fairness,
                       std::uint64_t seed,
                       const InteractionGraph* topology = nullptr)
      : protocol_(&protocol),
        table_(&table),
        population_(std::move(population)),
        fairness_(fairness),
        rng_(seed) {
    PPK_EXPECTS(fairness.epsilon > 0.0 && fairness.epsilon <= 1.0);
    PPK_EXPECTS(population_.size() >= 2);
    if (topology != nullptr) {
      PPK_EXPECTS(topology->num_agents() == population_.size());
      edges_ = topology->edges();
      PPK_EXPECTS(!edges_.empty());
    }
    PPK_EXPECTS(num_ordered_pairs() <= UINT32_MAX);
  }

  /// Historical epsilon-fair constructor (complete graph).
  AdversarialSimulator(const Protocol& protocol, const TransitionTable& table,
                       Population population, double epsilon,
                       std::uint64_t seed)
      : AdversarialSimulator(protocol, table, std::move(population),
                             FairnessSpec{FairnessPolicy::kEpsilonFair,
                                          epsilon},
                             seed) {}

  /// Attaches an observability sink (obs/sink.hpp); nullptr detaches.  The
  /// sink is notified after every drawn interaction (null or effective)
  /// and must outlive the simulator.  Totals count from attachment.
  void set_obs_sink(obs::ObsSink* sink) noexcept { obs_ = sink; }

  /// Draws and applies one scheduled pair; returns true iff it was
  /// effective.  The oracle sees effective transitions only.
  bool step(StabilityOracle& oracle) {
    std::uint32_t i = 0;
    std::uint32_t j = 0;
    if (fairness_.policy == FairnessPolicy::kWeakRoundRobin) {
      draw_weak_round_robin(&i, &j);
    } else {
      draw_pair(&i, &j);
      if (rng_.uniform01() >= fairness_.epsilon) {
        // Adversary turn: probe for a non-progressing pair.
        for (int probe = 0; probe < kProbes; ++probe) {
          if (!progresses(i, j)) break;
          draw_pair(&i, &j);
        }
      }
    }

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

  /// One scheduled pair for the shared run()/resume() loop
  /// (pp/engine_loop.hpp).  This engine does not detect silence, so it
  /// always draws.
  Advance advance(StabilityOracle& oracle, std::uint64_t /*budget*/) {
    return {1, step(oracle)};
  }

  /// Serializable mid-run state: per-agent states, RNG position,
  /// interaction counters, and (under kWeakRoundRobin) the unscheduled
  /// remainder of the current round (contract in pp/snapshot.hpp).  The
  /// fairness spec and topology are constructor arguments, not dynamic
  /// state, so the legacy format is unchanged for the other policies.
  [[nodiscard]] Snapshot snapshot() const {
    SnapshotWriter w("adversarial");
    w.rng(rng_);
    w.u64(interactions_);
    w.u64(effective_);
    if (fairness_.policy == FairnessPolicy::kWeakRoundRobin) {
      w.u64(round_.size());
      for (const std::uint32_t e : round_) w.u64(e);
    }
    w.states(population_.states());
    return std::move(w).take();
  }

  /// Restores a snapshot() taken from an engine constructed with the same
  /// arguments; resuming afterwards is bit-identical to the snapshotted
  /// engine under the same resume() grants.
  void restore(const Snapshot& snap) {
    SnapshotReader r(snap, "adversarial");
    r.rng(rng_);
    interactions_ = r.u64();
    effective_ = r.u64();
    if (fairness_.policy == FairnessPolicy::kWeakRoundRobin) {
      const std::uint64_t len = r.u64();
      PPK_EXPECTS(len <= num_ordered_pairs());
      round_.resize(len);
      for (auto& e : round_) {
        const std::uint64_t v = r.u64();
        PPK_EXPECTS(v < num_ordered_pairs());
        e = static_cast<std::uint32_t>(v);
      }
    }
    auto states = r.states(table_->num_states());
    r.finish();
    PPK_EXPECTS(states.size() == population_.size());
    population_.restore_states(std::move(states));
  }

  /// Current per-agent configuration.
  [[nodiscard]] const Population& population() const noexcept {
    return population_;
  }

  /// Current state counts (what run() resets the oracle from).
  [[nodiscard]] const Counts& counts() const noexcept {
    return population_.counts();
  }

  /// The fairness spec the engine was constructed with.
  [[nodiscard]] const FairnessSpec& fairness() const noexcept {
    return fairness_;
  }

 private:
  static constexpr int kProbes = 16;

  [[nodiscard]] std::uint64_t num_ordered_pairs() const noexcept {
    const std::uint64_t n = population_.size();
    return edges_.empty() ? n * (n - 1) : 2 * edges_.size();
  }

  /// Ordered-pair index -> (initiator, responder).  Complete graph packs
  /// i * (n-1) + j', topology packs edge * 2 + orientation.
  void decode_pair(std::uint32_t e, std::uint32_t* i, std::uint32_t* j) const {
    if (edges_.empty()) {
      const std::uint32_t n = population_.size();
      *i = e / (n - 1);
      std::uint32_t jj = e % (n - 1);
      if (jj >= *i) ++jj;
      *j = jj;
    } else {
      const auto& [a, b] = edges_[e / 2];
      *i = (e % 2 == 0) ? a : b;
      *j = (e % 2 == 0) ? b : a;
    }
  }

  void draw_pair(std::uint32_t* i, std::uint32_t* j) {
    if (edges_.empty()) {
      const std::uint32_t n = population_.size();
      *i = static_cast<std::uint32_t>(rng_.below(n));
      *j = static_cast<std::uint32_t>(rng_.below(n - 1));
      if (*j >= *i) ++*j;
    } else {
      decode_pair(static_cast<std::uint32_t>(rng_.below(2 * edges_.size())),
                  i, j);
    }
  }

  [[nodiscard]] bool progresses(std::uint32_t i, std::uint32_t j) const {
    const StateId p = population_.state_of(i);
    const StateId q = population_.state_of(j);
    const Transition& t = table_->apply(p, q);
    return protocol_->group(p) != protocol_->group(t.initiator) ||
           protocol_->group(q) != protocol_->group(t.responder);
  }

  /// One weak-round-robin draw: refill the round if exhausted, then probe
  /// random remaining slots for a non-progressing pair (the adversary's
  /// ordering freedom) and swap-remove the chosen slot.
  void draw_weak_round_robin(std::uint32_t* i, std::uint32_t* j) {
    if (round_.empty()) {
      const auto total = static_cast<std::uint32_t>(num_ordered_pairs());
      round_.resize(total);
      for (std::uint32_t e = 0; e < total; ++e) round_[e] = e;
    }
    std::size_t pos = rng_.below(round_.size());
    for (int probe = 0; probe < kProbes; ++probe) {
      decode_pair(round_[pos], i, j);
      if (!progresses(*i, *j)) break;
      pos = rng_.below(round_.size());
    }
    decode_pair(round_[pos], i, j);
    round_[pos] = round_.back();
    round_.pop_back();
  }

  const Protocol* protocol_;
  const TransitionTable* table_;
  Population population_;
  FairnessSpec fairness_;
  std::vector<InteractionGraph::Edge> edges_;  // empty = complete graph
  std::vector<std::uint32_t> round_;  // unscheduled ordered pairs this round
  Xoshiro256 rng_;
  obs::ObsSink* obs_ = nullptr;
};

}  // namespace ppk::pp
