#include "pp/agent_simulator.hpp"

#include "obs/sink.hpp"

namespace ppk::pp {

AgentSimulator::AgentSimulator(const TransitionTable& table,
                               Population population, std::uint64_t seed)
    : table_(&table), population_(std::move(population)), rng_(seed) {
  PPK_EXPECTS(population_.size() >= 2);
}

AgentSimulator::AgentSimulator(const TransitionTable& table,
                               const InteractionGraph& graph,
                               Population population, std::uint64_t seed)
    : AgentSimulator(table, std::move(population), seed) {
  PPK_EXPECTS(graph.num_agents() == population_.size());
  PPK_EXPECTS(!graph.edges().empty());
  rule_ = DrawRule::kEdge;
  edges_ = graph.edges();
}

AgentSimulator::AgentSimulator(const Protocol& protocol,
                               const TransitionTable& table,
                               Population population, FairnessSpec fairness,
                               std::uint64_t seed,
                               const InteractionGraph* topology)
    : AgentSimulator(table, std::move(population), seed) {
  PPK_EXPECTS(fairness.epsilon > 0.0 && fairness.epsilon <= 1.0);
  rule_ = fairness.policy == FairnessPolicy::kWeakRoundRobin
              ? DrawRule::kWeakRoundRobin
              : DrawRule::kEpsilonFair;
  protocol_ = &protocol;
  epsilon_ = fairness.epsilon;
  if (topology != nullptr) {
    PPK_EXPECTS(topology->num_agents() == population_.size());
    edges_ = topology->edges();
    PPK_EXPECTS(!edges_.empty());
  }
  PPK_EXPECTS(num_ordered_pairs() <= UINT32_MAX);
}

bool AgentSimulator::apply_pair(std::uint32_t i, std::uint32_t j,
                                StabilityOracle* oracle) {
  const StateId p = population_.state_of(i);
  const StateId q = population_.state_of(j);
  ++interactions_;
  if (!table_->effective(p, q)) {
    PPK_OBS_HOOK(obs_, on_step(population_.counts(), interactions_, false));
    return false;
  }
  apply_effective(i, j, p, q, oracle);
  return true;
}

void AgentSimulator::apply_effective(std::uint32_t i, std::uint32_t j,
                                     StateId p, StateId q,
                                     StabilityOracle* oracle) {
  const Transition& t = table_->apply(p, q);
  population_.apply(i, j, t);
  ++effective_;
  if (oracle != nullptr) {
    oracle->on_transition(p, q, t.initiator, t.responder);
  }
  if (observer_) {
    observer_(SimEvent{interactions_, i, j, p, q, t.initiator, t.responder});
  }
  if (watch_marks_ != nullptr) {
    const int delta = (t.initiator == watch_state_ ? 1 : 0) +
                      (t.responder == watch_state_ ? 1 : 0) -
                      (p == watch_state_ ? 1 : 0) -
                      (q == watch_state_ ? 1 : 0);
    for (int w = 0; w < delta; ++w) watch_marks_->push_back(interactions_);
  }
  PPK_OBS_HOOK(obs_, on_step(population_.counts(), interactions_, true));
}

template <typename Draw>
Advance AgentSimulator::draw_run(StabilityOracle& oracle, std::uint64_t budget,
                                 Draw draw) {
  // A null draw changes only the RNG and the counters, so a run of them
  // works on a local RNG the compiler keeps in registers; it is written
  // back before anything that could read it.
  Xoshiro256 rng = rng_;
  for (std::uint64_t drawn = 1;; ++drawn) {
    const auto [i, j] = draw(rng);
    const StateId p = population_.state_of(i);
    const StateId q = population_.state_of(j);
    if (table_->effective(p, q)) {
      rng_ = rng;
      interactions_ += drawn;
      apply_effective(i, j, p, q, &oracle);
      return {drawn, true};
    }
    PPK_OBS_HOOK(obs_, on_step(population_.counts(), interactions_ + drawn,
                               false));
    if (drawn == budget) {
      rng_ = rng;
      interactions_ += drawn;
      return {drawn, false};
    }
  }
}

Advance AgentSimulator::advance(StabilityOracle& oracle,
                               std::uint64_t budget) {
  if (rule_ == DrawRule::kComplete) [[likely]] {
    const std::uint32_t n = population_.size();
    return draw_run(oracle, budget,
                    [n](Xoshiro256& rng) { return uniform_pair(rng, n); });
  }
  if (rule_ == DrawRule::kEdge) {
    const InteractionGraph::Edge* edges = edges_.data();
    const std::uint64_t m = edges_.size();
    return draw_run(oracle, budget, [edges, m](Xoshiro256& rng) {
      const auto& [a, b] = edges[rng.below(m)];
      const bool forward = (rng() & 1u) == 0;
      return forward ? Pair{a, b} : Pair{b, a};
    });
  }
  const auto [i, j] = draw_adversarial();
  return {1, apply_pair(i, j, &oracle)};
}

AgentSimulator::Pair AgentSimulator::draw_adversarial() {
  if (rule_ == DrawRule::kWeakRoundRobin) return draw_weak_round_robin();
  Pair pair = draw_candidate();
  if (rng_.uniform01() >= epsilon_) {
    // Adversary turn: probe for a non-progressing pair.
    for (int probe = 0; probe < kProbes; ++probe) {
      if (!progresses(pair)) break;
      pair = draw_candidate();
    }
  }
  return pair;
}

AgentSimulator::Pair AgentSimulator::draw_candidate() {
  if (edges_.empty()) return uniform_pair(rng_, population_.size());
  const std::uint64_t e = rng_.below(2 * edges_.size());
  return decode_pair(static_cast<std::uint32_t>(e));
}

/// One weak-round-robin draw: refill the round if exhausted, then probe
/// random remaining slots for a non-progressing pair (the adversary's
/// ordering freedom) and swap-remove the chosen slot.
AgentSimulator::Pair AgentSimulator::draw_weak_round_robin() {
  if (round_.empty()) {
    const auto total = static_cast<std::uint32_t>(num_ordered_pairs());
    round_.resize(total);
    for (std::uint32_t e = 0; e < total; ++e) round_[e] = e;
  }
  std::size_t pos = rng_.below(round_.size());
  for (int probe = 0; probe < kProbes; ++probe) {
    if (!progresses(decode_pair(round_[pos]))) break;
    pos = rng_.below(round_.size());
  }
  const Pair pair = decode_pair(round_[pos]);
  round_[pos] = round_.back();
  round_.pop_back();
  return pair;
}

std::uint64_t AgentSimulator::num_ordered_pairs() const noexcept {
  const std::uint64_t n = population_.size();
  return edges_.empty() ? n * (n - 1) : 2 * edges_.size();
}

/// Ordered-pair index -> (initiator, responder).  The complete graph packs
/// i * (n-1) + j', a topology packs edge * 2 + orientation.
AgentSimulator::Pair AgentSimulator::decode_pair(std::uint32_t e) const {
  if (edges_.empty()) {
    const std::uint32_t n = population_.size();
    const std::uint32_t i = e / (n - 1);
    std::uint32_t j = e % (n - 1);
    if (j >= i) ++j;
    return {i, j};
  }
  const auto& [a, b] = edges_[e / 2];
  return (e % 2 == 0) ? Pair{a, b} : Pair{b, a};
}

bool AgentSimulator::progresses(const Pair& pair) const {
  const StateId p = population_.state_of(pair.first);
  const StateId q = population_.state_of(pair.second);
  const Transition& t = table_->apply(p, q);
  return protocol_->group(p) != protocol_->group(t.initiator) ||
         protocol_->group(q) != protocol_->group(t.responder);
}

const char* AgentSimulator::snapshot_tag() const noexcept {
  switch (rule_) {
    case DrawRule::kComplete: return "agent";
    case DrawRule::kEdge: return "graph";
    case DrawRule::kEpsilonFair:
    case DrawRule::kWeakRoundRobin: break;
  }
  return "adversarial";
}

Snapshot AgentSimulator::snapshot() const {
  SnapshotWriter w(snapshot_tag());
  w.rng(rng_);
  w.u64(interactions_);
  w.u64(effective_);
  if (rule_ == DrawRule::kWeakRoundRobin) {
    w.u64(round_.size());
    for (const std::uint32_t e : round_) w.u64(e);
  }
  w.states(population_.states());
  return std::move(w).take();
}

void AgentSimulator::restore(const Snapshot& snap) {
  SnapshotReader r(snap, snapshot_tag());
  r.rng(rng_);
  interactions_ = r.u64();
  effective_ = r.u64();
  if (rule_ == DrawRule::kWeakRoundRobin) {
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

std::uint64_t AgentSimulator::replay(
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& schedule) {
  std::uint64_t effective_count = 0;
  for (const auto& [i, j] : schedule) {
    PPK_EXPECTS(i != j);
    PPK_EXPECTS(i < population_.size() && j < population_.size());
    if (apply_pair(i, j, nullptr)) ++effective_count;
  }
  return effective_count;
}

template class EngineLoop<AgentSimulator>;

}  // namespace ppk::pp
