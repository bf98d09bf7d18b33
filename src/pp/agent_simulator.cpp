#include "pp/agent_simulator.hpp"

#include <algorithm>

#include "obs/sink.hpp"

namespace ppk::pp {

namespace {

/// Metric name of an applied fault ("faults.<kind>"); static literals so
/// the obs hook never allocates.
const char* fault_metric_name(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::kCrash:
      return "faults.crash";
    case FaultKind::kJoin:
      return "faults.join";
    case FaultKind::kCorrupt:
      return "faults.corrupt";
    case FaultKind::kSleep:
      return "faults.sleep";
    case FaultKind::kReset:
      return "faults.reset";
  }
  return "faults.unknown";
}

}  // namespace

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

AgentSimulator::AgentSimulator(const TransitionTable& table,
                               Population population, std::uint64_t seed,
                               std::vector<FaultEvent> schedule)
    : AgentSimulator(table, std::move(population),
                     derive_stream_seed(seed, 0)) {
  rule_ = DrawRule::kChurn;
  churn_.rng = Xoshiro256(derive_stream_seed(seed, 1));
  std::ranges::stable_sort(schedule, {}, &FaultEvent::at);
  churn_.schedule = std::move(schedule);
  churn_.sleep_until.assign(population_.size(), 0);
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
  if (rule_ == DrawRule::kChurn) return advance_churn(oracle, budget);
  const auto [i, j] = draw_adversarial();
  return {1, apply_pair(i, j, &oracle)};
}

Advance AgentSimulator::advance_churn(StabilityOracle& oracle,
                                      std::uint64_t budget) {
  // A fired fault may have made the oracle stable without an effective
  // draw, so the loop must ask it again one pair later.  No advance draws
  // past the next event's firing time.
  const bool fired = fire_due_faults(oracle);
  std::uint64_t limit = fired ? 1 : budget;
  if (pending_events() > 0) {
    limit = std::min(limit,
                     churn_.schedule[churn_.next_event].at - interactions_);
  }
  const std::uint32_t n = population_.size();
  for (std::uint64_t drawn = 1;; ++drawn) {
    const auto [i, j] = uniform_pair(rng_, n);
    // A pair with an agent asleep at this draw's index is a null draw.
    const std::uint64_t at = interactions_ + 1;
    if (churn_.sleep_until[i] > at || churn_.sleep_until[j] > at) {
      ++interactions_;
      PPK_OBS_HOOK(obs_, on_step(population_.counts(), interactions_, false));
    } else if (apply_pair(i, j, &oracle)) {
      return {drawn, true};
    }
    if (drawn == limit) return {drawn, fired};
  }
}

bool AgentSimulator::fire_due_faults(StabilityOracle& oracle) {
  const std::size_t first = churn_.next_event;
  while (pending_events() > 0 &&
         churn_.schedule[churn_.next_event].at <= interactions_) {
    const FaultEvent& event = churn_.schedule[churn_.next_event++];
    // Earlier crashes may have shrunk the population below an explicit
    // target; such an event is dropped, like a crash at population 2.  (A
    // join has no target.)
    if (event.kind != FaultKind::kJoin && event.agent &&
        *event.agent >= population_.size()) {
      continue;
    }
    switch (event.kind) {
      case FaultKind::kCrash:
        crash(event.agent, &oracle);
        break;
      case FaultKind::kJoin:
        join(event.state, &oracle);
        break;
      case FaultKind::kCorrupt:
        corrupt(event.agent, event.state, &oracle);
        break;
      case FaultKind::kSleep:
        sleep(event.agent, event.duration, &oracle);
        break;
      case FaultKind::kReset:
        PPK_EXPECTS(event.agent.has_value() && event.state.has_value());
        overwrite_state(*event.agent, *event.state, &oracle);
        break;
    }
  }
  return churn_.next_event != first;
}

void AgentSimulator::set_default_join_state(StateId s) {
  PPK_EXPECTS(rule_ == DrawRule::kChurn);
  PPK_EXPECTS(s < table_->num_states());
  churn_.default_join_state = s;
}

void AgentSimulator::set_fault_observer(
    std::function<void(const FaultRecord&)> observer) {
  PPK_EXPECTS(rule_ == DrawRule::kChurn);
  churn_.observer = std::move(observer);
}

std::uint32_t AgentSimulator::resolve_agent(
    const std::optional<std::uint32_t>& agent) {
  PPK_EXPECTS(rule_ == DrawRule::kChurn);
  if (agent) {
    PPK_EXPECTS(*agent < population_.size());
    return *agent;
  }
  return static_cast<std::uint32_t>(churn_.rng.below(population_.size()));
}

void AgentSimulator::record(FaultKind kind, std::uint32_t agent,
                            StateId old_state, StateId new_state,
                            StabilityOracle* oracle) {
  FaultRecord rec;
  rec.at = interactions_;
  rec.kind = kind;
  rec.agent = agent;
  rec.old_state = old_state;
  rec.new_state = new_state;
  rec.population_after = population_.size();
  churn_.trace.push_back(rec);
  PPK_OBS_HOOK(obs_, on_event(fault_metric_name(kind)));
  PPK_OBS_HOOK(obs_, set_gauge("churn.population",
                               static_cast<std::int64_t>(population_.size())));
  if (oracle != nullptr) oracle->on_external_change(population_.counts());
  if (churn_.observer) churn_.observer(rec);
}

std::optional<std::uint32_t> AgentSimulator::crash(
    std::optional<std::uint32_t> agent, StabilityOracle* oracle) {
  PPK_EXPECTS(rule_ == DrawRule::kChurn);
  if (population_.size() <= 2) return std::nullopt;  // keep pairs drawable
  const std::uint32_t target = resolve_agent(agent);
  const StateId old_state = population_.remove_agent(target);
  // remove_agent moved the last agent into the hole; mirror in the sleep
  // bookkeeping.
  churn_.sleep_until[target] = churn_.sleep_until.back();
  churn_.sleep_until.pop_back();
  record(FaultKind::kCrash, target, old_state, old_state, oracle);
  return target;
}

std::uint32_t AgentSimulator::join(std::optional<StateId> state,
                                   StabilityOracle* oracle) {
  PPK_EXPECTS(rule_ == DrawRule::kChurn);
  const StateId s = state.value_or(churn_.default_join_state);
  PPK_EXPECTS(s < table_->num_states());
  const std::uint32_t agent = population_.add_agent(s);
  churn_.sleep_until.push_back(0);
  record(FaultKind::kJoin, agent, s, s, oracle);
  return agent;
}

void AgentSimulator::corrupt(std::optional<std::uint32_t> agent,
                             std::optional<StateId> state,
                             StabilityOracle* oracle) {
  const std::uint32_t target = resolve_agent(agent);
  const StateId old_state = population_.state_of(target);
  StateId new_state;
  if (state) {
    PPK_EXPECTS(*state < table_->num_states());
    new_state = *state;
  } else {
    // Uniform among the *other* states: a corruption always corrupts.
    auto draw = static_cast<StateId>(churn_.rng.below(
        static_cast<std::uint64_t>(table_->num_states()) - 1));
    if (draw >= old_state) ++draw;
    new_state = draw;
  }
  population_.set_state(target, new_state);
  record(FaultKind::kCorrupt, target, old_state, new_state, oracle);
}

void AgentSimulator::sleep(std::optional<std::uint32_t> agent,
                           std::uint64_t duration, StabilityOracle* oracle) {
  const std::uint32_t target = resolve_agent(agent);
  churn_.sleep_until[target] =
      interactions_ + std::min(duration, UINT64_MAX - interactions_);
  const StateId s = population_.state_of(target);
  record(FaultKind::kSleep, target, s, s, oracle);
}

void AgentSimulator::overwrite_state(std::uint32_t agent, StateId state,
                                     StabilityOracle* oracle) {
  PPK_EXPECTS(rule_ == DrawRule::kChurn);
  PPK_EXPECTS(agent < population_.size());
  PPK_EXPECTS(state < table_->num_states());
  const StateId old_state = population_.state_of(agent);
  population_.set_state(agent, state);
  record(FaultKind::kReset, agent, old_state, state, oracle);
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
    case DrawRule::kChurn: return "churn";
    case DrawRule::kEpsilonFair:
    case DrawRule::kWeakRoundRobin: break;
  }
  return "adversarial";
}

Snapshot AgentSimulator::snapshot() const {
  const bool churn = rule_ == DrawRule::kChurn;
  SnapshotWriter w(snapshot_tag());
  w.rng(rng_);
  if (churn) w.rng(churn_.rng);
  w.u64(interactions_);
  w.u64(effective_);
  if (rule_ == DrawRule::kWeakRoundRobin) {
    w.u64(round_.size());
    for (const std::uint32_t e : round_) w.u64(e);
  }
  if (churn) {
    w.u64(churn_.next_event);
    w.u64(churn_.default_join_state);
  }
  w.states(population_.states());
  if (churn) {
    w.u64(churn_.sleep_until.size());
    for (const std::uint64_t until : churn_.sleep_until) w.u64(until);
  }
  return std::move(w).take();
}

void AgentSimulator::restore(const Snapshot& snap) {
  const bool churn = rule_ == DrawRule::kChurn;
  SnapshotReader r(snap, snapshot_tag());
  r.rng(rng_);
  if (churn) r.rng(churn_.rng);
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
  if (churn) {
    churn_.next_event = r.u64();
    PPK_EXPECTS(churn_.next_event <= churn_.schedule.size());
    const std::uint64_t join_state = r.u64();
    PPK_EXPECTS(join_state < table_->num_states());
    churn_.default_join_state = static_cast<StateId>(join_state);
  }
  auto states = r.states(table_->num_states());
  if (churn) {
    // Churn changes the population size, so the snapshot's size rules.
    PPK_EXPECTS(r.u64() == states.size());
    churn_.sleep_until.resize(states.size());
    for (auto& until : churn_.sleep_until) until = r.u64();
  } else {
    PPK_EXPECTS(states.size() == population_.size());
  }
  r.finish();
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
