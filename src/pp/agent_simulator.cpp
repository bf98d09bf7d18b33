#include "pp/agent_simulator.hpp"

#include "obs/sink.hpp"

namespace ppk::pp {

void AgentSimulator::apply_pair(std::uint32_t i, std::uint32_t j,
                                StabilityOracle* oracle, bool* effective) {
  const StateId p = population_.state_of(i);
  const StateId q = population_.state_of(j);
  ++interactions_;
  if (!table_->effective(p, q)) {
    *effective = false;
    PPK_OBS_HOOK(obs_, on_step(population_.counts(), interactions_, false));
    return;
  }
  const Transition& t = table_->apply(p, q);
  population_.apply(i, j, t);
  ++effective_;
  *effective = true;
  if (oracle != nullptr) {
    oracle->on_transition(p, q, t.initiator, t.responder);
  }
  if (observer_) {
    observer_(SimEvent{interactions_, i, j, p, q, t.initiator, t.responder});
  }
  PPK_OBS_HOOK(obs_, on_step(population_.counts(), interactions_, true));
}

bool AgentSimulator::step(StabilityOracle& oracle) {
  const std::uint32_t n = population_.size();
  const auto i = static_cast<std::uint32_t>(rng_.below(n));
  auto j = static_cast<std::uint32_t>(rng_.below(n - 1));
  if (j >= i) ++j;  // uniform over ordered pairs of distinct agents
  bool effective = false;
  apply_pair(i, j, &oracle, &effective);
  return effective;
}

Snapshot AgentSimulator::snapshot() const {
  SnapshotWriter w("agent");
  w.rng(rng_);
  w.u64(interactions_);
  w.u64(effective_);
  w.states(population_.states());
  return std::move(w).take();
}

void AgentSimulator::restore(const Snapshot& snap) {
  SnapshotReader r(snap, "agent");
  r.rng(rng_);
  interactions_ = r.u64();
  effective_ = r.u64();
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
    bool effective = false;
    apply_pair(i, j, nullptr, &effective);
    if (effective) ++effective_count;
  }
  return effective_count;
}

template class EngineLoop<AgentSimulator>;

}  // namespace ppk::pp
