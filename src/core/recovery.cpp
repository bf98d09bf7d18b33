#include "core/recovery.hpp"

#include <algorithm>
#include <string>

#include "core/invariants.hpp"
#include "obs/sink.hpp"

namespace ppk::core {

// --- SelfHealingKPartitionProtocol -----------------------------------------

std::string SelfHealingKPartitionProtocol::name() const {
  return "self-healing(" + base_.name() + ")";
}

pp::Transition SelfHealingKPartitionProtocol::delta(pp::StateId p,
                                                    pp::StateId q) const {
  const std::uint32_t ep = epoch_of(p);
  const std::uint32_t eq = epoch_of(q);
  if (ep == eq) {
    // Same epoch: Algorithm 1 verbatim, lifted.
    const pp::Transition t = base_.delta(base_of(p), base_of(q));
    return {encode(ep, t.initiator), encode(ep, t.responder)};
  }
  if (eq == next_epoch(ep)) {
    // q carries the newer epoch: p adopts it and restarts from the
    // designated initial state; q is unchanged.  The restart makes p a
    // late-joining initial agent of the new epoch, which the base protocol
    // absorbs.
    return {encode(eq, base_.initial_state()), q};
  }
  // Mirror image (ep == next_epoch(eq)); the rule set is swap-consistent.
  return {p, encode(ep, base_.initial_state())};
}

std::string SelfHealingKPartitionProtocol::state_name(pp::StateId s) const {
  return "e" + std::to_string(epoch_of(s)) + ":" +
         base_.state_name(base_of(s));
}

// --- HealingOracle ---------------------------------------------------------

HealingOracle::HealingOracle(const SelfHealingKPartitionProtocol& protocol)
    : protocol_(&protocol) {
  const pp::StateId base_states = protocol.base().num_states();
  state_class_.assign(protocol.num_states(), 0);
  // base_states classes: merged free class, one per other base state, plus
  // one trailing class for every foreign-epoch state.
  target_.assign(static_cast<std::size_t>(base_states) + 1, 0);
  current_.assign(target_.size(), 0);
}

void HealingOracle::configure(std::uint32_t epoch, const pp::Counts& counts) {
  PPK_EXPECTS(epoch < SelfHealingKPartitionProtocol::kEpochs);
  PPK_EXPECTS(counts.size() == protocol_->num_states());
  epoch_ = epoch;
  n_ = 0;
  for (auto c : counts) n_ += c;

  const KPartitionProtocol& base = protocol_->base();
  const pp::StateId base_states = base.num_states();
  const auto foreign_class = static_cast<std::uint16_t>(base_states);
  for (pp::StateId s = 0; s < protocol_->num_states(); ++s) {
    if (protocol_->epoch_of(s) != epoch_) {
      state_class_[s] = foreign_class;
    } else {
      const pp::StateId b = protocol_->base_of(s);
      state_class_[s] = b <= 1 ? 0 : static_cast<std::uint16_t>(b - 1);
    }
  }
  std::fill(target_.begin(), target_.end(), 0u);
  if (n_ >= 3) {
    const pp::Counts base_target = stable_counts(base, n_);
    target_[0] = base_target[0] + base_target[1];
    for (pp::StateId b = 2; b < base_states; ++b) {
      target_[static_cast<std::size_t>(b) - 1] = base_target[b];
    }
  }
  recount(counts);
}

void HealingOracle::reset(const pp::Counts& counts) {
  // reset() arrives from the simulator's run(); the configuration was last
  // seen by configure()/on_external_change(), but recount defensively.
  PPK_EXPECTS(counts.size() == protocol_->num_states());
  recount(counts);
}

void HealingOracle::on_external_change(const pp::Counts& counts) {
  // Churn may have changed the population size; rebuild the target for the
  // same epoch.  The RecoveryManager follows up with configure() when the
  // epoch itself moves.
  configure(epoch_, counts);
}

void HealingOracle::recount(const pp::Counts& counts) {
  std::fill(current_.begin(), current_.end(), 0u);
  for (pp::StateId s = 0; s < counts.size(); ++s) {
    current_[state_class_[s]] += counts[s];
  }
  mismatch_ = 0;
  for (std::size_t c = 0; c < target_.size(); ++c) {
    if (current_[c] != target_[c]) ++mismatch_;
  }
}

void HealingOracle::bump(std::uint16_t cls, int delta) {
  const bool was_ok = current_[cls] == target_[cls];
  current_[cls] = static_cast<std::uint32_t>(
      static_cast<std::int64_t>(current_[cls]) + delta);
  const bool now_ok = current_[cls] == target_[cls];
  if (was_ok && !now_ok) ++mismatch_;
  if (!was_ok && now_ok) --mismatch_;
}

void HealingOracle::on_transition(pp::StateId p, pp::StateId q,
                                  pp::StateId p_next, pp::StateId q_next) {
  bump(state_class_[p], -1);
  bump(state_class_[q], -1);
  bump(state_class_[p_next], +1);
  bump(state_class_[q_next], +1);
}

// --- RecoveryManager -------------------------------------------------------

RecoveryManager::RecoveryManager(const SelfHealingKPartitionProtocol& protocol,
                                 pp::AgentSimulator& sim)
    : protocol_(&protocol), sim_(&sim), oracle_(protocol) {
  sim_->set_default_join_state(
      protocol_->encode(epoch_, protocol_->base().initial_state()));
  sim_->set_fault_observer(
      [this](const pp::FaultRecord& record) { handle_fault(record); });
  sim_->set_observer(
      [this](const pp::SimEvent& event) { handle_transition(event); });
  refresh();
}

void RecoveryManager::refresh() {
  const pp::Counts& counts = sim_->population().counts();
  std::int64_t in_epoch = 0;
  for (pp::StateId s = 0; s < counts.size(); ++s) {
    if (protocol_->epoch_of(s) == epoch_) in_epoch += counts[s];
  }
  old_remaining_ =
      static_cast<std::int64_t>(sim_->population().size()) - in_epoch;
  oracle_.configure(epoch_, counts);
}

void RecoveryManager::handle_fault(const pp::FaultRecord& record) {
  if (record.kind == pp::FaultKind::kReset) return;  // our own surgery

  const pp::StateId fresh =
      protocol_->encode(epoch_, protocol_->base().initial_state());
  bool disruptive = false;
  switch (record.kind) {
    case pp::FaultKind::kCrash:
      // Only a departure from the current epoch loses a slot the current
      // bookkeeping counts on; stragglers were going to be reset anyway.
      disruptive = protocol_->epoch_of(record.old_state) == epoch_;
      break;
    case pp::FaultKind::kJoin:
      // Joins in the current epoch's initial state are absorbed for free.
      // Anything else (stale or bogus state) is normalized into a fresh
      // joiner, which makes the join benign without a wave.
      if (record.new_state != fresh) {
        sim_->overwrite_state(record.agent, fresh, &oracle_);
      }
      break;
    case pp::FaultKind::kCorrupt:
      // The lost old slot damages the books iff it was current-epoch; the
      // bogus new state is surgically normalized either way, so foreign
      // (in particular "future") epochs never appear spontaneously and the
      // two-live-epochs invariant behind Z_3 holds.
      disruptive = protocol_->epoch_of(record.old_state) == epoch_;
      if (record.new_state != fresh) {
        sim_->overwrite_state(record.agent, fresh, &oracle_);
      }
      break;
    case pp::FaultKind::kSleep:
      break;  // a stuck agent responds again later; no state is lost
    case pp::FaultKind::kReset:
      break;
  }

  refresh();
  // If the crash took the wave's last carrier, no interaction can ever
  // convert anyone into the current epoch again -- re-seed it.  (Advancing
  // the epoch instead would put three epochs in play and break the Z_3
  // cyclic order.)
  if (old_remaining_ == static_cast<std::int64_t>(sim_->population().size())) {
    seed_current_epoch();
    refresh();
  }
  // A fault can also retire the last old-epoch straggler (it crashed, or
  // was corrupt-normalized into the current epoch); handle_transition never
  // sees that, so a wave waiting on the stragglers would be stranded
  // forever.  Re-evaluating through request_wave releases it -- or clears
  // it, if the fault luckily left the survivors stable.
  if (old_remaining_ == 0 && wave_pending_) request_wave(last_disruption_at_);
  if (disruptive) request_wave(record.at);
}

void RecoveryManager::request_wave(std::uint64_t at) {
  last_disruption_at_ = at;
  wave_pending_ = true;
  // Lucky damage: if the survivors already sit in the stable pattern of
  // the new population size (e.g. the crash removed exactly a leftover
  // free agent), no repair is needed.
  if (oracle_.stable()) {
    wave_pending_ = false;
    return;
  }
  // Serialize waves: while stragglers of the previous epoch remain, the
  // new wave waits (handle_transition starts it on completion).
  if (old_remaining_ == 0) start_wave();
}

void RecoveryManager::start_wave() {
  wave_pending_ = false;
  epoch_ = SelfHealingKPartitionProtocol::next_epoch(epoch_);
  ++waves_;
  PPK_OBS_HOOK(obs_, on_event("recovery.waves"));
  PPK_OBS_HOOK(obs_, set_gauge("recovery.epoch",
                               static_cast<std::int64_t>(epoch_)));
  sim_->set_default_join_state(
      protocol_->encode(epoch_, protocol_->base().initial_state()));
  seed_current_epoch();
  refresh();
}

void RecoveryManager::seed_current_epoch() {
  const pp::StateId fresh =
      protocol_->encode(epoch_, protocol_->base().initial_state());
  // Pick the lowest-index awake agent so the choice is deterministic and
  // the token can spread immediately.
  std::uint32_t seed_agent = 0;
  for (std::uint32_t a = 0; a < sim_->population().size(); ++a) {
    if (!sim_->asleep(a)) {
      seed_agent = a;
      break;
    }
  }
  sim_->overwrite_state(seed_agent, fresh, &oracle_);
  PPK_OBS_HOOK(obs_, on_event("recovery.reseeds"));
}

void RecoveryManager::handle_transition(const pp::SimEvent& event) {
  if (old_remaining_ == 0) return;
  const auto in_epoch = [this](pp::StateId s) {
    return protocol_->epoch_of(s) == epoch_ ? 1 : 0;
  };
  old_remaining_ -= in_epoch(event.p_next) + in_epoch(event.q_next) -
                    in_epoch(event.p) - in_epoch(event.q);
  PPK_ASSERT(old_remaining_ >= 0);
  if (old_remaining_ == 0 && wave_pending_) start_wave();
}

}  // namespace ppk::core
