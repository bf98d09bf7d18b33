// Self-healing uniform k-partition under churn.
//
// The paper's protocol has designated initial states and is NOT
// self-stabilizing: once an agent crashes, the Lemma 1 bookkeeping is
// broken forever and the survivors can be stuck in a non-uniform partition
// (examples/fault_recovery demonstrates this honestly).  Following the
// re-initialization idea of the weak-fairness uniform-partition line of
// work (Yasumi-Ooshita-Inoue), this layer makes the *system* recover even
// though the protocol alone cannot:
//
//  - SelfHealingKPartitionProtocol wraps Algorithm 1 with an epoch stamp
//    in Z_3, tripling the state space to 3(3k-2).  Same-epoch pairs run
//    the base rules unchanged; cross-epoch pairs propagate a reset
//    epidemically: the cyclically-older agent adopts the newer epoch and
//    restarts from the designated initial state.  A restarted agent
//    re-enters the protocol exactly like a late-joining initial agent,
//    which Algorithm 1 absorbs (group sets already locked in are never
//    undone, and fresh initial agents fill the remaining slots).
//
//  - RecoveryManager is the system-side fault handler -- think of the base
//    station of the paper's motivating sensor deployment, or the harness
//    of a fault-injection campaign.  It watches a churn engine's fault
//    trace, decides when the current epoch's bookkeeping is damaged (a
//    committed slot lost to a crash, a state corrupted), and then seeds
//    ONE surviving agent with the next epoch; everything else spreads
//    through ordinary interactions.  Reset waves are serialized: a new
//    wave starts only after the previous one has converted every agent, so
//    at most two consecutive epochs are ever live and the Z_3 cyclic
//    successor order is well-defined.  Corrupted agents are surgically
//    normalized back into the current epoch when the fault is observed,
//    which keeps "future" epochs from ever appearing spontaneously.
//
// What is protocol and what is harness, honestly: crash/corruption
// *detection* is done by the manager with fault-oracle access (anonymous
// finite-state agents cannot detect departures; the paper's model has no
// self-stabilizing exact k-partition).  Everything after detection -- the
// reset wave, re-convergence to the uniform partition of the surviving
// population -- is pure population-protocol dynamics under the same
// scheduler and fairness assumptions as the base protocol.

#pragma once

#include <cstdint>
#include <memory>

#include "core/kpartition.hpp"
#include "pp/agent_simulator.hpp"
#include "pp/population.hpp"
#include "pp/stability.hpp"

namespace ppk::obs {
class ObsSink;
}  // namespace ppk::obs

namespace ppk::core {

class SelfHealingKPartitionProtocol final : public pp::Protocol {
 public:
  /// Epochs live in Z_3: with reset waves serialized (at most two
  /// consecutive epochs concurrently live), the cyclic successor relation
  /// e -> e+1 mod 3 totally orders every pair that can actually meet.
  static constexpr std::uint32_t kEpochs = 3;

  explicit SelfHealingKPartitionProtocol(pp::GroupId k) : base_(k) {}

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] pp::StateId num_states() const override {
    return static_cast<pp::StateId>(kEpochs * base_.num_states());
  }
  [[nodiscard]] pp::StateId initial_state() const override {
    return encode(0, base_.initial_state());
  }
  [[nodiscard]] pp::Transition delta(pp::StateId p,
                                     pp::StateId q) const override;
  [[nodiscard]] pp::GroupId group(pp::StateId s) const override {
    return base_.group(base_of(s));
  }
  [[nodiscard]] pp::GroupId num_groups() const override {
    return base_.num_groups();
  }
  [[nodiscard]] std::string state_name(pp::StateId s) const override;

  // --- Epoch-stamped state encoding --------------------------------------

  [[nodiscard]] pp::StateId encode(std::uint32_t epoch,
                                   pp::StateId base) const {
    PPK_EXPECTS(epoch < kEpochs && base < base_.num_states());
    return static_cast<pp::StateId>(epoch * base_.num_states() + base);
  }
  [[nodiscard]] std::uint32_t epoch_of(pp::StateId s) const {
    return s / base_.num_states();
  }
  [[nodiscard]] pp::StateId base_of(pp::StateId s) const {
    return static_cast<pp::StateId>(s % base_.num_states());
  }
  [[nodiscard]] static std::uint32_t next_epoch(std::uint32_t e) noexcept {
    return (e + 1) % kEpochs;
  }

  [[nodiscard]] const KPartitionProtocol& base() const noexcept {
    return base_;
  }

 private:
  KPartitionProtocol base_;
};

/// Churn-aware stability oracle for the self-healing wrapper: stable iff
/// every agent carries the target epoch and the base-state counts match
/// the Lemma 6 stable pattern of the *current* population size.  O(1) per
/// protocol transition; rebuilt (configure) by the RecoveryManager on
/// epoch changes and by on_external_change on churn.  Never stable while
/// fewer than 3 agents survive (the paper's standing assumption).
class HealingOracle final : public pp::StabilityOracle {
 public:
  explicit HealingOracle(const SelfHealingKPartitionProtocol& protocol);

  /// Rebuilds classes and targets for (epoch, |counts|) and recounts.
  void configure(std::uint32_t epoch, const pp::Counts& counts);

  void reset(const pp::Counts& counts) override;
  void on_transition(pp::StateId p, pp::StateId q, pp::StateId p_next,
                     pp::StateId q_next) override;
  void on_external_change(const pp::Counts& counts) override;
  [[nodiscard]] bool stable() const override {
    return n_ >= 3 && mismatch_ == 0;
  }

  [[nodiscard]] std::uint32_t epoch() const noexcept { return epoch_; }

 private:
  void bump(std::uint16_t cls, int delta);
  void recount(const pp::Counts& counts);

  const SelfHealingKPartitionProtocol* protocol_;
  std::uint32_t epoch_ = 0;
  std::uint32_t n_ = 0;
  /// Class layout: 0 = current epoch's {initial, initial'}; s-1 for every
  /// other current-epoch base state s; last class = all foreign epochs
  /// (target 0).
  std::vector<std::uint16_t> state_class_;
  std::vector<std::uint32_t> target_;
  std::vector<std::uint32_t> current_;
  std::uint32_t mismatch_ = 0;
};

/// System-side recovery controller.  Wires itself into a churn engine's
/// fault and transition observer slots (it owns both) and seeds epidemic
/// reset waves whenever churn damages the current epoch's bookkeeping.
/// All decisions are deterministic functions of the fault trace, so runs
/// remain seed-reproducible.
class RecoveryManager {
 public:
  /// `sim` must be built with the churn rule (a fault schedule, possibly
  /// empty) and outlive the manager.
  RecoveryManager(const SelfHealingKPartitionProtocol& protocol,
                  pp::AgentSimulator& sim);

  /// The oracle to pass to the engine's run(); tracks epoch changes and
  /// churn automatically.
  [[nodiscard]] pp::StabilityOracle& oracle() noexcept { return oracle_; }

  [[nodiscard]] std::uint32_t epoch() const noexcept { return epoch_; }
  [[nodiscard]] std::uint32_t waves_started() const noexcept { return waves_; }
  /// Interaction index of the last fault that required repair (0 if none).
  [[nodiscard]] std::uint64_t last_disruption_at() const noexcept {
    return last_disruption_at_;
  }
  /// True while a damaged configuration has not yet re-stabilized.
  [[nodiscard]] bool wave_pending() const noexcept { return wave_pending_; }

  /// Attaches an observability sink (obs/sink.hpp); nullptr detaches.  The
  /// manager counts recovery.waves and recovery.reseeds and tracks the
  /// current epoch in the recovery.epoch gauge; the sink must outlive the
  /// manager.
  void set_obs_sink(obs::ObsSink* sink) noexcept { obs_ = sink; }

 private:
  void handle_fault(const pp::FaultRecord& record);
  void handle_transition(const pp::SimEvent& event);
  void request_wave(std::uint64_t at);
  void start_wave();
  /// Writes the current epoch's initial state into one surviving agent.
  void seed_current_epoch();
  /// Recounts stragglers and reconfigures the oracle from the live counts.
  void refresh();

  const SelfHealingKPartitionProtocol* protocol_;
  pp::AgentSimulator* sim_;
  HealingOracle oracle_;
  std::uint32_t epoch_ = 0;
  /// Agents not yet converted to the current epoch (wave in flight > 0).
  std::int64_t old_remaining_ = 0;
  bool wave_pending_ = false;
  std::uint32_t waves_ = 0;
  std::uint64_t last_disruption_at_ = 0;
  obs::ObsSink* obs_ = nullptr;
};

}  // namespace ppk::core
