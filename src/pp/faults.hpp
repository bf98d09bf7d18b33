// Fault injection and population churn.
//
// The paper motivates uniform k-partition with fault-prone sensor
// deployments, but its protocol assumes a fixed population and designated
// initial states.  This subsystem makes the gap measurable: it defines the
// injectable fault events (agent crash, join, transient state corruption,
// temporarily stuck agents), and a churn-capable engine that executes a
// deterministic, seed-reproducible fault schedule against the agent-array
// simulator while recording a complete fault trace.
//
// Semantics:
//  - kCrash    an agent disappears; its state (and any group slot the
//              protocol's bookkeeping assigned to it) is lost.
//  - kJoin     a new agent appears, by default in the configured join
//              state (the protocol's designated initial state).
//  - kCorrupt  an agent's memory is overwritten with another state
//              (a transient bit-flip; the agent keeps running).
//  - kSleep    an agent stops responding for `duration` interactions;
//              pairs that draw a sleeping agent are null interactions.
//  - kReset    a surgical write performed by a recovery layer (see
//              core/recovery.hpp); never produced by schedules, but
//              recorded in the trace so it is a complete audit log.
//
// Determinism: fault-target resolution draws from an RNG stream separate
// from the pair-sampling stream, so enabling a schedule never perturbs the
// interaction sequence itself, and (seed, schedule) reproduces a run
// bit-for-bit.

#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

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

enum class FaultKind : std::uint8_t {
  kCrash,
  kJoin,
  kCorrupt,
  kSleep,
  kReset,
};

[[nodiscard]] const char* fault_kind_name(FaultKind kind) noexcept;

/// One scheduled fault.  Unset optional fields are resolved by the engine
/// when the event fires (uniform agent draw / default join state / uniform
/// corrupt state).
struct FaultEvent {
  /// The event fires after `at` pairs have been drawn, i.e. just before
  /// the (at+1)-th interaction; at = 0 fires before the first pair.
  std::uint64_t at = 0;
  FaultKind kind = FaultKind::kCrash;
  std::optional<std::uint32_t> agent;
  std::optional<StateId> state;
  /// kSleep only: how many interactions the agent stays stuck.
  std::uint64_t duration = 0;
};

/// What actually happened: every applied fault, with the resolved agent and
/// states, in execution order.
struct FaultRecord {
  std::uint64_t at = 0;
  FaultKind kind = FaultKind::kCrash;
  std::uint32_t agent = 0;
  StateId old_state = 0;  // kJoin: equals new_state
  StateId new_state = 0;  // kCrash: equals old_state
  std::uint32_t population_after = 0;
};

using FaultTrace = std::vector<FaultRecord>;

/// Per-interaction fault probabilities for rate-based schedules.
struct FaultRates {
  double crash = 0.0;
  double join = 0.0;
  double corrupt = 0.0;
  double sleep = 0.0;
  /// Duration assigned to every rate-generated kSleep event.
  std::uint64_t sleep_duration = 10'000;
};

/// Expands rates into an explicit, deterministic event list over the first
/// `horizon` interactions (geometric gap sampling, so cost is O(#events)
/// not O(horizon)).  Events are sorted by firing time.
[[nodiscard]] std::vector<FaultEvent> make_fault_schedule(
    const FaultRates& rates, std::uint64_t horizon, std::uint64_t seed);

/// The churn-capable reference engine.  Behaves exactly like AgentSimulator
/// (ordered uniform pair draws; null interactions count) plus a fault
/// schedule executed at the scheduled interaction indices, surgical fault
/// primitives for recovery layers, and a fault trace.
///
/// Every fault notifies the stability oracle via on_external_change() --
/// oracles built for a fixed population go stale and fail loudly (see
/// stability.hpp) -- and then the fault observer, which may itself apply
/// surgical writes (this is how core::RecoveryManager seeds reset waves).
class ChurnSimulator {
 public:
  ChurnSimulator(const TransitionTable& table, Population population,
                 std::uint64_t seed)
      : table_(&table),
        population_(std::move(population)),
        pair_rng_(derive_stream_seed(seed, 0)),
        fault_rng_(derive_stream_seed(seed, 1)),
        sleep_until_(population_.size(), 0) {
    PPK_EXPECTS(population_.size() >= 2);
  }

  /// Installs the fault schedule (sorted by firing time internally).
  void set_schedule(std::vector<FaultEvent> schedule);

  /// State that kJoin events without an explicit state enter; defaults to
  /// state 0.  Recovery layers keep this pointed at the current epoch's
  /// initial state.
  void set_default_join_state(StateId s) {
    PPK_EXPECTS(s < table_->num_states());
    default_join_state_ = s;
  }

  /// Observer invoked after every applied fault (including surgical ones).
  void set_fault_observer(std::function<void(const FaultRecord&)> observer) {
    fault_observer_ = std::move(observer);
  }

  /// Observer invoked after every effective interaction, as in
  /// AgentSimulator.
  void set_observer(std::function<void(const SimEvent&)> observer) {
    observer_ = std::move(observer);
  }

  /// Attaches an observability sink (obs/sink.hpp); nullptr detaches.  The
  /// sink is notified per drawn interaction, counts applied faults per kind
  /// (faults.crash, faults.join, ...) and tracks the live population size
  /// in the churn.population gauge; it must outlive the simulator.
  void set_obs_sink(obs::ObsSink* sink) noexcept { obs_ = sink; }

  /// Applies due faults, then draws and applies one pair.  Returns true
  /// iff the interaction was effective.
  bool step(StabilityOracle& oracle);

  /// Runs until the oracle reports stability *and* no scheduled events
  /// remain, or the interaction budget is exhausted.  (A stable population
  /// keeps drawing null pairs until the next scheduled fault fires, so
  /// fault times are honored on the same interaction clock the paper
  /// measures.)  Events scheduled beyond the budget never fire; once the
  /// oracle is stable and only such events remain, the run ends early
  /// instead of idling the rest of the budget away on null draws.
  ///
  /// This is the one engine that keeps its own loop instead of the shared
  /// EngineLoop (pp/engine_loop.hpp): a fault changes the verdict through
  /// on_external_change without any effective interaction, so the query
  /// cannot be skipped after a null draw, and the engine keeps drawing
  /// past stability while scheduled events remain.
  SimResult run(StabilityOracle& oracle, std::uint64_t max_interactions);

  /// Like run(), but does NOT reset the oracle: continues a run split into
  /// budget chunks without discarding oracle progress (e.g. a quiescence
  /// lull spanning the chunk boundary).
  SimResult resume(StabilityOracle& oracle, std::uint64_t max_interactions);

  // --- Surgical fault primitives (recovery layers, examples) -------------
  // All of them record a FaultRecord, notify `oracle` (when non-null) via
  // on_external_change, and invoke the fault observer.

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

  /// Makes an agent unresponsive for `duration` interactions.
  void sleep(std::optional<std::uint32_t> agent, std::uint64_t duration,
             StabilityOracle* oracle);

  /// Recovery-layer write: sets an agent's state, recorded as kReset.
  void overwrite_state(std::uint32_t agent, StateId state,
                       StabilityOracle* oracle);

  /// Serializable mid-run state: per-agent states, both RNG streams, the
  /// sleep table, the schedule cursor, the default join state and the
  /// interaction counters (contract in pp/snapshot.hpp).  The schedule
  /// itself is a constructor-time input -- reinstall it via set_schedule()
  /// before restoring -- and the fault trace is an audit log, not replayed
  /// state: a restored engine records faults from the restore point on.
  [[nodiscard]] Snapshot snapshot() const;

  /// Restores a snapshot() taken from an engine with the same table and the
  /// same installed schedule; resuming afterwards is bit-identical to the
  /// snapshotted engine under the same resume() grants.
  void restore(const Snapshot& snap);

  // --- Accessors ----------------------------------------------------------

  [[nodiscard]] bool asleep(std::uint32_t agent) const noexcept {
    return sleep_until_[agent] > interactions_;
  }

  [[nodiscard]] const Population& population() const noexcept {
    return population_;
  }

  /// Current state counts (what run() resets the oracle from).
  [[nodiscard]] const Counts& counts() const noexcept {
    return population_.counts();
  }

  [[nodiscard]] const FaultTrace& trace() const noexcept { return trace_; }

  [[nodiscard]] std::uint64_t interactions() const noexcept {
    return interactions_;
  }

  [[nodiscard]] std::uint64_t effective() const noexcept { return effective_; }

  [[nodiscard]] std::size_t pending_events() const noexcept {
    return schedule_.size() - next_event_;
  }

 private:
  void apply_due_faults(StabilityOracle& oracle);
  std::uint32_t resolve_agent(const std::optional<std::uint32_t>& agent);
  void record(FaultKind kind, std::uint32_t agent, StateId old_state,
              StateId new_state, StabilityOracle* oracle);

  const TransitionTable* table_;
  Population population_;
  Xoshiro256 pair_rng_;
  Xoshiro256 fault_rng_;
  /// Per-agent wake time; kept index-aligned with the population across
  /// crash swap-removals.
  std::vector<std::uint64_t> sleep_until_;
  std::vector<FaultEvent> schedule_;
  std::size_t next_event_ = 0;
  StateId default_join_state_ = 0;
  FaultTrace trace_;
  std::function<void(const FaultRecord&)> fault_observer_;
  std::function<void(const SimEvent&)> observer_;
  obs::ObsSink* obs_ = nullptr;
  std::uint64_t interactions_ = 0;
  std::uint64_t effective_ = 0;
};

}  // namespace ppk::pp
