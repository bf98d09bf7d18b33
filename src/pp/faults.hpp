// The fault grammar: injectable fault events and rate-based schedules.
//
// The paper motivates uniform k-partition with fault-prone sensor
// deployments, but its protocol assumes a fixed population and designated
// initial states.  The events below make the gap measurable; the churn
// rule of AgentSimulator (pp/agent_simulator.hpp) executes a schedule of
// them on the interaction clock and records a complete fault trace.
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

#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "pp/protocol.hpp"

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
/// corrupt state).  A targeted event whose explicit `agent` lies past the
/// live population when it fires (earlier crashes shrank it) is dropped,
/// like a crash at the minimum population of 2.
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

}  // namespace ppk::pp
