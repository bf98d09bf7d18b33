// The run()/resume() loop the interaction-counting engines share.
//
// The paper measures the number of interactions drawn until the population
// is stable, null draws included.  Every engine advances differently -- one
// drawn pair, one skipped geometric null run and its effective pair, one
// collision-free batch -- but the measurement around the advances is the
// same, and this loop is its one copy: the exact budget, the stop on
// silence, the SimResult bookkeeping and when to ask the oracle.
//
// An engine derives from EngineLoop<Engine> (CRTP) and implements
//
//   Advance advance(StabilityOracle& oracle, std::uint64_t budget);
//   const Counts& counts() const;   // what run() resets the oracle from
//
// advance() draws at least 1 and at most `budget` (>= 1) interactions,
// adding them to interactions_ and the effective ones to effective_, and
// reports how many it drew and whether it made an oracle callback.  It
// draws none only when the engine can prove the configuration silent under
// its scheduler; the loop then stops short of the budget, with
// stabilized = false unless the oracle already agreed.
//
// The oracle is asked once per grant and then only after an advance that
// notified it.  StabilityOracle's contract makes the verdict a function of
// the callbacks received, and null draws -- single ones, or a skipped run
// truncated at the budget -- make none.
//
// The loop stops on oracle.stable() && !engine.event_due_before(grant_end),
// grant_end being the interaction index one past the grant (saturated).
// Only AgentSimulator's churn rule has scheduled events: a fault changes
// the verdict without an effective draw, so a stable population keeps
// drawing until the last fault the grant reaches has fired.  Every other
// engine keeps the constant-false default, asked only once stable.
//
// The build has no link-time optimization, so each engine with a .cpp
// instantiates its loop there (`template class EngineLoop<AgentSimulator>;`)
// and declares it `extern template` in its header: the engine's per-draw
// advance() then inlines into the loop that runs every interaction.

#pragma once

#include <algorithm>
#include <cstdint>

#include "pp/sim_result.hpp"
#include "pp/stability.hpp"

namespace ppk::pp {

/// What one advance() did.
struct Advance {
  /// Interactions drawn, null included; 0 only when the engine proves
  /// the configuration silent (it then never advances again).
  std::uint64_t interactions = 0;
  /// True iff the oracle received a callback (on_transition / on_batch /
  /// on_external_change), so its verdict may have changed.
  bool notified = false;
};

/// CRTP base owning run(), resume() and the interaction counters of an
/// engine that implements advance() and counts() (see the file comment).
template <class Engine>
class EngineLoop {
 public:
  /// Runs until the oracle reports stability (and no event is due within
  /// the budget), `max_interactions` pairs have been drawn, or the
  /// configuration is provably silent without satisfying the oracle
  /// (stabilized = false with interactions short of the budget).
  /// The budget is exact: interactions() never advances past it.  The
  /// oracle is reset from the current configuration.
  SimResult run(StabilityOracle& oracle,
                std::uint64_t max_interactions = UINT64_MAX) {
    oracle.reset(static_cast<const Engine&>(*this).counts());
    return resume(oracle, max_interactions);
  }

  /// Like run(), but does NOT reset the oracle: continues a run split into
  /// budget chunks (e.g. for wall-clock checks) without discarding oracle
  /// progress such as a QuiescenceOracle lull spanning the chunk boundary.
  SimResult resume(StabilityOracle& oracle,
                   std::uint64_t max_interactions = UINT64_MAX);

  /// Pairs drawn so far, null included (restored by restore()).
  [[nodiscard]] std::uint64_t interactions() const noexcept {
    return interactions_;
  }

  /// The stop rule's hook (see the file comment): no scheduled events.
  [[nodiscard]] constexpr bool event_due_before(std::uint64_t) const noexcept {
    return false;
  }

 protected:
  std::uint64_t interactions_ = 0;  // drawn pairs, null included
  std::uint64_t effective_ = 0;     // pairs whose rule changed a state
};

template <class Engine>
SimResult EngineLoop<Engine>::resume(StabilityOracle& oracle,
                                     std::uint64_t max_interactions) {
  Engine& engine = static_cast<Engine&>(*this);
  const std::uint64_t start_effective = effective_;
  const std::uint64_t grant_end =
      interactions_ + std::min(max_interactions, UINT64_MAX - interactions_);
  std::uint64_t drawn = 0;
  bool stable = oracle.stable();
  while ((!stable || engine.event_due_before(grant_end)) &&
         drawn < max_interactions) {
    const Advance step = engine.advance(oracle, max_interactions - drawn);
    if (step.interactions == 0) break;  // silent, oracle unsatisfied
    drawn += step.interactions;
    if (step.notified) stable = oracle.stable();
  }
  SimResult result;
  result.interactions = drawn;
  result.effective = effective_ - start_effective;
  result.stabilized = stable;
  return result;
}

}  // namespace ppk::pp
