// The reference simulation engine: the literal model of Section 5 of the
// paper.  Each step draws an ordered pair of distinct agents uniformly at
// random and applies delta.  Every draw -- including null interactions,
// where the rule leaves both agents unchanged -- counts as one interaction,
// matching the paper's measurement "total number of interactions until a
// population reaches a stable configuration".

#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "pp/engine_loop.hpp"
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

class AgentSimulator : public EngineLoop<AgentSimulator> {
 public:
  AgentSimulator(const TransitionTable& table, Population population,
                 std::uint64_t seed)
      : table_(&table), population_(std::move(population)), rng_(seed) {
    PPK_EXPECTS(population_.size() >= 2);
  }

  /// Observer invoked after every *effective* interaction.  Null
  /// interactions are invisible to observers (they change nothing).
  void set_observer(std::function<void(const SimEvent&)> observer) {
    observer_ = std::move(observer);
  }

  /// Attaches an observability sink (obs/sink.hpp); nullptr detaches.  The
  /// sink is notified after every drawn interaction (null or effective)
  /// and must outlive the simulator.  Totals count from attachment.
  void set_obs_sink(obs::ObsSink* sink) noexcept { obs_ = sink; }

  /// Draws one pair and applies the rule.  Returns true iff effective.
  bool step(StabilityOracle& oracle);

  /// One draw for the shared run()/resume() loop (pp/engine_loop.hpp).
  /// This engine does not detect silence, so it always draws.
  Advance advance(StabilityOracle& oracle, std::uint64_t /*budget*/) {
    return {1, step(oracle)};
  }

  /// Applies an explicit interaction schedule (pairs of agent indices);
  /// used for trace replay and engine cross-validation.  Returns the number
  /// of effective interactions.
  std::uint64_t replay(
      const std::vector<std::pair<std::uint32_t, std::uint32_t>>& schedule);

  /// Serializable mid-run state: per-agent states, RNG position and
  /// interaction counters (contract in pp/snapshot.hpp).
  [[nodiscard]] Snapshot snapshot() const;

  /// Restores a snapshot() taken from an engine constructed with the same
  /// arguments; resuming afterwards is bit-identical to the snapshotted
  /// engine under the same resume() grants.
  void restore(const Snapshot& snap);

  [[nodiscard]] const Population& population() const noexcept {
    return population_;
  }

  /// Current state counts (what run() resets the oracle from).
  [[nodiscard]] const Counts& counts() const noexcept {
    return population_.counts();
  }

 private:
  void apply_pair(std::uint32_t i, std::uint32_t j, StabilityOracle* oracle,
                  bool* effective);

  const TransitionTable* table_;
  Population population_;
  Xoshiro256 rng_;
  std::function<void(const SimEvent&)> observer_;
  obs::ObsSink* obs_ = nullptr;
};

extern template class EngineLoop<AgentSimulator>;

}  // namespace ppk::pp
