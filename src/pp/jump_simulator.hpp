// The skip-ahead ("jump") simulation engine.
//
// In the late phase of a k-partition run -- and throughout the large-k
// regime of the paper's Figure 6 -- the overwhelming majority of drawn
// pairs are null interactions: at k = 24, n = 960 over 97% of the ~2x10^9
// interactions change nothing.  The plain engines pay for each of them.
//
// This engine never draws a null pair.  Each advance is one step of the
// effective-pair sampler (pp/effective_pair_sampler.hpp): skip the
// geometric(p_eff) null run in O(1), then draw one effective ordered pair
// with exact integer weights and apply it as single-agent transfers.  The
// sampler's header has the bookkeeping (row and column sums, total weight,
// the transfer kernel) and why it is exact.  The batch engines run the same
// sampler as their thin regime, so from the same seed a forced-thin batch
// engine retraces this engine's draws.
//
// Memory: the sampler's increment rows, 2 T |Q| bytes for T distinct
// transfers -- 36 MB at k = 1000, a few hundred bytes at the paper's k.
// They are derived from the table, rebuilt by the constructor and never
// snapshotted.
//
// When it wins: the cost per *effective* interaction is O(|Q|) -- for the
// paper's protocol to stabilization at n = 320, one thread, about 65-80 ns
// at k = 3 (|Q| = 7), 65-90 ns at k = 6 (|Q| = 16) and 80-90 ns at k = 16
// (|Q| = 46) on a 4-vCPU Xeon (Sapphire Rapids, KVM; gcc 12.2, -O3, no
// -march), where the one-transfer free flips are 88-94% of effective
// pairs -- versus the agent engine's O(1) per *drawn* interaction, so the
// speedup is roughly (null ratio) / |Q| x (agent step cost).  The null
// ratio grows with n, so the win does too.  Measured to stabilization (the
// auto_crossover block of bench/batch_throughput): at n >= 320 this engine
// beats the agent engine at every point -- the paper's protocol by
// ~1.4x (k = 16) to ~10x (k = 2), the weak-fairness family under the
// silence oracle by 17-91x, graph bipartition by 4-10x -- which is why
// kAuto picks it for 320 <= n < 1024 (pp::kJumpCrossover).  Below 320 the
// small-|Q| protocols still favour it, and so now does k = 16 at n = 256
// (1.5x in a 3-rep engines smoke); the crossover stays, because moving
// it changes kAuto's trajectories.  Protocols that keep a large share of
// draws effective lose: approximate majority (~26% effective) runs
// 1.4-1.8x faster on the agent engine at n = 320-1000.  For protocols that
// approach silence (rare effective pairs, e.g. the endgame of leader
// election on huge n) the ratio, and the win, is unbounded.

#pragma once

#include <cstdint>
#include <vector>

#include "pp/effective_pair_sampler.hpp"
#include "pp/engine_loop.hpp"
#include "pp/population.hpp"
#include "pp/sim_result.hpp"
#include "pp/snapshot.hpp"
#include "pp/stability.hpp"
#include "pp/transition_table.hpp"
#include "util/rng.hpp"

namespace ppk::pp {

class JumpSimulator : public EngineLoop<JumpSimulator> {
 public:
  JumpSimulator(const TransitionTable& table, Counts initial,
                std::uint64_t seed);

  /// Advances to (and applies) the next effective interaction, adding the
  /// skipped null draws to interactions().  Returns false iff the
  /// configuration has no effective pairs at all (it is silent; calling
  /// step again keeps returning false without advancing).
  bool step(StabilityOracle& oracle);

  /// One bounded advance for the shared run()/resume() loop
  /// (pp/engine_loop.hpp): skips nulls and applies the next effective pair,
  /// but never moves interactions() forward by more than `budget`.  When
  /// the geometric null run reaches the budget, exactly `budget` nulls are
  /// consumed and no pair is applied -- the right distribution, because
  /// the geometric is memoryless: the first `budget` draws of a longer run
  /// are just `budget` null draws.  Advances 0 iff the configuration is
  /// silent.
  Advance advance(StabilityOracle& oracle, std::uint64_t budget);

  /// Records, into `marks`, the interaction index of every increase of
  /// `state`'s count (one entry per unit of increase).  Null skips cannot
  /// change counts, so the indices recorded at effective draws are exact --
  /// identical in distribution to the agent engine's observer-based marks.
  /// Pass nullptr to stop recording.
  void set_watch(StateId state, std::vector<std::uint64_t>* marks) {
    PPK_EXPECTS(marks == nullptr || state < counts_.size());
    watch_state_ = state;
    watch_marks_ = marks;
  }

  /// Attaches an observability sink (obs/sink.hpp); nullptr detaches.  The
  /// sink sees each null run (before the concluding pair is applied, so
  /// timeline samples inside the run are exact) and each effective
  /// interaction; it must outlive the simulator.
  void set_obs_sink(obs::ObsSink* sink) noexcept { obs_ = sink; }

  /// Serializable mid-run state: counts, RNG position and interaction
  /// counters (contract in pp/snapshot.hpp).  The sampler's sums are
  /// derived state and rebuilt by restore().  This engine carries no null-run
  /// remainder across advances (truncation relies on the geometric's
  /// memorylessness), so nothing else needs saving.
  [[nodiscard]] Snapshot snapshot() const;

  /// Restores a snapshot() taken from an engine constructed with the same
  /// arguments; resuming afterwards is bit-identical to the snapshotted
  /// engine under the same resume() grants.  Watch hooks are not part of a
  /// snapshot -- re-attach them after restoring.
  void restore(const Snapshot& snap);

  [[nodiscard]] const Counts& counts() const noexcept { return counts_; }

  [[nodiscard]] std::uint64_t population_size() const noexcept { return n_; }

  /// Exact total weight of effective ordered pairs (out of n(n-1)).
  [[nodiscard]] std::uint64_t effective_weight() const noexcept {
    return sampler_.weight();
  }

 private:
  Counts counts_;
  Xoshiro256 rng_;
  std::uint64_t n_ = 0;
  EffectivePairSampler sampler_;
  StateId watch_state_ = 0;
  std::vector<std::uint64_t>* watch_marks_ = nullptr;
  obs::ObsSink* obs_ = nullptr;
};

extern template class EngineLoop<JumpSimulator>;

}  // namespace ppk::pp
