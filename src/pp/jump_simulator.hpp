// The skip-ahead ("jump") simulation engine.
//
// In the late phase of a k-partition run -- and throughout the large-k
// regime of the paper's Figure 6 -- the overwhelming majority of drawn
// pairs are null interactions: at k = 24, n = 960 over 97% of the ~2x10^9
// interactions change nothing.  The plain engines pay for each of them.
//
// This engine never draws a null pair.  In a configuration whose effective
// pair probability is p_eff, the number of null draws before the next
// effective one is geometric(p_eff); the engine samples that count in O(1)
// (inverse transform), advances the interaction counter by it, and then
// samples an *effective* ordered pair (p, q) proportional to its exact
// probability c_p * (c_q - [p==q]).  Sampling is two-stage:
//
//   initiator state  p  with weight  w_p = c_p * sum_q eff(p,q) (c_q - [p==q])
//   responder state  q  with weight  eff(p,q) * (c_q - [p==q])
//
// The bookkeeping is dense and incremental.  Beside the row sums
// row_sum_p = sum_q eff(p,q) (c_q - [p==q]) the engine keeps column sums
// col_sum_q = sum_p eff(p,q) c_p, and the total W = sum_p c_p row_sum_p.
// An effective transition is applied as one net count change per distinct
// state (two states for a rule that moves one agent, at most four); a
// change of delta at state u moves W by
//
//   delta (col_sum_u + row_sum_u) + delta^2 eff(u,u)
//
// in O(1), and the sums by one branch-free, vectorizable pass each over
// dense |Q|-wide mask rows.  The initiator scan computes c_p row_sum_p on
// the fly; the responder scan walks row p's effective columns.  So an
// effective interaction costs O(|Q|) with small constants, independent of
// how many nulls were skipped.
//
// Exactness: pair selection uses exact integer weights; only the geometric
// skip length uses floating point (p_eff as a double), whose rounding is
// ~1 ulp -- negligible against Monte-Carlo noise, and validated against
// the exact engines in the test suite.
//
// When it wins: the cost per *effective* interaction is O(|Q|) -- about
// 190-220 ns for the paper's protocol at k = 16 (|Q| = 46) on a 4-vCPU
// Xeon -- versus the agent engine's O(1) per *drawn* interaction, so the
// speedup is roughly (null ratio) / |Q| x (agent step cost).  The null
// ratio grows with n, so the win does too.  Measured to stabilization (the
// auto_crossover block of bench/batch_throughput): at n >= 320 this engine
// beats the agent engine at every point -- the paper's protocol by
// ~1.4x (k = 16) to ~10x (k = 2), the weak-fairness family under the
// silence oracle by 17-91x, graph bipartition by 4-10x -- which is why
// kAuto picks it for 320 <= n < 1024 (pp::kJumpCrossover).  Below 320 the
// small-|Q| protocols still favour it, while at k = 16 the agent engine
// wins (1.2-1.3x at n = 128-256).  Protocols that keep a large share of
// draws effective lose: approximate majority (~26% effective) runs
// 1.4-1.8x faster on the agent engine at n = 320-1000.  For protocols that
// approach silence (rare effective pairs, e.g. the endgame of leader
// election on huge n) the ratio, and the win, is unbounded.

#pragma once

#include <cstdint>
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
  /// counters (contract in pp/snapshot.hpp).  The weight caches are derived
  /// state and rebuilt by restore().  This engine carries no null-run
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
    return total_weight_;
  }

 private:
  void rebuild_weights();
  /// Moves counts_[state] by `delta` (the net change of one transition at
  /// that state) and updates row_sum_, col_sum_ and the total in O(|Q|).
  void apply_count_change(StateId state, std::int64_t delta);

  /// Dense effective masks, all-ones (-1) where eff(p, q) and 0 elsewhere:
  /// eff_by_row_[p * |Q| + q] and its transpose eff_by_col_[q * |Q| + p].
  /// A count change at u reads row u of each, so both sum updates are
  /// contiguous branch-free loops the compiler vectorizes.
  std::vector<std::int64_t> eff_by_row_;
  std::vector<std::int64_t> eff_by_col_;
  /// Columns q with eff(p, q), per row p, as CSR (responder scan):
  /// columns_of_row_[row_begin_[p] .. row_begin_[p + 1]).
  std::vector<StateId> columns_of_row_;
  std::vector<std::uint32_t> row_begin_;

  const TransitionTable* table_;
  Counts counts_;
  Xoshiro256 rng_;
  std::uint64_t n_ = 0;
  /// row_sum_[p] = sum_q eff(p,q) * (c_q - [p==q]); signed because the
  /// diagonal term is -1 while c_p == 0 (the row weight c_p * row_sum_p
  /// is 0 there regardless).
  std::vector<std::int64_t> row_sum_;
  /// col_sum_[q] = sum_p eff(p,q) * c_p.
  std::vector<std::int64_t> col_sum_;
  /// sum_p c_p * row_sum_p, kept in O(1) per count change.
  std::uint64_t total_weight_ = 0;
  StateId watch_state_ = 0;
  std::vector<std::uint64_t>* watch_marks_ = nullptr;
  obs::ObsSink* obs_ = nullptr;
};

extern template class EngineLoop<JumpSimulator>;

}  // namespace ppk::pp
