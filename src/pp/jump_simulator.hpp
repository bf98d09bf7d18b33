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
// The initiator scan computes c_p row_sum_p on the fly; the responder scan
// walks row p's effective columns.
//
// Transfers.  An effective pair (p, q) -> (p', q') is applied as the
// single-agent transfers p -> p' and q -> q', in turn; an agent that keeps
// its state has none, so the paper's free flips (g_i, x) -> (g_i, x') cost
// one.  The constructor lists the table's distinct transfers a -> b and
// stores, per transfer, the constant
//
//   weight_const = eff(a,a) + eff(b,b) - eff(a,b) - eff(b,a)
//
// and two dense |Q|-wide int8 rows, row_inc[x] = eff(x,b) - eff(x,a) and
// col_inc[x] = eff(b,x) - eff(a,x), each in {-1, 0, 1}; each CSR position
// of the responder scan carries its pair's two transfer ids.  Applying
// a -> b moves W by (col_sum_b + row_sum_b) - (col_sum_a + row_sum_a) +
// weight_const (sums read before they move), adds row_inc to row_sum_ and
// col_inc to col_sum_ (two branch-free int8 -> int64 passes the compiler
// vectorizes), then moves one count from a to b.  The passes cover only
// the span [begin, end) outside which both rows are zero.  That span is
// empty when a and b have the same effective pairs, as the paper's two
// free states do, so a free flip moves two counts and no sum.
//
// Why it is exact: W and the sums are polynomials in the counts, and each
// formula above is the exact integer difference of that polynomial across
// one transfer.  Two transfers in turn therefore land on exactly the
// values a from-scratch recount would give -- an effective swap
// (p, q) -> (q, p) nets to zero, (x, x) -> (y, y) applies x -> y twice --
// and the RNG draws read only those values, so a trajectory does not
// depend on how an update is split.  W is kept mod 2^64, so the sign of
// an intermediate step does not matter.
//
// Memory: 2 T |Q| bytes of increment rows for T distinct transfers.
// Measured T: k-partition k = 3: 10, k = 6: 28, k = 16: 88, k = 100: 592,
// k = 1000: 5992 (about 2 |Q|), weak k-partition k = 4: 23.  At k = 1000
// that is 36 MB.  The rows are derived from the table alone, rebuilt by
// the constructor and never snapshotted.
//
// Exactness: pair selection uses exact integer weights; only the geometric
// skip length uses floating point (p_eff as a double), whose rounding is
// ~1 ulp -- negligible against Monte-Carlo noise, and validated against
// the exact engines in the test suite.
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
  /// One agent moving from state `from` to state `to`.  weight_const is
  /// eff(from,from) + eff(to,to) - eff(from,to) - eff(to,from), the part of
  /// the total's change that does not depend on the configuration; the
  /// increment rows are zero outside [begin, end).
  struct Transfer {
    std::int64_t weight_const;
    StateId from;
    StateId to;
    StateId begin;
    StateId end;
  };
  /// The transfers of one effective ordered pair: initiator and responder
  /// (kNoTransfer where that agent keeps its state).
  struct PairTransfers {
    std::uint32_t initiator;
    std::uint32_t responder;
  };
  static constexpr std::uint32_t kNoTransfer = UINT32_MAX;

  void rebuild_weights();
  /// Moves one agent along transfers_[id]: the total in O(1), row_sum_ and
  /// col_sum_ by the transfer's increment rows, then the two counts.
  void apply_transfer(std::uint32_t id);

  /// Columns q with eff(p, q), per row p, as CSR (responder scan):
  /// columns_of_row_[row_begin_[p] .. row_begin_[p + 1]), with the pair's
  /// transfers beside it in transfers_of_pair_.
  std::vector<StateId> columns_of_row_;
  std::vector<PairTransfers> transfers_of_pair_;
  std::vector<std::uint32_t> row_begin_;
  /// The distinct transfers of the table's effective pairs.
  std::vector<Transfer> transfers_;
  /// Per transfer a -> b, two dense |Q|-wide rows at
  /// increments_[2 * id * |Q|]: eff(x,b) - eff(x,a) (row_sum_ increments),
  /// then eff(b,x) - eff(a,x) (col_sum_ increments), each in {-1, 0, 1}.
  std::vector<std::int8_t> increments_;

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
  /// sum_p c_p * row_sum_p, kept in O(1) per transfer.
  std::uint64_t total_weight_ = 0;
  /// The effective probability total_weight_ / (n (n - 1)) and its
  /// log1p(-p_eff), as of the total `p_eff_weight_`: a free flip moves no
  /// pair weight, so most steps reuse them.  0 is never a drawn total.
  std::uint64_t p_eff_weight_ = 0;
  double p_eff_ = 0.0;
  double log1m_p_eff_ = 0.0;
  StateId watch_state_ = 0;
  std::vector<std::uint64_t>* watch_marks_ = nullptr;
  obs::ObsSink* obs_ = nullptr;
};

extern template class EngineLoop<JumpSimulator>;

}  // namespace ppk::pp
