// The effective-pair sampler: the complete-graph engines' one sparse step.
//
// Near silence almost every drawn pair is null.  In a configuration whose
// effective pair probability is p_eff, the number of null draws before the
// next effective one is geometric(p_eff); the sampler draws that count in
// O(1) (inverse transform) and then one *effective* ordered pair (p, q)
// proportional to its exact probability c_p * (c_q - [p==q]).  Selection
// is two-stage:
//
//   initiator state  p  with weight  w_p = c_p * sum_q eff(p,q) (c_q - [p==q])
//   responder state  q  with weight  eff(p,q) * (c_q - [p==q])
//
// JumpSimulator runs on nothing else; BatchSimulator and
// BatchShardedSimulator run it as their thin regime.  From the same seed
// and counts, the three engines' thin steps are therefore the same draws.
//
// The bookkeeping is dense and incremental.  Beside the row sums
// row_sum_p = sum_q eff(p,q) (c_q - [p==q]) the sampler keeps column sums
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
// values a from-scratch recount (rebuild()) would give -- an effective
// swap (p, q) -> (q, p) nets to zero, (x, x) -> (y, y) applies x -> y
// twice -- and the RNG draws read only those values, so a trajectory does
// not depend on how an update is split.  W is kept mod 2^64, so the sign
// of an intermediate step does not matter.  Only the geometric skip length
// uses floating point (p_eff as a double, ~1 ulp of rounding).
//
// Cost: O(|Q|) per effective pair, O(1) for the paper's free flips; a
// rebuild() is O(E + |Q|) for E effective ordered pairs.  The batch
// engines rebuild after each batch, which costs what recounting W for the
// regime choice costs anyway.
//
// Memory: 2 T |Q| bytes of increment rows for T distinct transfers.
// Measured T: k-partition k = 3: 10, k = 6: 28, k = 16: 88, k = 100: 592,
// k = 1000: 5992 (about 2 |Q|), weak k-partition k = 4: 23.  At k = 1000
// that is 36 MB per engine.  The rows are derived from the table alone,
// rebuilt by every engine constructor and never snapshotted.

#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "obs/sink.hpp"
#include "pp/engine_loop.hpp"
#include "pp/population.hpp"
#include "pp/stability.hpp"
#include "pp/transition_table.hpp"
#include "util/rng.hpp"

namespace ppk::pp {

class EffectivePairSampler {
 public:
  /// Lists the table's transfers and sets the sums from `counts` (n >= 2).
  EffectivePairSampler(const TransitionTable& table, const Counts& counts);

  /// Recomputes the sums and W from `counts` (same population size) in
  /// O(E + |Q|): after a restore, or after counts moved outside step().
  void rebuild(const Counts& counts);

  /// Exact total weight W of effective ordered pairs (out of n(n-1)); 0
  /// iff the configuration is silent.
  [[nodiscard]] std::uint64_t weight() const noexcept { return total_weight_; }

  /// One sparse advance, as an engine's advance() reports it.  Skips the
  /// geometric(p_eff) null run; when it reaches `budget`, consumes exactly
  /// `budget` nulls and applies nothing (exact by memorylessness: the
  /// first `budget` draws of a longer run are `budget` null draws).
  /// Otherwise draws one effective ordered pair (p, q), applies it to
  /// `counts` and notifies `oracle`.  `interactions` and `effective` are
  /// the engine's counters; `obs` sees the null run before the pair moves
  /// a count (exact timeline boundaries inside the run) and the pair after,
  /// both as `kind`.  Requires weight() > 0.
  Advance step(Xoshiro256& rng, Counts& counts, StabilityOracle& oracle,
               std::uint64_t budget, std::uint64_t& interactions,
               std::uint64_t& effective, obs::ObsSink* obs,
               obs::AdvanceKind kind);

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

  /// Moves one agent along transfers_[id]: the total in O(1), row_sum_ and
  /// col_sum_ by the transfer's increment rows, then the two counts.
  void apply_transfer(std::uint32_t id, Counts& counts);

  const TransitionTable* table_;
  std::uint64_t n_ = 0;
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
};

// step() runs once per effective pair.  It is forced inline into each
// engine's advance(): GCC declines on size, and the extra call measured
// 5-10% slower per effective pair on the jump engine.  apply_transfer()
// stays one out-of-line call per transfer, which measured faster than
// inlining it into step() twice.

[[gnu::noinline]] inline void EffectivePairSampler::apply_transfer(
    std::uint32_t id, Counts& counts) {
  // With W = sum_{p,q} eff(p,q) c_p c_q - sum_p eff(p,p) c_p, moving one
  // agent from a to b changes W by (col_sum_b + row_sum_b) -
  // (col_sum_a + row_sum_a) plus the constant eff(a,a) + eff(b,b) -
  // eff(a,b) - eff(b,a), read before the sums move.
  const Transfer& t = transfers_[id];
  total_weight_ +=
      static_cast<std::uint64_t>((col_sum_[t.to] + row_sum_[t.to]) -
                                 (col_sum_[t.from] + row_sum_[t.from]) +
                                 t.weight_const);
  // row_sum_x gains eff(x,b) - eff(x,a) and col_sum_x gains
  // eff(b,x) - eff(a,x): two branch-free int8 -> int64 passes over the
  // span outside which both are zero (empty for a free flip).
  const std::size_t num_states = counts.size();
  const std::int8_t* const row_inc = &increments_[2 * id * num_states];
  const std::int8_t* const col_inc = row_inc + num_states;
  std::int64_t* const row_sum = row_sum_.data();
  std::int64_t* const col_sum = col_sum_.data();
  for (std::size_t i = t.begin; i < t.end; ++i) row_sum[i] += row_inc[i];
  for (std::size_t i = t.begin; i < t.end; ++i) col_sum[i] += col_inc[i];
  --counts[t.from];
  ++counts[t.to];
}

[[gnu::always_inline]] inline Advance EffectivePairSampler::step(
    Xoshiro256& rng, Counts& counts, StabilityOracle& oracle,
    std::uint64_t budget, std::uint64_t& interactions,
    std::uint64_t& effective, [[maybe_unused]] obs::ObsSink* obs,
    [[maybe_unused]] obs::AdvanceKind kind) {
  // Skip the geometric run of null interactions.  p_eff and its log move
  // only with the total weight.
  if (total_weight_ != p_eff_weight_) {
    p_eff_weight_ = total_weight_;
    p_eff_ = static_cast<double>(total_weight_) /
             (static_cast<double>(n_) * static_cast<double>(n_ - 1));
    log1m_p_eff_ = p_eff_ < 1.0 ? std::log1p(-p_eff_) : 0.0;
  }
  const std::uint64_t nulls = rng.geometric(p_eff_, log1m_p_eff_);
  if (nulls >= budget) {
    // The null run carries past the budget: stop at the boundary without
    // applying a pair; the next step re-samples the wait from scratch.
    interactions += budget;
    PPK_OBS_HOOK(obs, on_skip(counts, interactions, budget, kind));
    return {budget, false};
  }
  interactions += nulls + 1;
  ++effective;
  if (nulls > 0) {
    PPK_OBS_HOOK(obs, on_skip(counts, interactions - 1, nulls, kind));
  }

  // The initiator by w_p = c_p * row_sum_p (0 for an empty row, whatever
  // its signed sum), then the responder within row p.
  std::uint64_t u = rng.below(total_weight_);
  StateId p = 0;
  for (;; ++p) {
    const std::uint64_t w = counts[p] * static_cast<std::uint64_t>(row_sum_[p]);
    if (u < w) break;
    u -= w;
  }
  // u is uniform on [0, c_p * row_sum_p); reduce to a uniform responder
  // draw (the row weight is an exact multiple of row_sum, so % is
  // unbiased).  c_p >= 1 here, so the diagonal weight c_p - 1 is >= 0.
  // Both operands usually fit 32 bits, where the remainder is cheaper.
  const auto row_sum = static_cast<std::uint64_t>(row_sum_[p]);
  std::uint64_t v = ((u | row_sum) >> 32) == 0
                        ? static_cast<std::uint32_t>(u) %
                              static_cast<std::uint32_t>(row_sum)
                        : u % row_sum;
  std::uint32_t pos = row_begin_[p];
  for (;; ++pos) {
    const StateId candidate = columns_of_row_[pos];
    const std::uint64_t w = counts[candidate] - (candidate == p ? 1u : 0u);
    if (v < w) break;
    v -= w;
  }
  const StateId q = columns_of_row_[pos];

  // Apply the pair as its initiator's and its responder's transfers, in
  // turn; an agent that keeps its state has none.
  const PairTransfers& moves = transfers_of_pair_[pos];
  if (moves.initiator != kNoTransfer) apply_transfer(moves.initiator, counts);
  if (moves.responder != kNoTransfer) apply_transfer(moves.responder, counts);

  const Transition& t = table_->apply(p, q);
  oracle.on_transition(p, q, t.initiator, t.responder);
  PPK_OBS_HOOK(obs, on_apply(counts, interactions, kind));
  return {nulls + 1, true};
}

}  // namespace ppk::pp
