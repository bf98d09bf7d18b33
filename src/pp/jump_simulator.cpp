#include "pp/jump_simulator.hpp"

#include <cmath>
#include <unordered_map>

#include "obs/sink.hpp"

namespace ppk::pp {

JumpSimulator::JumpSimulator(const TransitionTable& table, Counts initial,
                             std::uint64_t seed)
    : table_(&table), counts_(std::move(initial)), rng_(seed) {
  PPK_EXPECTS(counts_.size() == table.num_states());
  n_ = 0;
  for (auto c : counts_) n_ += c;
  PPK_EXPECTS(n_ >= 2);

  const std::size_t num_states = table.num_states();
  // Distinct transfers a -> b, numbered in order of first use; the key is
  // a * |Q| + b.
  std::unordered_map<std::size_t, std::uint32_t> transfer_id;
  const auto transfer = [&](StateId from, StateId to) -> std::uint32_t {
    if (from == to) return kNoTransfer;
    const auto [it, inserted] = transfer_id.try_emplace(
        from * num_states + to, static_cast<std::uint32_t>(transfers_.size()));
    if (inserted) transfers_.push_back({0, from, to, 0, 0});
    return it->second;
  };
  row_begin_.assign(num_states + 1, 0);
  for (StateId p = 0; p < num_states; ++p) {
    for (StateId q = 0; q < num_states; ++q) {
      if (!table.effective(p, q)) continue;
      const Transition& t = table.apply(p, q);
      columns_of_row_.push_back(q);
      transfers_of_pair_.push_back(
          {transfer(p, t.initiator), transfer(q, t.responder)});
    }
    row_begin_[p + 1] = static_cast<std::uint32_t>(columns_of_row_.size());
  }

  const auto eff = [&table](StateId p, StateId q) -> std::int64_t {
    return table.effective(p, q) ? 1 : 0;
  };
  increments_.assign(2 * transfers_.size() * num_states, 0);
  for (std::size_t id = 0; id < transfers_.size(); ++id) {
    Transfer& t = transfers_[id];
    const StateId a = t.from;
    const StateId b = t.to;
    t.weight_const = eff(a, a) + eff(b, b) - eff(a, b) - eff(b, a);
    std::int8_t* const row_inc = &increments_[2 * id * num_states];
    std::int8_t* const col_inc = row_inc + num_states;
    for (StateId x = 0; x < num_states; ++x) {
      row_inc[x] = static_cast<std::int8_t>(eff(x, b) - eff(x, a));
      col_inc[x] = static_cast<std::int8_t>(eff(b, x) - eff(a, x));
      if (row_inc[x] != 0 || col_inc[x] != 0) {
        if (t.begin == t.end) t.begin = x;  // first nonzero entry
        t.end = static_cast<StateId>(x + 1);
      }
    }
  }
  rebuild_weights();
}

void JumpSimulator::rebuild_weights() {
  const std::size_t num_states = counts_.size();
  row_sum_.assign(num_states, 0);
  col_sum_.assign(num_states, 0);
  total_weight_ = 0;
  for (StateId p = 0; p < num_states; ++p) {
    const std::int64_t c_p = counts_[p];
    for (std::uint32_t i = row_begin_[p]; i < row_begin_[p + 1]; ++i) {
      const StateId q = columns_of_row_[i];
      row_sum_[p] += static_cast<std::int64_t>(counts_[q]) - (p == q ? 1 : 0);
      col_sum_[q] += c_p;
    }
    // c_p * row_sum_p is 0 whenever c_p is, even at row_sum_p = -1.
    total_weight_ += static_cast<std::uint64_t>(c_p * row_sum_[p]);
  }
}

void JumpSimulator::apply_transfer(std::uint32_t id) {
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
  const std::size_t num_states = counts_.size();
  const std::int8_t* const row_inc = &increments_[2 * id * num_states];
  const std::int8_t* const col_inc = row_inc + num_states;
  std::int64_t* const row_sum = row_sum_.data();
  std::int64_t* const col_sum = col_sum_.data();
  for (std::size_t i = t.begin; i < t.end; ++i) row_sum[i] += row_inc[i];
  for (std::size_t i = t.begin; i < t.end; ++i) col_sum[i] += col_inc[i];
  --counts_[t.from];
  ++counts_[t.to];
}

bool JumpSimulator::step(StabilityOracle& oracle) {
  return advance(oracle, UINT64_MAX).interactions > 0;
}

Advance JumpSimulator::advance(StabilityOracle& oracle, std::uint64_t budget) {
  if (total_weight_ == 0) return {};  // silent configuration

  // Skip the geometric run of null interactions.  p_eff and its log move
  // only with the total weight.
  if (total_weight_ != p_eff_weight_) {
    p_eff_weight_ = total_weight_;
    p_eff_ = static_cast<double>(total_weight_) /
             (static_cast<double>(n_) * static_cast<double>(n_ - 1));
    log1m_p_eff_ = p_eff_ < 1.0 ? std::log1p(-p_eff_) : 0.0;
  }
  const std::uint64_t nulls = rng_.geometric(p_eff_, log1m_p_eff_);
  if (nulls >= budget) {
    // The null run carries past the budget: consume exactly `budget` nulls
    // and stop at the boundary without applying a pair.  Memorylessness
    // makes this exact -- the truncated run's first `budget` draws are
    // distributed as `budget` independent null draws, and the next
    // advance() re-samples the wait from scratch.
    interactions_ += budget;
    PPK_OBS_HOOK(obs_, on_skip(counts_, interactions_, budget,
                               obs::AdvanceKind::kJump));
    return {budget, false};
  }
  interactions_ += nulls + 1;
  ++effective_;
  // Counts are untouched during the null run, so reporting it before the
  // pair is applied gives the timeline exact configurations at boundaries
  // inside the run.
  if (nulls > 0) {
    PPK_OBS_HOOK(obs_, on_skip(counts_, interactions_ - 1, nulls,
                               obs::AdvanceKind::kJump));
  }

  // Sample the effective ordered pair with exact integer weights: the
  // initiator by w_p = c_p * row_sum_p (0 for an empty row, whatever its
  // signed sum), then the responder within row p.
  std::uint64_t u = rng_.below(total_weight_);
  StateId p = 0;
  for (;; ++p) {
    const std::uint64_t w =
        counts_[p] * static_cast<std::uint64_t>(row_sum_[p]);
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
    const std::uint64_t w = counts_[candidate] - (candidate == p ? 1u : 0u);
    if (v < w) break;
    v -= w;
  }
  const StateId q = columns_of_row_[pos];

  // Apply the pair as its initiator's and its responder's transfers, in
  // turn; an agent that keeps its state has none.  The paper's flips
  // (g_i, x) -> (g_i, x') move one agent, so they cost one transfer.
  const PairTransfers& moves = transfers_of_pair_[pos];
  if (moves.initiator != kNoTransfer) apply_transfer(moves.initiator);
  if (moves.responder != kNoTransfer) apply_transfer(moves.responder);

  const Transition& t = table_->apply(p, q);
  if (watch_marks_ != nullptr) {
    const int delta = (t.initiator == watch_state_ ? 1 : 0) +
                      (t.responder == watch_state_ ? 1 : 0) -
                      (p == watch_state_ ? 1 : 0) -
                      (q == watch_state_ ? 1 : 0);
    for (int i = 0; i < delta; ++i) watch_marks_->push_back(interactions_);
  }
  oracle.on_transition(p, q, t.initiator, t.responder);
  PPK_OBS_HOOK(obs_,
               on_apply(counts_, interactions_, obs::AdvanceKind::kJump));
  return {nulls + 1, true};
}

Snapshot JumpSimulator::snapshot() const {
  SnapshotWriter w("jump");
  w.rng(rng_);
  w.u64(interactions_);
  w.u64(effective_);
  w.counts(counts_);
  return std::move(w).take();
}

void JumpSimulator::restore(const Snapshot& snap) {
  SnapshotReader r(snap, "jump");
  r.rng(rng_);
  interactions_ = r.u64();
  effective_ = r.u64();
  Counts counts = r.counts();
  r.finish();
  PPK_EXPECTS(counts.size() == counts_.size());
  counts_ = std::move(counts);
  std::uint64_t n = 0;
  for (const std::uint32_t c : counts_) n += c;
  PPK_EXPECTS(n == n_);
  rebuild_weights();
}

template class EngineLoop<JumpSimulator>;

}  // namespace ppk::pp
