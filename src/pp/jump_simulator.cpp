#include "pp/jump_simulator.hpp"

#include <array>
#include <cmath>

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
  eff_by_row_.assign(num_states * num_states, 0);
  eff_by_col_.assign(num_states * num_states, 0);
  row_begin_.assign(num_states + 1, 0);
  for (StateId p = 0; p < num_states; ++p) {
    for (StateId q = 0; q < num_states; ++q) {
      if (!table.effective(p, q)) continue;
      eff_by_row_[p * num_states + q] = -1;
      eff_by_col_[q * num_states + p] = -1;
      columns_of_row_.push_back(q);
    }
    row_begin_[p + 1] = static_cast<std::uint32_t>(columns_of_row_.size());
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

void JumpSimulator::apply_count_change(StateId state, std::int64_t delta) {
  // W = sum_{p,q} eff(p,q) c_p c_q - sum_p eff(p,p) c_p, so moving c_u by
  // delta changes it by delta * (col_sum_u + row_sum_u) + delta^2 eff(u,u)
  // (row_sum_u already carries the -eff(u,u) of the linear term).
  const std::size_t num_states = counts_.size();
  const std::int64_t* const col = &eff_by_col_[state * num_states];
  const std::int64_t* const row = &eff_by_row_[state * num_states];
  total_weight_ += static_cast<std::uint64_t>(
      delta * (col_sum_[state] + row_sum_[state]) +
      ((delta * delta) & row[state]));
  // Column `state` feeds row_sum_ of every row p with eff(p, state); row
  // `state` feeds col_sum_ of every column q with eff(state, q).  The masks
  // are all-ones or zero, so both updates are one branch-free pass.
  std::int64_t* const row_sum = row_sum_.data();
  std::int64_t* const col_sum = col_sum_.data();
  for (std::size_t i = 0; i < num_states; ++i) row_sum[i] += delta & col[i];
  for (std::size_t i = 0; i < num_states; ++i) col_sum[i] += delta & row[i];
  counts_[state] =
      static_cast<std::uint32_t>(static_cast<std::int64_t>(counts_[state]) +
                                 delta);
}

bool JumpSimulator::step(StabilityOracle& oracle) {
  return advance(oracle, UINT64_MAX).interactions > 0;
}

Advance JumpSimulator::advance(StabilityOracle& oracle, std::uint64_t budget) {
  if (total_weight_ == 0) return {};  // silent configuration

  // Skip the geometric run of null interactions.
  const double p_eff = static_cast<double>(total_weight_) /
                       (static_cast<double>(n_) * static_cast<double>(n_ - 1));
  const std::uint64_t nulls = rng_.geometric(p_eff);
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
  std::uint64_t v = u % static_cast<std::uint64_t>(row_sum_[p]);
  StateId q = 0;
  for (std::uint32_t i = row_begin_[p]; i < row_begin_[p + 1]; ++i) {
    const StateId candidate = columns_of_row_[i];
    const std::uint64_t w = counts_[candidate] - (candidate == p ? 1u : 0u);
    if (v < w) {
      q = candidate;
      break;
    }
    v -= w;
  }

  // Apply the net count change once per distinct state: a rule that moves
  // one agent, such as the paper's flips (g_i, x) -> (g_i, x'), touches two
  // states instead of four, and (x, x) -> (y, y) moves two by 2 each.
  const Transition& t = table_->apply(p, q);
  std::array<StateId, 4> states = {p, q, t.initiator, t.responder};
  std::array<std::int64_t, 4> deltas = {-1, -1, +1, +1};
  for (std::size_t i = 1; i < states.size(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      if (states[j] == states[i]) {
        deltas[j] += deltas[i];
        deltas[i] = 0;
        break;
      }
    }
  }
  for (std::size_t i = 0; i < states.size(); ++i) {
    if (deltas[i] != 0) apply_count_change(states[i], deltas[i]);
  }

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
