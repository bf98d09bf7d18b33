#include "pp/batch_simulator.hpp"

#include <cmath>

#include "obs/sink.hpp"
#include "util/assert.hpp"
#include "util/log_fact.hpp"

namespace ppk::pp {

BatchSimulator::BatchSimulator(const TransitionTable& table, Counts initial,
                               std::uint64_t seed)
    : table_(&table), counts_(std::move(initial)), rng_(seed) {
  PPK_EXPECTS(counts_.size() == table.num_states());
  n_ = 0;
  for (auto c : counts_) n_ += c;
  PPK_EXPECTS(n_ >= 2);

  const StateId num_states = table.num_states();
  for (StateId p = 0; p < num_states; ++p) {
    for (StateId q = 0; q < num_states; ++q) {
      if (table.effective(p, q)) effective_cells_.emplace_back(p, q);
    }
  }
  initiators_.resize(num_states);
  responders_.resize(num_states);
  remaining_.resize(num_states);
  touched_.resize(num_states);
  count_delta_.resize(num_states);

  if (n_ <= kLogFactTableMax) log_fact_ = LogFactTable::shared(n_);
}

std::uint64_t BatchSimulator::effective_weight() const {
  std::uint64_t weight = 0;
  for (const auto& [p, q] : effective_cells_) {
    const std::uint64_t cp = counts_[p];
    const std::uint64_t cq = counts_[q];
    weight += p == q ? cp * (cp - 1) : cp * cq;  // cp == 0 makes either 0
  }
  return weight;
}

bool use_batch_regime(BatchMode mode, std::uint64_t weight,
                      std::uint64_t n) {
  switch (mode) {
    case BatchMode::kForceBatch:
      return true;
    case BatchMode::kForceThin:
      return false;
    case BatchMode::kAuto:
      break;
  }
  constexpr double kThinCrossover = 8.0;
  return static_cast<double>(weight) * std::sqrt(static_cast<double>(n)) >=
         kThinCrossover * static_cast<double>(n) *
             static_cast<double>(n - 1);
}

bool BatchSimulator::step(StabilityOracle& oracle) {
  return advance(oracle, UINT64_MAX).interactions > 0;
}

Snapshot BatchSimulator::snapshot() const {
  SnapshotWriter w("batch");
  w.rng(rng_);
  w.u64(interactions_);
  w.u64(effective_);
  w.u64(static_cast<std::uint64_t>(mode_));
  w.counts(counts_);
  return std::move(w).take();
}

void BatchSimulator::restore(const Snapshot& snap) {
  SnapshotReader r(snap, "batch");
  r.rng(rng_);
  interactions_ = r.u64();
  effective_ = r.u64();
  const std::uint64_t mode = r.u64();
  PPK_EXPECTS(mode <= static_cast<std::uint64_t>(BatchMode::kForceThin));
  Counts counts = r.counts();
  r.finish();
  PPK_EXPECTS(counts.size() == counts_.size());
  std::uint64_t n = 0;
  for (const std::uint32_t c : counts) n += c;
  PPK_EXPECTS(n == n_);
  counts_ = std::move(counts);
  mode_ = static_cast<BatchMode>(mode);
}

Advance BatchSimulator::advance(StabilityOracle& oracle,
                                std::uint64_t budget) {
  const std::uint64_t weight = effective_weight();
  if (weight == 0) return {};  // silent configuration
  if (use_batch_regime(mode_, weight, n_)) {
    return {batch_advance(oracle, budget), true};  // one on_batch callback
  }
  return thin_advance(oracle, budget, weight);
}

void BatchSimulator::apply_pair(StateId p, StateId q) {
  const Transition& t = table_->apply(p, q);
  --counts_[p];
  --counts_[q];
  ++counts_[t.initiator];
  ++counts_[t.responder];
  ++effective_;
}

Advance BatchSimulator::thin_advance(StabilityOracle& oracle,
                                     std::uint64_t budget,
                                     std::uint64_t weight) {
  const double p_eff =
      static_cast<double>(weight) /
      (static_cast<double>(n_) * static_cast<double>(n_ - 1));
  const std::uint64_t nulls = rng_.geometric(p_eff);
  if (nulls >= budget) {
    // Clamp at the boundary without applying a pair; exact by the
    // memorylessness of the geometric (see jump_simulator.cpp).
    interactions_ += budget;
    PPK_OBS_HOOK(obs_, on_skip(counts_, interactions_, budget,
                               obs::AdvanceKind::kThin));
    return {budget, false};
  }
  interactions_ += nulls + 1;
  // Counts are untouched during the null run; report it before the pair is
  // applied so timeline boundaries inside the run get exact configurations.
  if (nulls > 0) {
    PPK_OBS_HOOK(obs_, on_skip(counts_, interactions_ - 1, nulls,
                               obs::AdvanceKind::kThin));
  }

  // One effective ordered pair with exact integer weights.
  std::uint64_t u = rng_.below(weight);
  StateId p = 0;
  StateId q = 0;
  for (const auto& [cp_state, cq_state] : effective_cells_) {
    const std::uint64_t cp = counts_[cp_state];
    const std::uint64_t cq = counts_[cq_state];
    const std::uint64_t w =
        cp_state == cq_state ? cp * (cp - 1) : cp * cq;
    if (u < w) {
      p = cp_state;
      q = cq_state;
      break;
    }
    u -= w;
  }
  const Transition& t = table_->apply(p, q);  // fetch before counts move
  apply_pair(p, q);
  oracle.on_transition(p, q, t.initiator, t.responder);
  PPK_OBS_HOOK(obs_,
               on_apply(counts_, interactions_, obs::AdvanceKind::kThin));
  return {nulls + 1, true};
}

std::uint64_t BatchSimulator::sample_run_length() {
  // Invert P(L >= l) = n! / ((n-2l)! * (n(n-1))^l) in log space.  The
  // survival function is strictly decreasing, P(L >= 1) = 1, and L cannot
  // exceed floor(n/2); binary search costs O(log n) lgamma pairs per batch
  // of Theta(sqrt(n)) interactions.
  const double u = 1.0 - rng_.uniform01();  // in (0, 1]
  const double target = std::log(u);
  const double nd = static_cast<double>(n_);
  const double lg_n = log_fact(nd);
  const double log_pairs = std::log(nd) + std::log(nd - 1.0);
  auto log_survival = [&](std::uint64_t l) {
    return lg_n - log_fact(nd - 2.0 * static_cast<double>(l)) -
           static_cast<double>(l) * log_pairs;
  };
  std::uint64_t lo = 1;  // always survives
  std::uint64_t hi = n_ / 2;
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo + 1) / 2;
    if (log_survival(mid) >= target) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return lo;
}

std::uint64_t BatchSimulator::batch_advance(StabilityOracle& oracle,
                                            std::uint64_t budget) {
  const StateId num_states = table_->num_states();
  const std::uint64_t run = sample_run_length();
  // Truncating at the budget conditions only on "the first `budget` draws
  // are collision-free" -- the sampled run's exact value beyond the
  // truncation is discarded unused, so the truncated batch stays exact and
  // the budget is never overshot.
  const std::uint64_t batch = run < budget ? run : budget;
  const bool collision = run < budget;  // interaction `run`+1 fits in budget

  const auto lf = [this](double x) { return log_fact(x); };

  // Initiator state multiset U: multivariate hypergeometric over the
  // counts, decomposed sequentially (state order fixed for
  // reproducibility).
  std::uint64_t urn_total = n_;
  std::uint64_t draw = batch;
  for (StateId s = 0; s < num_states; ++s) {
    const std::uint64_t x =
        rng_.hypergeometric(urn_total, counts_[s], draw, lf);
    initiators_[s] = static_cast<std::uint32_t>(x);
    urn_total -= counts_[s];
    draw -= x;
  }
  // Responder state multiset V: same, over the agents U left behind.
  urn_total = n_ - batch;
  draw = batch;
  for (StateId s = 0; s < num_states; ++s) {
    const std::uint64_t left = counts_[s] - initiators_[s];
    const std::uint64_t x = rng_.hypergeometric(urn_total, left, draw, lf);
    responders_[s] = static_cast<std::uint32_t>(x);
    urn_total -= left;
    draw -= x;
  }

  // Ordered state-pair contingency table: pair U against V by a uniform
  // matching, realized as a sequential hypergeometric split of the
  // unmatched responders per initiator row.  Cells are applied in
  // aggregate as they are drawn -- all batch interactions touch distinct
  // agents, so the rule applications commute.
  std::fill(touched_.begin(), touched_.end(), 0);
  std::fill(count_delta_.begin(), count_delta_.end(), 0);
  remaining_ = responders_;
  std::uint64_t unmatched = batch;
  std::uint64_t batch_effective = 0;
  for (StateId p = 0; p < num_states; ++p) {
    std::uint64_t need = initiators_[p];
    if (need == 0) continue;
    std::uint64_t pool = unmatched;
    unmatched -= need;
    for (StateId q = 0; q < num_states && need > 0; ++q) {
      const std::uint64_t m =
          rng_.hypergeometric(pool, remaining_[q], need, lf);
      pool -= remaining_[q];
      remaining_[q] -= static_cast<std::uint32_t>(m);
      need -= m;
      if (m == 0) continue;
      if (table_->effective(p, q)) {
        const Transition& t = table_->apply(p, q);
        const auto delta = static_cast<std::int64_t>(m);
        count_delta_[p] -= delta;
        count_delta_[q] -= delta;
        count_delta_[t.initiator] += delta;
        count_delta_[t.responder] += delta;
        touched_[t.initiator] += static_cast<std::uint32_t>(m);
        touched_[t.responder] += static_cast<std::uint32_t>(m);
        batch_effective += m;
      } else {
        touched_[p] += static_cast<std::uint32_t>(m);
        touched_[q] += static_cast<std::uint32_t>(m);
      }
    }
  }
  for (StateId s = 0; s < num_states; ++s) {
    counts_[s] = static_cast<std::uint32_t>(
        static_cast<std::int64_t>(counts_[s]) + count_delta_[s]);
  }
  interactions_ += batch;
  effective_ += batch_effective;
  std::uint64_t advanced = batch;

  if (collision) {
    // The (run+1)-th interaction: a uniform ordered pair of distinct
    // agents conditioned on at least one being among the 2*run touched.
    // Weight of an ordered state pair = its unconditional weight in the
    // post-batch configuration minus its fresh-fresh weight; fresh agents
    // carry pre-batch states, and per state fresh = counts - touched.
    const std::uint64_t fresh_total = n_ - 2 * batch;
    const std::uint64_t total_weight =
        n_ * (n_ - 1) - fresh_total * (fresh_total - 1);
    std::uint64_t u = rng_.below(total_weight);
    StateId a = 0;
    StateId b = 0;
    bool found = false;
    for (StateId s1 = 0; s1 < num_states && !found; ++s1) {
      const std::uint64_t c1 = counts_[s1];
      if (c1 == 0) continue;
      const std::uint64_t f1 = c1 - touched_[s1];
      for (StateId s2 = 0; s2 < num_states; ++s2) {
        const std::uint64_t c2 = counts_[s2];
        const std::uint64_t f2 = c2 - touched_[s2];
        const std::uint64_t all =
            s1 == s2 ? c1 * (c1 - 1) : c1 * c2;
        const std::uint64_t fresh =
            s1 == s2 ? f1 * (f1 - 1) : f1 * f2;  // f1 == 0 makes this 0
        const std::uint64_t w = all - fresh;
        if (u < w) {
          a = s1;
          b = s2;
          found = true;
          break;
        }
        u -= w;
      }
    }
    PPK_ASSERT(found);
    if (table_->effective(a, b)) {
      apply_pair(a, b);
      ++batch_effective;
    }
    ++interactions_;
    ++advanced;
  }

  oracle.on_batch(counts_, advanced, batch_effective);
  PPK_OBS_HOOK(obs_, on_advance(counts_, interactions_, advanced,
                                batch_effective, obs::AdvanceKind::kBatch));
  return advanced;
}

template class EngineLoop<BatchSimulator>;

}  // namespace ppk::pp
