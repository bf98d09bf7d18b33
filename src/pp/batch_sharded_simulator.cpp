#include "pp/batch_sharded_simulator.hpp"

#include <algorithm>
#include <cmath>
#include <thread>

#include "obs/sink.hpp"
#include "util/assert.hpp"
#include "util/block_sampler.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace ppk::pp {

namespace {

constexpr std::size_t round_up8(std::size_t x) { return (x + 7) & ~std::size_t{7}; }

}  // namespace

BatchShardedSimulator::BatchShardedSimulator(const TransitionTable& table,
                                             Counts initial,
                                             std::uint64_t seed,
                                             std::size_t threads)
    : table_(&table),
      counts_(std::move(initial)),
      rng_(seed),
      log_fact_(0),
      sampler_(table, counts_) {
  PPK_EXPECTS(counts_.size() == table.num_states());
  n_ = 0;
  for (auto c : counts_) n_ += c;
  PPK_EXPECTS(n_ >= 2);
  log_fact_ = LogFact(n_);
  threads_ = threads == 0 ? std::max<std::size_t>(
                                1, std::thread::hardware_concurrency())
                          : threads;

  const StateId num_states = table.num_states();
  d_padded_ = round_up8(num_states);
  counts_soa_.assign(d_padded_, 0);
  fresh_.assign(d_padded_, 0);
  touched_.assign(d_padded_, 0);
  count_delta_.assign(d_padded_, 0);

  initiators_.resize(num_states);
  responders_.resize(num_states);
  v_rem_.resize(num_states);

  // Contiguous initiator-row blocks; with |Q| < kShards the tail shards own
  // empty ranges and never draw (their responder split consumes no RNG).
  shards_.resize(kShards);
  for (std::uint32_t s = 0; s < kShards; ++s) {
    Shard& shard = shards_[s];
    shard.row_begin = static_cast<StateId>(
        (static_cast<std::uint64_t>(num_states) * s) / kShards);
    shard.row_end = static_cast<StateId>(
        (static_cast<std::uint64_t>(num_states) * (s + 1)) / kShards);
    shard.v_share.assign(num_states, 0);
    shard.delta.assign(d_padded_, 0);
    shard.touched.assign(d_padded_, 0);
  }
}

BatchShardedSimulator::~BatchShardedSimulator() = default;

bool BatchShardedSimulator::step(StabilityOracle& oracle) {
  return advance(oracle, UINT64_MAX).interactions > 0;
}

Snapshot BatchShardedSimulator::snapshot() const {
  SnapshotWriter w("batch-sharded");
  w.rng(rng_);
  w.u64(interactions_);
  w.u64(effective_);
  w.u64(static_cast<std::uint64_t>(mode_));
  w.counts(counts_);
  return std::move(w).take();
}

void BatchShardedSimulator::restore(const Snapshot& snap) {
  SnapshotReader r(snap, "batch-sharded");
  r.rng(rng_);
  interactions_ = r.u64();
  effective_ = r.u64();
  const std::uint64_t mode = r.u64();
  PPK_EXPECTS(mode <= static_cast<std::uint64_t>(BatchMode::kForceThin));
  r.counts_into(counts_);
  r.finish();
  std::uint64_t n = 0;
  for (const std::uint32_t c : counts_) n += c;
  PPK_EXPECTS(n == n_);
  mode_ = static_cast<BatchMode>(mode);
  sampler_.rebuild(counts_);
}

Advance BatchShardedSimulator::advance(StabilityOracle& oracle,
                                       std::uint64_t budget) {
  const std::uint64_t weight = sampler_.weight();
  if (weight == 0) return {};  // silent configuration
  if (use_batch_regime(mode_, weight, n_)) {
    return {batch_advance(oracle, budget), true};  // one on_batch callback
  }
  return sampler_.step(rng_, counts_, oracle, budget, interactions_,
                       effective_, obs_, obs::AdvanceKind::kThin);
}

void BatchShardedSimulator::apply_pair(StateId p, StateId q) {
  const Transition& t = table_->apply(p, q);
  --counts_[p];
  --counts_[q];
  ++counts_[t.initiator];
  ++counts_[t.responder];
  ++effective_;
}

std::uint64_t BatchShardedSimulator::sample_run_length() {
  // Identical inversion to the batch engine; log-factorials come from the
  // shared table below 2^20 and the Stirling tail above, so the probe cost
  // no longer scales with live lgamma calls.
  const double u = 1.0 - rng_.uniform01();  // in (0, 1]
  const double target = std::log(u);
  const double nd = static_cast<double>(n_);
  const double lg_n = log_fact_(nd);
  const double log_pairs = std::log(nd) + std::log(nd - 1.0);
  const auto log_survival = [&](std::uint64_t l) {
    return lg_n - log_fact_(nd - 2.0 * static_cast<double>(l)) -
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

void BatchShardedSimulator::run_shard(Shard& shard) {
  if (shard.need == 0) return;
  // All of this shard's randomness comes from its derived stream; the root
  // stream is untouched, so the execution schedule cannot alter draws.
  Xoshiro256 rng(shard.seed);
  const StateId num_states = table_->num_states();
  std::uint64_t unmatched = shard.need;
  for (StateId p = shard.row_begin; p < shard.row_end; ++p) {
    std::uint64_t need = initiators_[p];
    if (need == 0) continue;
    std::uint64_t pool = unmatched;
    unmatched -= need;
    for (StateId q = 0; q < num_states && need > 0; ++q) {
      const std::uint64_t m = hypergeometric_blocked(
          rng, pool, shard.v_share[q], need, log_fact_);
      pool -= shard.v_share[q];
      shard.v_share[q] -= static_cast<std::uint32_t>(m);
      need -= m;
      if (m == 0) continue;
      if (table_->effective(p, q)) {
        const Transition& t = table_->apply(p, q);
        const auto delta = static_cast<std::int64_t>(m);
        shard.delta[p] -= delta;
        shard.delta[q] -= delta;
        shard.delta[t.initiator] += delta;
        shard.delta[t.responder] += delta;
        shard.touched[t.initiator] += static_cast<std::uint32_t>(m);
        shard.touched[t.responder] += static_cast<std::uint32_t>(m);
        shard.effective += m;
      } else {
        shard.touched[p] += static_cast<std::uint32_t>(m);
        shard.touched[q] += static_cast<std::uint32_t>(m);
      }
    }
  }
}

std::uint64_t BatchShardedSimulator::batch_advance(StabilityOracle& oracle,
                                                   std::uint64_t budget) {
  const StateId num_states = table_->num_states();
  const std::uint64_t run = sample_run_length();
  // Budget truncation conditions only on "the first `budget` draws are
  // collision-free", exactly as the batch engine (batch_simulator.cpp).
  const std::uint64_t batch = run < budget ? run : budget;
  const bool collision = run < budget;

  // Initiator multiset U then responder multiset V: sequential multivariate
  // hypergeometric decompositions on the root stream (fixed state order).
  std::uint64_t urn_total = n_;
  std::uint64_t draw = batch;
  for (StateId s = 0; s < num_states; ++s) {
    const std::uint64_t x = hypergeometric_blocked(rng_, urn_total,
                                                   counts_[s], draw,
                                                   log_fact_);
    initiators_[s] = static_cast<std::uint32_t>(x);
    urn_total -= counts_[s];
    draw -= x;
  }
  urn_total = n_ - batch;
  draw = batch;
  for (StateId s = 0; s < num_states; ++s) {
    const std::uint64_t left = counts_[s] - initiators_[s];
    const std::uint64_t x =
        hypergeometric_blocked(rng_, urn_total, left, draw, log_fact_);
    responders_[s] = static_cast<std::uint32_t>(x);
    urn_total -= left;
    draw -= x;
  }

  // Level-1 split of the uniform matching: hand each shard's row block its
  // responder share by the same urn decomposition, on the root stream in
  // fixed shard order.  Conditioning on the per-block share counts is
  // exactly the first step of matching rows sequentially, so the
  // contingency-table law is unchanged (see the header).
  std::copy(responders_.begin(), responders_.end(), v_rem_.begin());
  std::uint64_t v_pool = batch;
  for (Shard& shard : shards_) {
    shard.effective = 0;
    std::fill(shard.delta.begin(), shard.delta.end(), 0);
    std::fill(shard.touched.begin(), shard.touched.end(), 0);
    shard.need = 0;
    for (StateId p = shard.row_begin; p < shard.row_end; ++p) {
      shard.need += initiators_[p];
    }
    std::uint64_t urn = v_pool;
    std::uint64_t want = shard.need;
    for (StateId q = 0; q < num_states; ++q) {
      const std::uint64_t x =
          hypergeometric_blocked(rng_, urn, v_rem_[q], want, log_fact_);
      shard.v_share[q] = static_cast<std::uint32_t>(x);
      urn -= v_rem_[q];
      v_rem_[q] -= static_cast<std::uint32_t>(x);
      want -= x;
    }
    v_pool -= shard.need;
  }

  // Level-2: each shard matches its rows against its private share on an
  // independent derived stream.  One root draw seeds them all; from here
  // to the join, the root stream is silent and threads only schedule work.
  const std::uint64_t batch_seed = rng_();
  for (std::uint32_t s = 0; s < kShards; ++s) {
    shards_[s].seed = derive_stream_seed(batch_seed, s);
  }
  const bool parallel = threads_ > 1 && batch >= parallel_grain_;
  if (parallel) {
    if (pool_ == nullptr) pool_ = std::make_unique<ThreadPool>(threads_);
    pool_->parallel_for_index(
        kShards, [this](std::size_t s) { run_shard(shards_[s]); });
  } else {
    for (Shard& shard : shards_) run_shard(shard);
  }

  // Deterministic commutative reduction in fixed shard order: exact
  // integer tile adds, so the merge is bit-identical no matter which
  // thread produced which tile (the obs layer's merge discipline).
  std::fill(count_delta_.begin(), count_delta_.end(), 0);
  std::fill(touched_.begin(), touched_.end(), 0);
  std::uint64_t batch_effective = 0;
  for (const Shard& shard : shards_) {
    simd::add_i64(count_delta_.data(), shard.delta.data(), d_padded_);
    for (StateId i = 0; i < num_states; ++i) touched_[i] += shard.touched[i];
    batch_effective += shard.effective;
  }
  for (StateId s = 0; s < num_states; ++s) {
    counts_[s] = static_cast<std::uint32_t>(
        static_cast<std::int64_t>(counts_[s]) + count_delta_[s]);
    counts_soa_[s] = counts_[s];
  }
  interactions_ += batch;
  effective_ += batch_effective;
  std::uint64_t advanced = batch;

  if (collision) {
    // The exact collision interaction, identical in law to the batch
    // engine's: a uniform ordered pair conditioned on touching the batch.
    // Row totals run through the SIMD kernel; the in-row scalar scan
    // resolves the cell with the same in-order semantics.
    const std::uint64_t fresh_total = n_ - 2 * batch;
    const std::uint64_t total_weight =
        n_ * (n_ - 1) - fresh_total * (fresh_total - 1);
    std::uint64_t u = rng_.below(total_weight);
    for (std::size_t i = 0; i < d_padded_; ++i) {
      fresh_[i] = counts_soa_[i] - touched_[i];
    }
    StateId a = 0;
    StateId b = 0;
    bool found = false;
    for (StateId s1 = 0; s1 < num_states && !found; ++s1) {
      const std::uint64_t row = simd::collision_row_total(
          counts_soa_.data(), fresh_.data(), d_padded_, s1);
      if (u >= row) {
        u -= row;
        continue;
      }
      const std::uint64_t c1 = counts_soa_[s1];
      const std::uint64_t f1 = fresh_[s1];
      for (StateId s2 = 0; s2 < num_states; ++s2) {
        const std::uint64_t c2 = counts_soa_[s2];
        const std::uint64_t f2 = fresh_[s2];
        const std::uint64_t all = s1 == s2 ? c1 * (c1 - 1) : c1 * c2;
        const std::uint64_t fr = s1 == s2 ? f1 * (f1 - 1) : f1 * f2;
        const std::uint64_t w = all - fr;
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

  sampler_.rebuild(counts_);
  oracle.on_batch(counts_, advanced, batch_effective);
  PPK_OBS_HOOK(obs_, on_advance(counts_, interactions_, advanced,
                                batch_effective, obs::AdvanceKind::kBatch));
  return advanced;
}

template class EngineLoop<BatchShardedSimulator>;

}  // namespace ppk::pp
