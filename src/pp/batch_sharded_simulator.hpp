// The sharded structure-of-arrays batch engine: the collision-free batch
// algorithm (batch_simulator.hpp) rebuilt for single trials at
// n = 10^8..10^9, where the plain batch engine's remaining per-batch costs
// -- live lgamma past its table bound, division-bound pmf walks, O(|Q|^2)
// scalar weight scans -- dominate the wall clock.
//
// Same stochastic process, three structural changes:
//
//  1. SoA tiles + SIMD kernels.  Counts live in a 64-byte-aligned padded
//     mirror; the effective cells are flat index arrays (cell_p / cell_q /
//     diag) in aligned tiles.  Weight totals, the thin-regime weighted
//     pick and the collision-pair row scans run through the
//     runtime-dispatched kernels in util/simd.hpp (AVX2 gathers with a
//     bit-identical scalar fallback), and every hypergeometric draw uses
//     the blocked sampler (util/block_sampler.hpp) whose packed divides
//     take the pmf walk's division off the critical path.  Log-factorials
//     come from the shared table (util/log_fact.hpp) below 2^20 and its
//     deterministic Stirling tail above -- never live lgamma, which is the
//     single biggest win over the plain batch engine at n = 10^8.
//
//  2. Sharded matching.  A batch's uniform U-against-V matching is
//     decomposed in two exact levels: the initiator rows are partitioned
//     into kShards contiguous blocks, the responder multiset V is split
//     across the blocks by sequential multivariate-hypergeometric draws on
//     the engine's root RNG (conditioning on how many responders each
//     block receives -- the same urn decomposition the row-by-row matching
//     already uses, so the contingency-table law is unchanged), and each
//     block then matches its rows against its private responder share on
//     an independent generator seeded by derive_stream_seed(batch_seed, s)
//     where batch_seed is one root draw.  Shards write into private
//     cache-line-aligned delta/touched tiles, merged by a fixed-order
//     commutative integer reduction (the obs layer's merge discipline).
//
//  3. Deterministic parallelism.  Because every random draw happens either
//     on the root stream (fixed sequence) or on a per-shard derived stream
//     (fixed seeds), the trajectory is a pure function of the seed: worker
//     threads only decide *when* shard work runs, never what it draws.
//     Results are bit-identical across thread counts (1 == 2 == 4 == 8)
//     and across SIMD dispatch -- both pinned by tests and the bench
//     verdict fingerprints.  Shard work is dispatched to the pool only
//     when a batch clears the parallel grain (small batches and small |Q|
//     run inline; the pool is created lazily on first use).
//
// Thin regime, kAuto crossover, budget truncation, the exact collision
// interaction, oracle on_batch endpoints and the snapshot contract are all
// inherited from the batch engine's design unchanged; the engine is
// distribution-identical to it (and so to AgentSimulator), which the
// conformance KS net enforces.  Like the batch engine it is excluded from
// the pairwise chunked-resume net: budget truncation legitimately changes
// where the RNG stream is consumed.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "pp/batch_simulator.hpp"
#include "pp/engine_loop.hpp"
#include "pp/population.hpp"
#include "pp/sim_result.hpp"
#include "pp/snapshot.hpp"
#include "pp/stability.hpp"
#include "pp/transition_table.hpp"
#include "util/aligned.hpp"
#include "util/log_fact.hpp"
#include "util/rng.hpp"

namespace ppk {
class ThreadPool;
}  // namespace ppk

namespace ppk::obs {
class ObsSink;
}  // namespace ppk::obs

namespace ppk::pp {

class BatchShardedSimulator : public EngineLoop<BatchShardedSimulator> {
 public:
  /// Fixed shard count: the matching decomposition always uses this many
  /// responder splits, so trajectories do not depend on the worker-thread
  /// count (threads only execute shards; they never reshape the split).
  static constexpr std::uint32_t kShards = 8;

  /// `threads` is the worker count for shard execution (1 = inline, 0 =
  /// one per hardware core).  It affects wall clock only -- never results.
  BatchShardedSimulator(const TransitionTable& table, Counts initial,
                        std::uint64_t seed, std::size_t threads = 1);
  ~BatchShardedSimulator();

  BatchShardedSimulator(const BatchShardedSimulator&) = delete;
  BatchShardedSimulator& operator=(const BatchShardedSimulator&) = delete;

  /// One unbounded advance().  False iff the configuration is silent.
  bool step(StabilityOracle& oracle);

  /// As BatchSimulator::advance: one bounded advance (batch + collision,
  /// or one thin draw) for the shared run()/resume() loop
  /// (pp/engine_loop.hpp); budgets are exact (truncated batches condition
  /// only on the draws actually used).  Advances 0 iff silent.
  Advance advance(StabilityOracle& oracle, std::uint64_t budget);

  void set_batch_mode(BatchMode mode) noexcept { mode_ = mode; }

  /// Minimum batch length that dispatches shard work to the thread pool;
  /// below it shards run inline on the calling thread.  Test hook: 0
  /// forces pool dispatch for every batch (the thread-determinism tests);
  /// the default keeps small-population batches overhead-free.
  void set_parallel_grain(std::uint64_t grain) noexcept {
    parallel_grain_ = grain;
  }

  /// Attaches an observability sink (nullptr detaches); same endpoint
  /// semantics as the batch engine.
  void set_obs_sink(obs::ObsSink* sink) noexcept { obs_ = sink; }

  /// Snapshot contract (pp/snapshot.hpp), tag "batch-sharded": RNG, the
  /// interaction counters, the mode and the counts.  Shard streams are
  /// derived per batch and never live across advances; thread count and
  /// grain are execution policy, not state.
  [[nodiscard]] Snapshot snapshot() const;
  void restore(const Snapshot& snap);

  [[nodiscard]] BatchMode batch_mode() const noexcept { return mode_; }
  [[nodiscard]] const Counts& counts() const noexcept { return counts_; }
  [[nodiscard]] std::uint64_t population_size() const noexcept { return n_; }
  [[nodiscard]] std::size_t threads() const noexcept { return threads_; }

  /// Exact total weight of effective ordered pairs; 0 iff silent.
  [[nodiscard]] std::uint64_t effective_weight() const;

 private:
  /// Per-shard workspace: one contiguous initiator-row block, its private
  /// responder share and its private output tiles.  Cache-line aligned so
  /// concurrent shard writes never share a line.
  struct alignas(kCacheLineBytes) Shard {
    StateId row_begin = 0;
    StateId row_end = 0;
    std::uint64_t need = 0;       // responders this shard's rows consume
    std::uint64_t seed = 0;       // derive_stream_seed(batch_seed, s)
    std::uint64_t effective = 0;  // effective interactions matched
    AlignedVector<std::uint32_t> v_share;  // private responder multiset
    AlignedVector<std::int64_t> delta;     // count deltas (d_padded)
    AlignedVector<std::uint32_t> touched;  // touched counts (d_padded)
  };

  std::uint64_t batch_advance(StabilityOracle& oracle, std::uint64_t budget);
  Advance thin_advance(StabilityOracle& oracle, std::uint64_t budget,
                       std::uint64_t weight);
  std::uint64_t sample_run_length();
  void run_shard(Shard& shard);
  void apply_pair(StateId p, StateId q);
  void sync_soa_counts();

  const TransitionTable* table_;
  Counts counts_;
  Xoshiro256 rng_;
  std::uint64_t n_ = 0;
  BatchMode mode_ = BatchMode::kAuto;
  obs::ObsSink* obs_ = nullptr;
  LogFact log_fact_;

  std::size_t d_padded_ = 0;  // states + zero sentinel, rounded up to 8
  std::size_t e_padded_ = 0;  // effective cells rounded up to 8

  // SoA tiles (64-byte aligned; padded entries weigh zero by construction).
  AlignedVector<std::uint32_t> counts_soa_;  // counts mirror + sentinel
  AlignedVector<std::uint32_t> fresh_;       // counts - touched scratch
  AlignedVector<std::int32_t> cell_p_;       // effective-cell initiators
  AlignedVector<std::int32_t> cell_q_;       // effective-cell responders
  AlignedVector<std::uint32_t> cell_diag_;   // 1 on p == q cells
  AlignedVector<std::uint32_t> touched_;     // merged touched counts
  AlignedVector<std::int64_t> count_delta_;  // merged batch deltas

  // Root-stream scratch for the batch composition.
  std::vector<std::uint32_t> initiators_;  // U multiset
  std::vector<std::uint32_t> responders_;  // V multiset
  std::vector<std::uint32_t> v_rem_;       // V remainder during the split

  std::vector<Shard> shards_;
  std::size_t threads_ = 1;
  std::uint64_t parallel_grain_ = 1ULL << 14;
  std::unique_ptr<ThreadPool> pool_;  // lazily created on first dispatch
};

extern template class EngineLoop<BatchShardedSimulator>;

}  // namespace ppk::pp
