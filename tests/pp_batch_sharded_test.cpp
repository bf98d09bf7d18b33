// BatchShardedSimulator (pp/batch_sharded_simulator.hpp): the sharded SoA
// batch engine's headline guarantees.
//
//  - Determinism across worker-thread counts: 1 == 2 == 4 == 8, with pool
//    dispatch forced (parallel grain 0) so the parallel path is what runs.
//  - Determinism across SIMD dispatch: the trajectory under AVX2 equals the
//    trajectory under the forced-scalar kernels, bit for bit.
//  - The snapshot contract: restore into a freshly constructed engine and
//    resume bit-identically (the conformance snapshot net round-trips the
//    serialized form on top of this).
//  - Budget exactness, batch-mode forcing, and the kAuto crossover that
//    hands populations past the log-factorial table bound to this engine.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/invariants.hpp"
#include "core/kpartition.hpp"
#include "pp/batch_sharded_simulator.hpp"
#include "pp/batch_simulator.hpp"
#include "pp/monte_carlo.hpp"
#include "pp/transition_table.hpp"
#include "util/simd.hpp"

namespace ppk::pp {
namespace {

Counts all_initial(const Protocol& protocol, std::uint32_t n) {
  Counts counts(protocol.num_states(), 0);
  counts[protocol.initial_state()] = n;
  return counts;
}

struct Trace {
  SimResult result;
  Counts final_counts;
  std::uint64_t interactions = 0;
  std::uint64_t effective = 0;
};

Trace run_once(const TransitionTable& table, const Counts& initial,
               const core::KPartitionProtocol& protocol, std::uint32_t n,
               std::uint64_t seed, std::size_t threads, bool force_pool,
               std::uint64_t budget) {
  BatchShardedSimulator sim(table, initial, seed, threads);
  if (force_pool) sim.set_parallel_grain(0);
  auto oracle = core::stable_pattern_oracle(protocol, n);
  Trace t;
  t.result = sim.run(*oracle, budget);
  t.final_counts = sim.counts();
  t.interactions = sim.interactions();
  t.effective = t.result.effective;
  return t;
}

TEST(BatchShardedSimulator, BitIdenticalAcrossThreadCounts) {
  const core::KPartitionProtocol protocol(3);
  const TransitionTable table(protocol);
  const std::uint32_t n = 5000;
  const Counts initial = all_initial(protocol, n);
  for (const std::uint64_t seed : {1ULL, 42ULL, 977ULL}) {
    const Trace base = run_once(table, initial, protocol, n, seed,
                                /*threads=*/1, /*force_pool=*/false,
                                20'000'000);
    for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
      const Trace t = run_once(table, initial, protocol, n, seed, threads,
                               /*force_pool=*/true, 20'000'000);
      EXPECT_EQ(base.result.interactions, t.result.interactions)
          << "seed=" << seed << " threads=" << threads;
      EXPECT_EQ(base.result.effective, t.result.effective)
          << "seed=" << seed << " threads=" << threads;
      EXPECT_EQ(base.result.stabilized, t.result.stabilized)
          << "seed=" << seed << " threads=" << threads;
      EXPECT_EQ(base.final_counts, t.final_counts)
          << "seed=" << seed << " threads=" << threads;
    }
  }
}

TEST(BatchShardedSimulator, BitIdenticalAcrossSimdDispatch) {
  if (!simd::avx2_supported()) GTEST_SKIP() << "machine lacks AVX2";
  const core::KPartitionProtocol protocol(4);
  const TransitionTable table(protocol);
  const std::uint32_t n = 4000;
  const Counts initial = all_initial(protocol, n);
  for (const std::uint64_t seed : {3ULL, 88ULL}) {
    simd::set_enabled(true);
    const Trace avx2 = run_once(table, initial, protocol, n, seed, 2, true,
                                20'000'000);
    simd::set_enabled(false);
    const Trace scalar = run_once(table, initial, protocol, n, seed, 2, true,
                                  20'000'000);
    simd::set_enabled(true);
    EXPECT_EQ(avx2.result.interactions, scalar.result.interactions)
        << "seed=" << seed;
    EXPECT_EQ(avx2.result.effective, scalar.result.effective)
        << "seed=" << seed;
    EXPECT_EQ(avx2.final_counts, scalar.final_counts) << "seed=" << seed;
  }
}

TEST(BatchShardedSimulator, SameSeedReproducesBitForBit) {
  const core::KPartitionProtocol protocol(3);
  const TransitionTable table(protocol);
  const std::uint32_t n = 3000;
  const Counts initial = all_initial(protocol, n);
  const Trace a =
      run_once(table, initial, protocol, n, 7, 1, false, 30'000'000);
  const Trace b =
      run_once(table, initial, protocol, n, 7, 1, false, 30'000'000);
  EXPECT_EQ(a.result.interactions, b.result.interactions);
  EXPECT_EQ(a.result.effective, b.result.effective);
  EXPECT_EQ(a.final_counts, b.final_counts);
}

TEST(BatchShardedSimulator, BudgetIsExact) {
  const core::KPartitionProtocol protocol(3);
  const TransitionTable table(protocol);
  const std::uint32_t n = 2000;
  const Counts initial = all_initial(protocol, n);
  BatchShardedSimulator sim(table, initial, 5);
  auto oracle = core::stable_pattern_oracle(protocol, n);
  // A budget far below stabilization: the engine must stop on the nose
  // even when it lands mid-batch (truncated batches re-condition on the
  // draws actually used).
  const SimResult r = sim.run(*oracle, 12'345);
  EXPECT_EQ(r.interactions, 12'345u);
  EXPECT_FALSE(r.stabilized);
  EXPECT_EQ(sim.interactions(), 12'345u);
  std::uint64_t total = 0;
  for (const std::uint32_t c : sim.counts()) total += c;
  EXPECT_EQ(total, n);
}

TEST(BatchShardedSimulator, ForcedModesStabilize) {
  const core::KPartitionProtocol protocol(3);
  const TransitionTable table(protocol);
  const std::uint32_t n = 600;
  const Counts initial = all_initial(protocol, n);
  for (const BatchMode mode :
       {BatchMode::kAuto, BatchMode::kForceBatch, BatchMode::kForceThin}) {
    BatchShardedSimulator sim(table, initial, 11);
    sim.set_batch_mode(mode);
    auto oracle = core::stable_pattern_oracle(protocol, n);
    const SimResult r = sim.run(*oracle, 500'000'000);
    EXPECT_TRUE(r.stabilized) << "mode=" << static_cast<int>(mode);
    EXPECT_EQ(sim.batch_mode(), mode);
  }
}

TEST(BatchShardedSimulator, SnapshotRestoresIntoFreshEngineBitIdentically) {
  const core::KPartitionProtocol protocol(3);
  const TransitionTable table(protocol);
  const std::uint32_t n = 4000;
  const Counts initial = all_initial(protocol, n);

  // Reference: one engine driven with grants [cut, tail].
  BatchShardedSimulator reference(table, initial, 1234, 2);
  reference.set_parallel_grain(0);
  auto oracle_ref = core::stable_pattern_oracle(protocol, n);
  (void)reference.run(*oracle_ref, 100'000);
  const SimResult ref_tail = reference.resume(*oracle_ref, 400'000);

  // Snapshot at the cut, restore into a *fresh* engine (different thread
  // count on purpose: execution policy must not affect the trajectory),
  // drive the identical tail grant.
  BatchShardedSimulator original(table, initial, 1234, 2);
  original.set_parallel_grain(0);
  auto oracle_a = core::stable_pattern_oracle(protocol, n);
  (void)original.run(*oracle_a, 100'000);
  const Snapshot snap = original.snapshot();
  EXPECT_EQ(snap.engine, "batch-sharded");

  BatchShardedSimulator restored(table, initial, 999, 4);
  restored.set_parallel_grain(0);
  restored.restore(snap);
  EXPECT_EQ(restored.interactions(), original.interactions());
  EXPECT_EQ(restored.counts(), original.counts());
  auto oracle_b = core::stable_pattern_oracle(protocol, n);
  oracle_b->reset(restored.counts());
  const SimResult restored_tail = restored.resume(*oracle_b, 400'000);

  EXPECT_EQ(ref_tail.interactions, restored_tail.interactions);
  EXPECT_EQ(ref_tail.effective, restored_tail.effective);
  EXPECT_EQ(reference.counts(), restored.counts());
}

TEST(BatchShardedSimulator, EffectiveWeightZeroIffSilent) {
  const core::KPartitionProtocol protocol(3);
  const TransitionTable table(protocol);
  const std::uint32_t n = 900;
  const Counts initial = all_initial(protocol, n);
  BatchShardedSimulator sim(table, initial, 21);
  EXPECT_GT(sim.effective_weight(), 0u);
  auto oracle = core::stable_pattern_oracle(protocol, n);
  const SimResult r = sim.run(*oracle, 500'000'000);
  ASSERT_TRUE(r.stabilized);
  // The k-partition protocol keeps interacting after stabilization
  // (group-balancing transitions stay enabled), so the weight is still
  // positive; the invariant under test is only weight == 0 <=> silent.
  if (sim.effective_weight() == 0) {
    EXPECT_FALSE(sim.step(*oracle));
  }
}

TEST(ResolveEngine, AutoHandsLargePopulationsToTheShardedEngine) {
  EXPECT_EQ(resolve_engine(Engine::kAuto, 2048, false), Engine::kBatch);
  EXPECT_EQ(resolve_engine(Engine::kAuto, kShardedCrossover, false),
            Engine::kBatch);
  EXPECT_EQ(resolve_engine(Engine::kAuto, kShardedCrossover + 1, false),
            Engine::kBatchSharded);
  EXPECT_EQ(resolve_engine(Engine::kAuto, 100'000'000, false),
            Engine::kBatchSharded);
  // A watch request never resolves to an aggregated engine.
  EXPECT_EQ(resolve_engine(Engine::kAuto, 100'000'000, true), Engine::kJump);
  // Explicit choices pass through untouched.
  EXPECT_EQ(resolve_engine(Engine::kBatchSharded, 100, false),
            Engine::kBatchSharded);
}

TEST(BatchShardedSimulator, MatchesPlainBatchInLawAtModeratePopulations) {
  // Cheap distribution sanity on top of the conformance KS net: the two
  // engines' mean stabilization times over a handful of seeds agree within
  // a loose factor.  Catches gross composition bugs in seconds.
  const core::KPartitionProtocol protocol(3);
  const TransitionTable table(protocol);
  const std::uint32_t n = 1500;
  const Counts initial = all_initial(protocol, n);
  double sum_batch = 0.0;
  double sum_sharded = 0.0;
  const int trials = 8;
  for (int t = 0; t < trials; ++t) {
    const std::uint64_t seed = 1000 + static_cast<std::uint64_t>(t);
    BatchSimulator a(table, initial, seed);
    BatchShardedSimulator b(table, initial, seed);
    auto oa = core::stable_pattern_oracle(protocol, n);
    auto ob = core::stable_pattern_oracle(protocol, n);
    const SimResult ra = a.run(*oa, 2'000'000'000);
    const SimResult rb = b.run(*ob, 2'000'000'000);
    ASSERT_TRUE(ra.stabilized);
    ASSERT_TRUE(rb.stabilized);
    sum_batch += static_cast<double>(ra.interactions);
    sum_sharded += static_cast<double>(rb.interactions);
  }
  EXPECT_LT(sum_sharded / sum_batch, 2.0);
  EXPECT_GT(sum_sharded / sum_batch, 0.5);
}

}  // namespace
}  // namespace ppk::pp
