// The effective-pair sampler (pp/effective_pair_sampler.hpp) is the one
// sparse step of the complete-graph engines: JumpSimulator runs on nothing
// else, and BatchSimulator and BatchShardedSimulator run it as their thin
// regime.  So with the batch engines forced thin, all three must draw the
// same trajectory from the same seed and counts, bit for bit: counts,
// interactions() and the effective count, at a fixed budget, to
// stabilization, and across a snapshot/restore.  The observability hooks
// still tell the engines apart: jump's draws report AdvanceKind::kJump,
// the batch engines' thin draws kThin.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <type_traits>
#include <vector>

#include "core/invariants.hpp"
#include "core/kpartition.hpp"
#include "core/weak_kpartition.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "pp/batch_sharded_simulator.hpp"
#include "pp/batch_simulator.hpp"
#include "pp/jump_simulator.hpp"
#include "pp/stability.hpp"
#include "pp/transition_table.hpp"

namespace ppk::pp {
namespace {

/// One protocol family at one k: the engines run n agents from its
/// initial state and stop on `oracle`.
struct Case {
  std::string name;
  std::shared_ptr<const Protocol> protocol;
  std::shared_ptr<const TransitionTable> table;
  std::uint32_t n = 0;
  std::function<std::unique_ptr<StabilityOracle>()> oracle;
};

void PrintTo(const Case& c, std::ostream* os) { *os << c.name; }

Case kpartition_case(GroupId k, std::uint32_t n) {
  auto protocol = std::make_shared<const core::KPartitionProtocol>(k);
  auto table = std::make_shared<const TransitionTable>(*protocol);
  return {"KPartitionK" + std::to_string(k), protocol, table, n,
          [protocol, n] { return core::stable_pattern_oracle(*protocol, n); }};
}

Case weak_kpartition_case(GroupId k, std::uint32_t n) {
  auto protocol = std::make_shared<const core::WeakKPartitionProtocol>(k);
  auto table = std::make_shared<const TransitionTable>(*protocol);
  return {"WeakKPartitionK" + std::to_string(k), protocol, table, n,
          [table] { return std::make_unique<SilenceOracle>(*table); }};
}

/// What a run leaves behind; equal traces are equal trajectories.
struct Trace {
  Counts counts;
  std::uint64_t interactions = 0;  // the engine's interactions()
  std::uint64_t effective = 0;     // summed over the run's grants
  bool stabilized = false;

  bool operator==(const Trace&) const = default;
};

constexpr std::uint64_t kSeed = 20240611;

/// A fresh engine at the case's initial configuration; the batch engines
/// start in `mode`.
template <class Engine>
std::unique_ptr<Engine> make_engine(const Case& c, std::uint64_t seed,
                                    BatchMode mode = BatchMode::kForceThin) {
  Counts initial(c.protocol->num_states(), 0);
  initial[c.protocol->initial_state()] = c.n;
  auto engine = std::make_unique<Engine>(*c.table, initial, seed);
  if constexpr (!std::is_same_v<Engine, JumpSimulator>) {
    engine->set_batch_mode(mode);
  }
  return engine;
}

/// Drives a fresh engine through `grants` (run, then resume) under the
/// case's oracle, or under NeverStableOracle for a fixed budget.
template <class Engine>
Trace run_case(const Case& c, const std::vector<std::uint64_t>& grants,
               bool fixed_budget = false) {
  const auto engine = make_engine<Engine>(c, kSeed);
  const std::unique_ptr<StabilityOracle> oracle =
      fixed_budget ? std::make_unique<NeverStableOracle>() : c.oracle();
  Trace trace;
  for (std::size_t i = 0; i < grants.size(); ++i) {
    const SimResult r = i == 0 ? engine->run(*oracle, grants[i])
                               : engine->resume(*oracle, grants[i]);
    trace.effective += r.effective;
    trace.stabilized = r.stabilized;
  }
  trace.counts = engine->counts();
  trace.interactions = engine->interactions();
  return trace;
}

class ForcedThinRetracesJump : public ::testing::TestWithParam<Case> {};

TEST_P(ForcedThinRetracesJump, AtAFixedBudget) {
  const Case& c = GetParam();
  const std::vector<std::uint64_t> grants = {4ULL * c.n * c.n};
  const Trace jump = run_case<JumpSimulator>(c, grants, true);
  EXPECT_GT(jump.effective, 0u);
  EXPECT_EQ(run_case<BatchSimulator>(c, grants, true), jump);
  EXPECT_EQ(run_case<BatchShardedSimulator>(c, grants, true), jump);
}

TEST_P(ForcedThinRetracesJump, ToStabilization) {
  const Case& c = GetParam();
  const Trace jump = run_case<JumpSimulator>(c, {UINT64_MAX});
  EXPECT_TRUE(jump.stabilized);
  EXPECT_EQ(run_case<BatchSimulator>(c, {UINT64_MAX}), jump);
  EXPECT_EQ(run_case<BatchShardedSimulator>(c, {UINT64_MAX}), jump);
}

/// Runs a forced-thin batch engine to `cut`, restores its snapshot into a
/// fresh engine built with another seed and mode, and finishes there.
template <class Engine>
Trace restored_run(const Case& c, std::uint64_t cut) {
  auto original = make_engine<Engine>(c, kSeed);
  std::unique_ptr<StabilityOracle> oracle = c.oracle();
  const SimResult head = original->run(*oracle, cut);
  const Snapshot snap = original->snapshot();
  original.reset();

  const auto restored = make_engine<Engine>(c, kSeed + 1, BatchMode::kAuto);
  restored->restore(snap);
  EXPECT_EQ(restored->batch_mode(), BatchMode::kForceThin);
  oracle = c.oracle();
  oracle->reset(restored->counts());
  const SimResult tail = restored->resume(*oracle);
  return {restored->counts(), restored->interactions(),
          head.effective + tail.effective, tail.stabilized};
}

TEST_P(ForcedThinRetracesJump, AcrossASnapshotRestore) {
  const Case& c = GetParam();
  const std::uint64_t cut =
      run_case<JumpSimulator>(c, {UINT64_MAX}).interactions / 2;
  const Trace jump = run_case<JumpSimulator>(c, {cut, UINT64_MAX});
  EXPECT_TRUE(jump.stabilized);
  EXPECT_EQ(restored_run<BatchSimulator>(c, cut), jump);
  EXPECT_EQ(restored_run<BatchShardedSimulator>(c, cut), jump);
}

/// sim.advances.{jump, thin, batch} of one engine run to stabilization.
template <class Engine>
std::vector<std::uint64_t> advance_kinds(const Case& c) {
  obs::MetricsRegistry registry;
  obs::ObsSink sink(registry);
  const auto engine = make_engine<Engine>(c, kSeed);
  engine->set_obs_sink(&sink);
  const std::unique_ptr<StabilityOracle> oracle = c.oracle();
  (void)engine->run(*oracle);
  engine->set_obs_sink(nullptr);
  return {registry.counter("sim.advances.jump").value(),
          registry.counter("sim.advances.thin").value(),
          registry.counter("sim.advances.batch").value()};
}

TEST_P(ForcedThinRetracesJump, ReportsItsOwnAdvanceKind) {
#if !PPK_OBS_ENABLED
  GTEST_SKIP() << "observability compiled out";
#endif
  const Case& c = GetParam();
  const std::vector<std::uint64_t> jump = advance_kinds<JumpSimulator>(c);
  ASSERT_GT(jump[0], 0u);
  EXPECT_EQ(jump, (std::vector<std::uint64_t>{jump[0], 0, 0}));
  const std::vector<std::uint64_t> thin = {0, jump[0], 0};
  EXPECT_EQ(advance_kinds<BatchSimulator>(c), thin);
  EXPECT_EQ(advance_kinds<BatchShardedSimulator>(c), thin);
}

INSTANTIATE_TEST_SUITE_P(
    EffectivePairSampler, ForcedThinRetracesJump,
    ::testing::Values(kpartition_case(2, 120), kpartition_case(3, 120),
                      kpartition_case(8, 120), weak_kpartition_case(3, 48)),
    [](const ::testing::TestParamInfo<Case>& param) {
      return param.param.name;
    });

}  // namespace
}  // namespace ppk::pp
