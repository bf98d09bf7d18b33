// google-benchmark microbenchmarks of the substrate itself: raw interaction
// throughput of the agent and jump engines across (n, k), transition-table
// construction, and the incremental stability oracle's overhead.  These
// numbers justify the engineering choices in DESIGN.md and guard against
// performance regressions (a 10x slowdown here turns the Figure 6 sweep
// from seconds into minutes).

#include <benchmark/benchmark.h>

#include "core/invariants.hpp"
#include "core/kpartition.hpp"
#include "pp/agent_simulator.hpp"
#include "pp/jump_simulator.hpp"
#include "pp/transition_table.hpp"

namespace {

using ppk::core::KPartitionProtocol;

void BM_AgentEngineSteps(benchmark::State& state) {
  const auto k = static_cast<ppk::pp::GroupId>(state.range(0));
  const auto n = static_cast<std::uint32_t>(state.range(1));
  const KPartitionProtocol protocol(k);
  const ppk::pp::TransitionTable table(protocol);
  ppk::pp::Population population(n, protocol.num_states(),
                                 protocol.initial_state());
  ppk::pp::AgentSimulator sim(table, std::move(population), 99);
  ppk::pp::NeverStableOracle oracle;
  for (auto _ : state) {
    sim.step(oracle);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AgentEngineSteps)
    ->Args({4, 120})
    ->Args({4, 960})
    ->Args({8, 960})
    ->Args({16, 960});

void BM_JumpEngineEffectiveSteps(benchmark::State& state) {
  // One iteration = one *effective* interaction (plus its skipped nulls);
  // items = drawn interactions so throughput is comparable with the other
  // engines.
  const auto k = static_cast<ppk::pp::GroupId>(state.range(0));
  const auto n = static_cast<std::uint32_t>(state.range(1));
  const KPartitionProtocol protocol(k);
  const ppk::pp::TransitionTable table(protocol);
  ppk::pp::Counts initial(protocol.num_states(), 0);
  initial[protocol.initial_state()] = n;
  ppk::pp::JumpSimulator sim(table, initial, 99);
  ppk::pp::NeverStableOracle oracle;
  std::uint64_t start = sim.interactions();
  for (auto _ : state) {
    if (!sim.step(oracle)) {
      state.SkipWithError("went silent");
      break;
    }
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(sim.interactions() - start));
}
// n chosen with n mod k == 1 so a free agent keeps flipping after
// stabilization: effective steps never run out, and the benchmark covers
// the jump engine's target regime (tiny effective probability).
BENCHMARK(BM_JumpEngineEffectiveSteps)
    ->Args({4, 961})
    ->Args({8, 961})
    ->Args({16, 961});

void BM_AgentEngineWithPatternOracle(benchmark::State& state) {
  // The oracle is notified on effective interactions only; this measures
  // its worst-case drag on the hot loop (compare with BM_AgentEngineSteps).
  const auto k = static_cast<ppk::pp::GroupId>(state.range(0));
  const std::uint32_t n = 960;
  const KPartitionProtocol protocol(k);
  const ppk::pp::TransitionTable table(protocol);
  ppk::pp::Population population(n, protocol.num_states(),
                                 protocol.initial_state());
  ppk::pp::AgentSimulator sim(table, std::move(population), 99);
  auto oracle = ppk::core::stable_pattern_oracle(protocol, n + 1);  // never
  oracle->reset(sim.population().counts());
  for (auto _ : state) {
    sim.step(*oracle);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AgentEngineWithPatternOracle)->Arg(4)->Arg(8)->Arg(16);

void BM_TransitionTableBuild(benchmark::State& state) {
  const auto k = static_cast<ppk::pp::GroupId>(state.range(0));
  const KPartitionProtocol protocol(k);
  for (auto _ : state) {
    ppk::pp::TransitionTable table(protocol);
    benchmark::DoNotOptimize(table.is_symmetric());
  }
}
BENCHMARK(BM_TransitionTableBuild)->Arg(4)->Arg(16)->Arg(64);

void BM_FullStabilization(benchmark::State& state) {
  // End-to-end: one complete run to the stable pattern.  Reported as
  // items = interactions so throughput is comparable with the step
  // benchmarks.
  const auto k = static_cast<ppk::pp::GroupId>(state.range(0));
  const auto n = static_cast<std::uint32_t>(state.range(1));
  const KPartitionProtocol protocol(k);
  const ppk::pp::TransitionTable table(protocol);
  std::uint64_t seed = 7;
  std::uint64_t total_interactions = 0;
  for (auto _ : state) {
    ppk::pp::Population population(n, protocol.num_states(),
                                   protocol.initial_state());
    ppk::pp::AgentSimulator sim(table, std::move(population), seed++);
    auto oracle = ppk::core::stable_pattern_oracle(protocol, n);
    const auto result = sim.run(*oracle);
    total_interactions += result.interactions;
    benchmark::DoNotOptimize(result.interactions);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(total_interactions));
}
BENCHMARK(BM_FullStabilization)->Args({4, 120})->Args({6, 120})->Args({8, 240});

}  // namespace

BENCHMARK_MAIN();
