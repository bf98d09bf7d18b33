// End-to-end convergence of Algorithm 1 under the uniform-random scheduler
// (which is globally fair with probability 1), plus run-time property
// checks of the paper's lemmas along real executions.

#include <gtest/gtest.h>

#include <tuple>

#include "core/invariants.hpp"
#include "core/kpartition.hpp"
#include "pp/agent_simulator.hpp"
#include "pp/jump_simulator.hpp"
#include "pp/transition_table.hpp"

namespace ppk::core {
namespace {

using Params = std::tuple<pp::GroupId /*k*/, std::uint32_t /*n*/>;

class Convergence : public ::testing::TestWithParam<Params> {};

TEST_P(Convergence, ReachesTheStablePatternAndUniformPartition) {
  const auto [k, n] = GetParam();
  const KPartitionProtocol protocol(k);
  const pp::TransitionTable table(protocol);
  pp::Population population(n, protocol.num_states(),
                            protocol.initial_state());
  pp::AgentSimulator sim(table, std::move(population), 0xABCDEF);
  auto oracle = stable_pattern_oracle(protocol, n);
  const pp::SimResult result = sim.run(*oracle, 500'000'000ULL);

  ASSERT_TRUE(result.stabilized) << "k=" << int{k} << " n=" << n;
  EXPECT_TRUE(matches_stable_pattern(protocol, n, sim.population().counts()));

  const auto sizes = sim.population().group_sizes(protocol);
  EXPECT_TRUE(pp::is_uniform_partition(sizes));
  std::uint32_t total = 0;
  for (auto s : sizes) total += s;
  EXPECT_EQ(total, n);
}

TEST_P(Convergence, CountEngineReachesTheSamePattern) {
  // The jump engine: a count-vector engine that skips null runs, so every
  // residue class also exercises its exact pair weights.
  const auto [k, n] = GetParam();
  const KPartitionProtocol protocol(k);
  const pp::TransitionTable table(protocol);
  pp::Counts initial(protocol.num_states(), 0);
  initial[protocol.initial_state()] = n;
  pp::JumpSimulator sim(table, initial, 0xFEDCBA);
  auto oracle = stable_pattern_oracle(protocol, n);
  const pp::SimResult result = sim.run(*oracle, 500'000'000ULL);
  ASSERT_TRUE(result.stabilized);
  EXPECT_TRUE(matches_stable_pattern(protocol, n, sim.counts()));
}

// Sweep k and n including every residue class of n mod k (the paper's
// Fig. 3 shows the residue matters).
INSTANTIATE_TEST_SUITE_P(
    Grid, Convergence,
    ::testing::Values(
        Params{2, 3}, Params{2, 4}, Params{2, 17}, Params{2, 64},
        Params{3, 3}, Params{3, 4}, Params{3, 5}, Params{3, 30},
        Params{4, 5}, Params{4, 8}, Params{4, 9}, Params{4, 10},
        Params{4, 11}, Params{4, 40}, Params{5, 7}, Params{5, 25},
        Params{6, 13}, Params{6, 36}, Params{7, 21}, Params{8, 16},
        Params{10, 23}),
    [](const ::testing::TestParamInfo<Params>& param_info) {
      return "k" + std::to_string(std::get<0>(param_info.param)) + "_n" +
             std::to_string(std::get<1>(param_info.param));
    });

class InvariantAlongExecution : public ::testing::TestWithParam<Params> {};

TEST_P(InvariantAlongExecution, Lemma1HoldsAtEveryEffectiveStep) {
  const auto [k, n] = GetParam();
  const KPartitionProtocol protocol(k);
  const pp::TransitionTable table(protocol);
  pp::Population population(n, protocol.num_states(),
                            protocol.initial_state());
  pp::AgentSimulator sim(table, std::move(population), 31337);

  std::uint64_t checked = 0;
  bool violated = false;
  sim.set_observer([&](const pp::SimEvent&) {
    ++checked;
    if (!lemma1_holds(protocol, sim.population().counts())) violated = true;
  });
  auto oracle = stable_pattern_oracle(protocol, n);
  const pp::SimResult result = sim.run(*oracle, 50'000'000ULL);
  ASSERT_TRUE(result.stabilized);
  EXPECT_FALSE(violated);
  EXPECT_GT(checked, 0u);
}

TEST_P(InvariantAlongExecution, GkCountNeverDecreases) {
  const auto [k, n] = GetParam();
  const KPartitionProtocol protocol(k);
  const pp::TransitionTable table(protocol);
  pp::Population population(n, protocol.num_states(),
                            protocol.initial_state());
  pp::AgentSimulator sim(table, std::move(population), 777);

  const pp::StateId gk = protocol.g(k);
  std::uint32_t last = 0;
  bool decreased = false;
  sim.set_observer([&](const pp::SimEvent&) {
    const std::uint32_t now = sim.population().counts()[gk];
    if (now < last) decreased = true;
    last = now;
  });
  auto oracle = stable_pattern_oracle(protocol, n);
  ASSERT_TRUE(sim.run(*oracle, 50'000'000ULL).stabilized);
  EXPECT_FALSE(decreased);
  EXPECT_EQ(last, n / k);  // Lemma 4: #gk ends at floor(n/k)
}

INSTANTIATE_TEST_SUITE_P(
    Grid, InvariantAlongExecution,
    ::testing::Values(Params{3, 8}, Params{3, 9}, Params{4, 10}, Params{4, 12},
                      Params{5, 11}, Params{5, 15}, Params{6, 14},
                      Params{7, 15}),
    [](const ::testing::TestParamInfo<Params>& param_info) {
      return "k" + std::to_string(std::get<0>(param_info.param)) + "_n" +
             std::to_string(std::get<1>(param_info.param));
    });

TEST(ConvergenceEdgeCases, SmallestPopulationNEquals3) {
  // n = 3 is the paper's minimum; for k = 3 the stable pattern is one agent
  // per group with no leftover.
  const KPartitionProtocol protocol(3);
  const pp::TransitionTable table(protocol);
  pp::Population population(3, protocol.num_states(),
                            protocol.initial_state());
  pp::AgentSimulator sim(table, std::move(population), 8);
  auto oracle = stable_pattern_oracle(protocol, 3);
  ASSERT_TRUE(sim.run(*oracle, 10'000'000ULL).stabilized);
  const auto sizes = sim.population().group_sizes(protocol);
  EXPECT_EQ(sizes, (std::vector<std::uint32_t>{1, 1, 1}));
}

TEST(ConvergenceEdgeCases, KLargerThanHalfOfN) {
  // n < 2k: floor(n/k) = 1, so one full set plus n - k leftovers.
  const KPartitionProtocol protocol(6);
  const pp::TransitionTable table(protocol);
  pp::Population population(9, protocol.num_states(),
                            protocol.initial_state());
  pp::AgentSimulator sim(table, std::move(population), 15);
  auto oracle = stable_pattern_oracle(protocol, 9);
  ASSERT_TRUE(sim.run(*oracle, 100'000'000ULL).stabilized);
  const auto sizes = sim.population().group_sizes(protocol);
  EXPECT_TRUE(pp::is_uniform_partition(sizes));
}

TEST(ConvergenceEdgeCases, StablePatternIsTrulySilentForGroupChanges) {
  // After stabilization, run 10k more interactions: group sizes must not
  // move (the stable configuration's definition).
  const KPartitionProtocol protocol(4);
  const pp::TransitionTable table(protocol);
  pp::Population population(13, protocol.num_states(),
                            protocol.initial_state());
  pp::AgentSimulator sim(table, std::move(population), 4);
  auto oracle = stable_pattern_oracle(protocol, 13);
  ASSERT_TRUE(sim.run(*oracle, 100'000'000ULL).stabilized);
  const auto sizes_before = sim.population().group_sizes(protocol);

  pp::NeverStableOracle never;
  sim.run(never, 10'000);
  EXPECT_EQ(sim.population().group_sizes(protocol), sizes_before);
  EXPECT_TRUE(matches_stable_pattern(protocol, 13, sim.population().counts()));
}

}  // namespace
}  // namespace ppk::core
