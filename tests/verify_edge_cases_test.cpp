// Edge-case coverage for the verifier plumbing and engine fallbacks that
// the mainline tests do not reach.

#include <gtest/gtest.h>

#include "core/invariants.hpp"
#include "core/kpartition.hpp"
#include "core/recursive_bipartition.hpp"
#include "pp/monte_carlo.hpp"
#include "pp/transition_table.hpp"
#include "verify/global_fairness.hpp"

namespace ppk {
namespace {

TEST(VerifierEdgeCases, IncompleteExplorationYieldsUnknownVerdict) {
  const core::KPartitionProtocol protocol(4);
  const pp::TransitionTable table(protocol);
  verify::ExploreOptions options;
  options.max_configs = 2;  // force truncation
  const auto verdict =
      verify::verify_uniform_partition(protocol, table, 12, options);
  EXPECT_FALSE(verdict.exploration_complete);
  EXPECT_FALSE(verdict.solves);
  EXPECT_NE(verdict.failure.find("max_configs"), std::string::npos);
}

TEST(VerifierEdgeCases, OneAgentIsItsOwnBottomScc) {
  // One agent: no pair is ever enabled, so the initial configuration is
  // the whole reachable graph and its only, bottom, SCC.
  const core::KPartitionProtocol protocol(3);
  const pp::TransitionTable table(protocol);
  const auto verdict = verify::verify_uniform_partition(protocol, table, 1);
  EXPECT_TRUE(verdict.exploration_complete);
  EXPECT_TRUE(verdict.solves) << verdict.failure;  // group sizes (1,0,0)
  EXPECT_EQ(verdict.reachable_configs, 1u);
  EXPECT_EQ(verdict.num_sccs, 1u);
  EXPECT_EQ(verdict.bottom_sccs, 1u);

  pp::Counts initial(protocol.num_states(), 0);
  initial[protocol.initial_state()] = 1;
  std::size_t visits = 0;
  EXPECT_EQ(verify::for_each_reachable(table, initial,
                                       [&](const pp::Counts& config) {
                                         EXPECT_EQ(config, initial);
                                         ++visits;
                                       }),
            1u);
  EXPECT_EQ(visits, 1u);
}

TEST(VerifierEdgeCases, VerdictCountsAreConsistent) {
  const core::KPartitionProtocol protocol(3);
  const pp::TransitionTable table(protocol);
  const auto verdict = verify::verify_uniform_partition(protocol, table, 6);
  ASSERT_TRUE(verdict.exploration_complete);
  EXPECT_GT(verdict.reachable_configs, 0u);
  EXPECT_GT(verdict.num_sccs, 0u);
  EXPECT_LE(verdict.bottom_sccs, verdict.num_sccs);
  EXPECT_LE(verdict.num_sccs, verdict.reachable_configs);
}

TEST(MonteCarloEdgeCases, JumpEngineIsSelectable) {
  const core::KPartitionProtocol protocol(4);
  const pp::TransitionTable table(protocol);
  pp::MonteCarloOptions options;
  options.trials = 10;
  options.engine = pp::Engine::kJump;
  const auto result = pp::run_monte_carlo(
      protocol, table, 17,
      [&] { return core::stable_pattern_oracle(protocol, 17); }, options);
  EXPECT_EQ(result.stabilized_count(), 10u);
  // Reproducibility holds for the jump engine too.
  const auto again = pp::run_monte_carlo(
      protocol, table, 17,
      [&] { return core::stable_pattern_oracle(protocol, 17); }, options);
  for (std::size_t t = 0; t < result.trials.size(); ++t) {
    EXPECT_EQ(result.trials[t].interactions, again.trials[t].interactions);
  }
}

TEST(MonteCarloEdgeCases, WatchStateForcesAgentEngine) {
  // A watch on a forced jump engine: the engine records the marks itself
  // (no fallback to the agent observer) and must still produce all of them.
  const core::KPartitionProtocol protocol(3);
  const pp::TransitionTable table(protocol);
  pp::MonteCarloOptions options;
  options.trials = 5;
  options.engine = pp::Engine::kJump;
  options.watch_state = protocol.g(3);
  const auto result = pp::run_monte_carlo(
      protocol, table, 9,
      [&] { return core::stable_pattern_oracle(protocol, 9); }, options);
  for (const auto& trial : result.trials) {
    ASSERT_TRUE(trial.stabilized);
    EXPECT_EQ(trial.watch_marks.size(), 3u);  // floor(9/3)
  }
}

TEST(RecursiveBipartitionEdgeCases, FreeStatesMapToLeftmostLeaf) {
  const core::RecursiveBipartitionProtocol protocol(3);  // k = 8
  // A layer-2 free agent with prefix 1 sits over leaves 100..111; its
  // provisional group is the leftmost, 100 = 4.
  EXPECT_EQ(protocol.group(protocol.free_state(2, 1, 0)), 4);
  EXPECT_EQ(protocol.group(protocol.free_state(2, 1, 1)), 4);
  // Root-layer agents map to group 0.
  EXPECT_EQ(protocol.group(protocol.free_state(1, 0, 0)), 0);
  // Layer-3 prefix 3 (11) covers leaves 110, 111 -> group 6.
  EXPECT_EQ(protocol.group(protocol.free_state(3, 3, 0)), 6);
}

TEST(RecursiveBipartitionEdgeCases, StateNamesAreReadable) {
  const core::RecursiveBipartitionProtocol protocol(2);
  EXPECT_EQ(protocol.state_name(protocol.free_state(1, 0, 0)), "free[e]");
  EXPECT_EQ(protocol.state_name(protocol.free_state(2, 1, 1)), "free[1']");
  EXPECT_EQ(protocol.state_name(protocol.leaf_state(2)), "leaf[10]");
}

TEST(VerifierEdgeCases, Theorem1ExtendedGrid) {
  // A second, larger sweep of Theorem 1 beyond the mainline grid --
  // these have bigger reachable spaces and all residues for k = 6.
  struct Case {
    pp::GroupId k;
    std::uint32_t n;
  };
  for (const Case& c : {Case{3, 10}, Case{3, 11}, Case{3, 12}, Case{4, 9},
                        Case{4, 10}, Case{6, 6}, Case{6, 7}, Case{6, 8}}) {
    const core::KPartitionProtocol protocol(c.k);
    const pp::TransitionTable table(protocol);
    const auto verdict =
        verify::verify_uniform_partition(protocol, table, c.n);
    ASSERT_TRUE(verdict.exploration_complete)
        << "k=" << int{c.k} << " n=" << c.n;
    EXPECT_TRUE(verdict.solves)
        << "k=" << int{c.k} << " n=" << c.n << ": " << verdict.failure;
  }
}

}  // namespace
}  // namespace ppk
