// Exhaustive verification of the paper's Theorem 1 on small populations:
// every globally fair execution stabilizes to a uniform k-partition.  This
// is the strongest correctness evidence in the repo -- it checks *all*
// reachable configurations, not sampled executions -- and it also pins the
// negative result motivating the protocol's D states (Section 3.2).
//
// Every Theorem 1 instance, and every Lemma1Exhaustive point, is checked
// twice: by the library's verifier, which explores the lumped chain under
// the trivial group, and by the independent ConfigGraph explorer of
// config_graph_reference.hpp.  The two must agree on the verdict, its
// counts and the reachable set.  The Lemma1 grid is Theorem 1's, so its
// reachable sets are cross-checked there.

#include <gtest/gtest.h>

#include <set>
#include <tuple>
#include <vector>

#include "config_graph_reference.hpp"
#include "core/invariants.hpp"
#include "core/kpartition.hpp"
#include "pp/transition_table.hpp"
#include "verify/global_fairness.hpp"

namespace ppk::core {
namespace {

using Params = std::tuple<pp::GroupId /*k*/, std::uint32_t /*n*/>;

pp::Counts designated(const pp::Protocol& protocol, std::uint32_t n) {
  pp::Counts initial(protocol.num_states(), 0);
  initial[protocol.initial_state()] = n;
  return initial;
}

bool uniform_output(const pp::Counts&,
                    const std::vector<std::uint32_t>& sizes) {
  return pp::is_uniform_partition(sizes);
}

std::set<pp::Counts> reachable_set(const verify::ConfigGraph& graph) {
  std::set<pp::Counts> configs;
  for (std::size_t c = 0; c < graph.num_configs(); ++c) {
    configs.insert(graph.config(c));
  }
  return configs;
}

/// The verdict agrees with the ConfigGraph reference (see
/// verify::reference_disagreement).
void expect_matches_reference(const pp::Protocol& protocol,
                              const pp::TransitionTable& table,
                              const pp::Counts& initial,
                              const verify::Verdict& verdict) {
  EXPECT_EQ(verify::reference_disagreement(protocol, table, initial, verdict,
                                           uniform_output),
            "")
      << protocol.name();
}

/// k = 2 (the bipartition base case) at every residue, every n in 3..36
/// at k = 3, every n in 4..28 at k = 4, and k = 5 at n = 5..7.
std::vector<Params> theorem_grid() {
  std::vector<Params> grid = {Params{2, 3}, Params{2, 4}, Params{2, 5},
                              Params{2, 6}, Params{2, 9}};
  for (std::uint32_t n = 3; n <= 36; ++n) grid.emplace_back(3, n);
  for (std::uint32_t n = 4; n <= 28; ++n) grid.emplace_back(4, n);
  for (std::uint32_t n = 5; n <= 7; ++n) grid.emplace_back(5, n);
  return grid;
}

std::string grid_name(const ::testing::TestParamInfo<Params>& param_info) {
  return "k" + std::to_string(std::get<0>(param_info.param)) + "_n" +
         std::to_string(std::get<1>(param_info.param));
}

class Theorem1 : public ::testing::TestWithParam<Params> {};

TEST_P(Theorem1, SolvesUniformKPartitionUnderGlobalFairness) {
  const auto [k, n] = GetParam();
  const KPartitionProtocol protocol(k);
  const pp::TransitionTable table(protocol);
  const auto verdict = verify::verify_uniform_partition(protocol, table, n);
  ASSERT_TRUE(verdict.exploration_complete);
  EXPECT_TRUE(verdict.solves) << verdict.failure;
  EXPECT_GT(verdict.bottom_sccs, 0u);
  expect_matches_reference(protocol, table, designated(protocol, n), verdict);
}

INSTANTIATE_TEST_SUITE_P(SmallPopulations, Theorem1,
                         ::testing::ValuesIn(theorem_grid()), grid_name);

/// Lemma 1 on every reachable configuration; with `cross_check`, the
/// reachable set also equal to the reference's.
void expect_lemma1_everywhere(pp::GroupId k, std::uint32_t n,
                              bool cross_check = true) {
  const KPartitionProtocol protocol(k);
  const pp::TransitionTable table(protocol);
  const pp::Counts initial = designated(protocol, n);
  std::size_t violations = 0;
  std::set<pp::Counts> visited_set;
  const std::size_t visited = verify::for_each_reachable(
      table, initial, [&](const pp::Counts& config) {
        if (!lemma1_holds(protocol, config)) ++violations;
        visited_set.insert(config);
      });
  EXPECT_EQ(violations, 0u) << "k=" << int{k} << " n=" << n;
  EXPECT_GT(visited, 1u);
  EXPECT_EQ(visited, visited_set.size());
  if (!cross_check) return;
  const verify::ConfigGraph graph(table, initial);
  ASSERT_TRUE(graph.complete());
  EXPECT_EQ(visited_set, reachable_set(graph))
      << "k=" << int{k} << " n=" << n;
}

TEST(Lemma1Exhaustive, HoldsOnEveryReachableConfiguration) {
  // The paper proves Lemma 1 by induction over transitions; here it is
  // checked on the full reachable set for several (n, k).
  for (const auto& [k, n] :
       {Params{3, 7}, Params{3, 8}, Params{4, 6}, Params{4, 8}, Params{5, 6}}) {
    expect_lemma1_everywhere(k, n);
  }
}

class Lemma1 : public ::testing::TestWithParam<Params> {};

// The grid is Theorem 1's, whose instance at the same (k, n) already
// checks this reachable set against the reference.
TEST_P(Lemma1, HoldsOnEveryReachableConfiguration) {
  const auto [k, n] = GetParam();
  expect_lemma1_everywhere(k, n, /*cross_check=*/false);
}

INSTANTIATE_TEST_SUITE_P(SmallPopulations, Lemma1,
                         ::testing::ValuesIn(theorem_grid()), grid_name);

TEST(Lemma6Exhaustive, BottomSccsAreExactlyTheStablePattern) {
  // Beyond uniformity: the stabilized configurations are precisely the
  // Lemma 6 pattern.
  const pp::GroupId k = 4;
  const std::uint32_t n = 7;
  const KPartitionProtocol protocol(k);
  const pp::TransitionTable table(protocol);
  pp::Counts initial(protocol.num_states(), 0);
  initial[protocol.initial_state()] = n;
  const auto verdict = verify::verify_stabilization(
      protocol, table, initial,
      [&](const pp::Counts& config, const std::vector<std::uint32_t>&) {
        return matches_stable_pattern(protocol, n, config);
      });
  EXPECT_TRUE(verdict.solves) << verdict.failure;
}

TEST(BasicStrategy, FailsForThePapersCounterexampleShape) {
  // Section 3.2: without D states, dn/ke or more builders can appear and
  // the population wedges in a non-uniform silent configuration.  The
  // smallest witness shape is n = 2k; use k = 3, n = 6 (the k = 4, n = 12
  // narrative scaled down) -- the verifier must find a bad bottom SCC.
  const BasicStrategyProtocol protocol(3);
  const pp::TransitionTable table(protocol);
  const auto verdict = verify::verify_uniform_partition(protocol, table, 6);
  ASSERT_TRUE(verdict.exploration_complete);
  EXPECT_FALSE(verdict.solves);
  EXPECT_NE(verdict.failure.find("bad output"), std::string::npos)
      << verdict.failure;
  EXPECT_EQ(verdict.failure,
            "bottom SCC stabilizes to a bad output: configuration "
            "{g1:3, m2:3}, group sizes (3,3,0)");
  expect_matches_reference(protocol, table, designated(protocol, 6), verdict);
}

TEST(BasicStrategy, PapersExactCounterexampleN12K4) {
  // The paper's own numbers: n = 12, k = 4 can wedge as
  // g1,g2,m3 / g1,g2,m3 / g1,g2,m3 / g1,g2,m3 -> groups (4,4,4,0).
  const BasicStrategyProtocol protocol(4);
  const pp::TransitionTable table(protocol);
  const auto verdict = verify::verify_uniform_partition(protocol, table, 12);
  ASSERT_TRUE(verdict.exploration_complete);
  EXPECT_FALSE(verdict.solves);
  EXPECT_EQ(verdict.failure,
            "bottom SCC stabilizes to a bad output: configuration "
            "{g1:4, g2:2, g3:2, g4:2, m2:2}, group sizes (4,4,2,2)");
  expect_matches_reference(protocol, table, designated(protocol, 12),
                           verdict);
}

TEST(BasicStrategy, FullProtocolFixesTheSameInstances) {
  // The same (n, k) instances where the basic strategy fails are solved by
  // the full protocol -- the D states are exactly the fix.
  {
    const KPartitionProtocol protocol(3);
    const pp::TransitionTable table(protocol);
    EXPECT_TRUE(verify::verify_uniform_partition(protocol, table, 6).solves);
  }
  {
    const KPartitionProtocol protocol(4);
    const pp::TransitionTable table(protocol);
    const auto verdict = verify::verify_uniform_partition(protocol, table, 12);
    ASSERT_TRUE(verdict.exploration_complete);
    EXPECT_TRUE(verdict.solves) << verdict.failure;
  }
}

}  // namespace
}  // namespace ppk::core
