// Unit tests for the Lemma 1 / Lemma 6 helpers themselves (their use along
// executions lives in core_kpartition_convergence_test.cpp).

#include "core/invariants.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "core/kpartition.hpp"
#include "pp/transition_table.hpp"
#include "verify/global_fairness.hpp"

namespace ppk::core {
namespace {

pp::Counts zero_counts(const KPartitionProtocol& protocol) {
  return pp::Counts(protocol.num_states(), 0);
}

TEST(Lemma1, HoldsInInitialConfiguration) {
  const KPartitionProtocol protocol(5);
  auto counts = zero_counts(protocol);
  counts[protocol.initial_state()] = 10;
  EXPECT_TRUE(lemma1_holds(protocol, counts));
}

TEST(Lemma1, HoldsForOneBuilderChain) {
  // One agent in m3 implies one agent in each of g1, g2 (its buildees).
  const KPartitionProtocol protocol(5);
  auto counts = zero_counts(protocol);
  counts[protocol.m(3)] = 1;
  counts[protocol.g(1)] = 1;
  counts[protocol.g(2)] = 1;
  counts[protocol.initial_state()] = 4;
  EXPECT_TRUE(lemma1_holds(protocol, counts));
}

TEST(Lemma1, ViolatedWhenABuildeeIsMissing) {
  const KPartitionProtocol protocol(5);
  auto counts = zero_counts(protocol);
  counts[protocol.m(3)] = 1;
  counts[protocol.g(1)] = 1;  // g2 missing
  counts[protocol.initial_state()] = 5;
  EXPECT_FALSE(lemma1_holds(protocol, counts));
}

TEST(Lemma1, HoldsForDemolisherChain) {
  // d2 accounts for one agent in each of g1, g2.
  const KPartitionProtocol protocol(5);
  auto counts = zero_counts(protocol);
  counts[protocol.d(2)] = 1;
  counts[protocol.g(1)] = 1;
  counts[protocol.g(2)] = 1;
  counts[protocol.initial_state()] = 2;
  EXPECT_TRUE(lemma1_holds(protocol, counts));
}

TEST(Lemma1, HoldsForCompleteGroupSets) {
  const KPartitionProtocol protocol(4);
  auto counts = zero_counts(protocol);
  for (pp::GroupId x = 1; x <= 4; ++x) counts[protocol.g(x)] = 3;
  EXPECT_TRUE(lemma1_holds(protocol, counts));
  counts[protocol.g(4)] = 4;  // more gk than g1: impossible
  EXPECT_FALSE(lemma1_holds(protocol, counts));
}

TEST(Lemma1, ImpliesGxAtLeastGk) {
  // A random-ish mix satisfying the formula has every #gx >= #gk.
  const KPartitionProtocol protocol(6);
  auto counts = zero_counts(protocol);
  counts[protocol.g(6)] = 2;
  counts[protocol.g(5)] = 2;
  counts[protocol.g(4)] = 2;
  counts[protocol.m(4)] = 0;
  counts[protocol.g(3)] = 3;
  counts[protocol.m(4)] = 1;  // m4 adds one to g1..g3
  counts[protocol.g(2)] = 3;
  counts[protocol.g(1)] = 3;
  counts[protocol.initial_state()] = 1;
  ASSERT_TRUE(lemma1_holds(protocol, counts));
  for (pp::GroupId x = 1; x <= 6; ++x) {
    EXPECT_GE(counts[protocol.g(x)], counts[protocol.g(6)]);
  }
}

TEST(StableCounts, ExactDivisionLeavesNoLeftovers) {
  const KPartitionProtocol protocol(4);
  const auto target = stable_counts(protocol, 12);  // r = 0
  for (pp::GroupId x = 1; x <= 4; ++x) EXPECT_EQ(target[protocol.g(x)], 3u);
  EXPECT_EQ(std::accumulate(target.begin(), target.end(), 0u), 12u);
  EXPECT_EQ(target[KPartitionProtocol::kInitial], 0u);
}

TEST(StableCounts, RemainderOneLeavesOneFreeAgent) {
  const KPartitionProtocol protocol(4);
  const auto target = stable_counts(protocol, 13);  // r = 1
  for (pp::GroupId x = 1; x <= 4; ++x) EXPECT_EQ(target[protocol.g(x)], 3u);
  EXPECT_EQ(target[KPartitionProtocol::kInitial], 1u);
}

TEST(StableCounts, RemainderRLeavesPartialBuild) {
  // Lemma 6 with r = 3 (n = 15, k = 4): g1, g2 get an extra agent and one
  // agent parks in m3.
  const KPartitionProtocol protocol(4);
  const auto target = stable_counts(protocol, 15);
  EXPECT_EQ(target[protocol.g(1)], 4u);
  EXPECT_EQ(target[protocol.g(2)], 4u);
  EXPECT_EQ(target[protocol.g(3)], 3u);
  EXPECT_EQ(target[protocol.g(4)], 3u);
  EXPECT_EQ(target[protocol.m(3)], 1u);
  EXPECT_EQ(std::accumulate(target.begin(), target.end(), 0u), 15u);
}

TEST(StableCounts, StablePatternGroupSizesAreUniform) {
  for (pp::GroupId k = 2; k <= 9; ++k) {
    const KPartitionProtocol protocol(k);
    for (std::uint32_t n = 3; n <= 40; ++n) {
      const auto target = stable_counts(protocol, n);
      std::vector<std::uint32_t> sizes(k, 0);
      for (pp::StateId s = 0; s < target.size(); ++s) {
        sizes[protocol.group(s)] += target[s];
      }
      EXPECT_TRUE(pp::is_uniform_partition(sizes))
          << "k=" << int{k} << " n=" << n;
      EXPECT_EQ(std::accumulate(target.begin(), target.end(), 0u), n);
      // The paper's Lemma 1 must hold at the stable configuration too.
      EXPECT_TRUE(lemma1_holds(protocol, target));
    }
  }
}

TEST(MatchesStablePattern, TreatsBothFreeStatesAsEquivalent) {
  const KPartitionProtocol protocol(4);
  auto counts = stable_counts(protocol, 13);  // one free agent in initial
  EXPECT_TRUE(matches_stable_pattern(protocol, 13, counts));
  // Move the free agent to initial': still stable.
  counts[KPartitionProtocol::kInitial] = 0;
  counts[KPartitionProtocol::kInitialPrime] = 1;
  EXPECT_TRUE(matches_stable_pattern(protocol, 13, counts));
}

TEST(MatchesStablePattern, RejectsNearMisses) {
  const KPartitionProtocol protocol(4);
  auto counts = stable_counts(protocol, 12);
  EXPECT_TRUE(matches_stable_pattern(protocol, 12, counts));
  // Swap one g1 for one g2.
  --counts[protocol.g(1)];
  ++counts[protocol.g(2)];
  EXPECT_FALSE(matches_stable_pattern(protocol, 12, counts));
}

TEST(MatchesStablePattern, AgreesWithStableCountsOnEveryReachableConfig) {
  // The predicate compares against the pattern arithmetically; the
  // reference builds stable_counts and compares against it, with the two
  // free states merged.
  struct Case {
    pp::GroupId k;
    std::vector<std::uint32_t> ns;  // residues 0, 1 and (k >= 3) 2 and up
  };
  for (const Case& c : {Case{2, {4, 5, 6, 7}}, Case{3, {6, 7, 8}},
                        Case{4, {4, 5, 6, 7}}, Case{5, {5, 6, 7, 8}}}) {
    const KPartitionProtocol protocol(c.k);
    const pp::TransitionTable table(protocol);
    for (const std::uint32_t n : c.ns) {
      const pp::Counts target = stable_counts(protocol, n);
      const auto reference = [&](const pp::Counts& config) {
        if (config[0] + config[1] != target[0] + target[1]) return false;
        return std::equal(config.begin() + 2, config.end(),
                          target.begin() + 2);
      };
      pp::Counts initial = zero_counts(protocol);
      initial[protocol.initial_state()] = n;
      std::size_t mismatches = 0;
      std::size_t stable = 0;
      const std::size_t visited = verify::for_each_reachable(
          table, initial, [&](const pp::Counts& config) {
            const bool expected = reference(config);
            if (matches_stable_pattern(protocol, n, config) != expected) {
              ++mismatches;
            }
            if (expected) ++stable;
          });
      EXPECT_EQ(mismatches, 0u) << "k=" << int{c.k} << " n=" << n;
      EXPECT_GT(stable, 0u) << "k=" << int{c.k} << " n=" << n;
      EXPECT_GT(visited, stable) << "k=" << int{c.k} << " n=" << n;
    }
  }
}

TEST(StablePatternOracle, FiresExactlyOnThePattern) {
  const KPartitionProtocol protocol(3);
  const std::uint32_t n = 10;  // r = 1
  auto oracle = stable_pattern_oracle(protocol, n);

  auto counts = stable_counts(protocol, n);
  oracle->reset(counts);
  EXPECT_TRUE(oracle->stable());

  pp::Counts off = counts;
  --off[protocol.g(1)];
  ++off[KPartitionProtocol::kInitial];
  oracle->reset(off);
  EXPECT_FALSE(oracle->stable());
}

}  // namespace
}  // namespace ppk::core
