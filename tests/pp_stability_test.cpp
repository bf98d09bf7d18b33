#include "pp/stability.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/invariants.hpp"
#include "pp/agent_simulator.hpp"
#include "core/kpartition.hpp"
#include "pp/transition_table.hpp"
#include "protocols/leader_election.hpp"
#include "util/rng.hpp"

namespace ppk::pp {
namespace {

TEST(CountPatternOracle, DetectsExactMatchAfterReset) {
  // Two classes: states {0,1} -> class 0, state 2 -> class 1.
  CountPatternOracle oracle({0, 0, 1}, {3, 2});
  oracle.reset({1, 2, 2});
  EXPECT_TRUE(oracle.stable());
  oracle.reset({3, 0, 2});
  EXPECT_TRUE(oracle.stable());
  oracle.reset({2, 2, 1});
  EXPECT_FALSE(oracle.stable());
}

TEST(CountPatternOracle, IncrementalUpdatesTrackResets) {
  CountPatternOracle oracle({0, 1, 2}, {1, 1, 1});
  oracle.reset({3, 0, 0});
  EXPECT_FALSE(oracle.stable());
  // (0,0) -> (1,2): moves one agent to state 1 and one to state 2.
  oracle.on_transition(0, 0, 1, 2);
  EXPECT_TRUE(oracle.stable());
  // (1,2) -> (0,0): undo.
  oracle.on_transition(1, 2, 0, 0);
  EXPECT_FALSE(oracle.stable());
}

TEST(CountPatternOracle, AgreesWithFreshResetUnderRandomTransitions) {
  // Fuzz: apply random "transitions" and verify incremental state matches a
  // recomputed oracle at every step.
  const core::KPartitionProtocol protocol(4);
  const std::uint32_t n = 13;
  auto incremental = core::stable_pattern_oracle(protocol, n);

  Counts counts(protocol.num_states(), 0);
  counts[protocol.initial_state()] = n;
  incremental->reset(counts);

  Xoshiro256 rng(2024);
  const auto num_states = protocol.num_states();
  for (int step = 0; step < 2000; ++step) {
    // Pick two occupied states and two arbitrary successors.
    StateId p;
    StateId q;
    do {
      p = static_cast<StateId>(rng.below(num_states));
    } while (counts[p] == 0);
    --counts[p];
    do {
      q = static_cast<StateId>(rng.below(num_states));
    } while (counts[q] == 0);
    ++counts[p];
    const auto pn = static_cast<StateId>(rng.below(num_states));
    const auto qn = static_cast<StateId>(rng.below(num_states));
    --counts[p];
    --counts[q];
    ++counts[pn];
    ++counts[qn];
    incremental->on_transition(p, q, pn, qn);

    auto fresh = core::stable_pattern_oracle(protocol, n);
    fresh->reset(counts);
    ASSERT_EQ(incremental->stable(), fresh->stable()) << "step " << step;
    ASSERT_EQ(incremental->stable(),
              core::matches_stable_pattern(protocol, n, counts));
  }
}

TEST(CountPatternOracle, ClassPreservingTransitionsKeepTheFreshVerdict) {
  // States {0, 1} form class 0 (like the merged initial/initial' class of
  // the stable-pattern oracle), {3, 4} class 2, state 2 alone class 1.
  // Transitions that keep the class multiset -- flips inside a merged
  // class, swaps across classes -- leave the counts per class and hence
  // the verdict as they were; every other one must still be tracked.
  // After each step the verdict must equal a freshly reset oracle's.
  const std::vector<std::uint16_t> state_class = {0, 0, 1, 2, 2};
  const std::vector<std::uint32_t> target = {2, 2, 2};
  CountPatternOracle incremental(state_class, target);
  Counts counts = {1, 1, 2, 1, 1};
  incremental.reset(counts);
  ASSERT_TRUE(incremental.stable());

  std::uint64_t verdict_changes = 0;
  const auto apply = [&](StateId p, StateId q, StateId pn, StateId qn,
                         const std::string& what) {
    const bool before = incremental.stable();
    --counts[p];
    --counts[q];
    ++counts[pn];
    ++counts[qn];
    incremental.on_transition(p, q, pn, qn);
    CountPatternOracle fresh(state_class, target);
    fresh.reset(counts);
    ASSERT_EQ(incremental.stable(), fresh.stable()) << what;
    if (incremental.stable() != before) ++verdict_changes;
  };

  // Scripted: flips inside class 0 and class 2 while stable...
  apply(2, 0, 2, 1, "initiator flip 0 -> 1 inside class 0");
  apply(3, 1, 3, 0, "responder flip 1 -> 0 inside class 0");
  apply(4, 0, 3, 0, "initiator flip 4 -> 3 inside class 2");
  ASSERT_TRUE(incremental.stable());
  // ...a cross-class swap, while stable and while not...
  apply(0, 2, 2, 0, "swap across classes 0 and 1");
  ASSERT_TRUE(incremental.stable());
  apply(0, 2, 2, 2, "leaves the pattern");
  ASSERT_FALSE(incremental.stable());
  apply(2, 3, 3, 2, "swap across classes 1 and 2");
  apply(2, 1, 2, 0, "responder flip 1 -> 0 inside class 0, off the pattern");
  ASSERT_FALSE(incremental.stable());
  // ...and a class-changing move back onto the pattern.
  apply(2, 3, 1, 3, "move back onto the pattern");
  ASSERT_TRUE(incremental.stable());

  // Mixed random sequences: half the steps keep the class multiset (a
  // flip inside a class, or a swap), half move agents anywhere.
  const std::vector<std::vector<StateId>> members = {{0, 1}, {2}, {3, 4}};
  Xoshiro256 rng(7);
  const auto occupied = [&] {
    StateId s;
    do {
      s = static_cast<StateId>(rng.below(counts.size()));
    } while (counts[s] == 0);
    return s;
  };
  const auto same_class = [&](StateId s) {
    const auto& pool = members[state_class[s]];
    return pool[rng.below(pool.size())];
  };
  for (int step = 0; step < 4000; ++step) {
    const StateId p = occupied();
    --counts[p];
    const StateId q = occupied();
    ++counts[p];
    StateId pn;
    StateId qn;
    switch (rng.below(4)) {
      case 0:  // flips inside the classes
        pn = same_class(p);
        qn = same_class(q);
        break;
      case 1:  // swap, landing anywhere inside the swapped classes
        pn = same_class(q);
        qn = same_class(p);
        break;
      default:
        pn = static_cast<StateId>(rng.below(counts.size()));
        qn = static_cast<StateId>(rng.below(counts.size()));
        break;
    }
    apply(p, q, pn, qn, "random step " + std::to_string(step));
  }
  // The random walk crossed the pattern both ways many times.
  EXPECT_GT(verdict_changes, 100u);
}

TEST(SilenceOracle, LeaderElectionSilentIffAtMostOneLeader) {
  const protocols::LeaderElectionProtocol protocol;
  const TransitionTable table(protocol);
  SilenceOracle oracle(table);

  oracle.reset({2, 3});  // two leaders: (L,L) enabled
  EXPECT_FALSE(oracle.stable());
  oracle.reset({1, 4});  // one leader: silent
  EXPECT_TRUE(oracle.stable());
  oracle.reset({0, 5});  // zero leaders (unreachable, still silent)
  EXPECT_TRUE(oracle.stable());
}

TEST(SilenceOracle, TracksTransitions) {
  const protocols::LeaderElectionProtocol protocol;
  const TransitionTable table(protocol);
  SilenceOracle oracle(table);
  oracle.reset({2, 0});
  EXPECT_FALSE(oracle.stable());
  oracle.on_transition(0, 0, 0, 1);  // (L,L) -> (L,F)
  EXPECT_TRUE(oracle.stable());
}

TEST(SilenceOracle, DiagonalNeedsTwoAgents) {
  const protocols::LeaderElectionProtocol protocol;
  const TransitionTable table(protocol);
  SilenceOracle oracle(table);
  // One leader: the (L,L) rule needs two agents in L, so config is silent.
  oracle.reset({1, 1});
  EXPECT_TRUE(oracle.stable());
}


TEST(QuiescenceOracle, FiresAfterWindowOfUnmovedOutputs) {
  const core::KPartitionProtocol protocol(3);
  auto oracle = make_quiescence_oracle(protocol, 3);
  Counts counts(protocol.num_states(), 0);
  counts[protocol.initial_state()] = 5;
  oracle.reset(counts);
  EXPECT_FALSE(oracle.stable());

  // Flips keep outputs constant: three of them satisfy the window.
  oracle.on_transition(0, 0, 1, 1);
  oracle.on_transition(1, 1, 0, 0);
  EXPECT_FALSE(oracle.stable());
  oracle.on_transition(0, 0, 1, 1);
  EXPECT_TRUE(oracle.stable());
}

TEST(QuiescenceOracle, OutputChangeResetsTheWindow) {
  const core::KPartitionProtocol protocol(3);
  auto oracle = make_quiescence_oracle(protocol, 2);
  Counts counts(protocol.num_states(), 0);
  counts[protocol.initial_state()] = 4;
  oracle.reset(counts);
  oracle.on_transition(0, 0, 1, 1);
  EXPECT_FALSE(oracle.stable());
  // Rule 5: (initial, initial') -> (g1, m2): m2 is in group 2 -> moved.
  oracle.on_transition(0, 1, protocol.g(1), protocol.m(2));
  EXPECT_FALSE(oracle.stable());
  oracle.on_transition(0, 0, 1, 1);
  oracle.on_transition(1, 1, 0, 0);
  EXPECT_TRUE(oracle.stable());
  // Sizes were tracked through the move: f(g1) = 1, f(m2) = 2, so the
  // pair left one agent in group 1 and moved one to group 2 (0-based
  // indices 0 and 1).
  EXPECT_EQ(oracle.group_sizes(), (std::vector<std::uint32_t>{3, 1, 0}));
}

TEST(QuiescenceOracle, IsAHeuristicNotAProof) {
  // Demonstrate the documented false positive: a small window declares a
  // transient lull "stable" even though the protocol later progresses.
  // (This is exactly why the pattern/silence oracles exist.)
  const core::KPartitionProtocol protocol(4);
  const TransitionTable table(protocol);
  Population population(12, protocol.num_states(), protocol.initial_state());
  AgentSimulator sim(table, std::move(population), 7);
  auto oracle = make_quiescence_oracle(protocol, 2);  // absurdly small
  const SimResult result = sim.run(oracle, 10'000'000ULL);
  ASSERT_TRUE(result.stabilized);  // the heuristic fired...
  // ...but the true stable pattern is typically not yet reached.
  // (Not asserted: with some seeds it could be; the point is it fired
  // after only 2 unmoved effective interactions.)
  EXPECT_LT(result.interactions, 10'000'000ULL);
}

TEST(NeverStableOracle, NeverStable) {
  NeverStableOracle oracle;
  oracle.reset({5});
  EXPECT_FALSE(oracle.stable());
  oracle.on_transition(0, 0, 0, 0);
  EXPECT_FALSE(oracle.stable());
}

TEST(CountPatternOracle, OnBatchRebuildsFromTheEndpointCounts) {
  // The default on_batch resets from the new configuration, which is exact
  // for any oracle whose verdict is a function of the counts alone.
  CountPatternOracle oracle({0, 0, 1}, {3, 2});
  oracle.reset({2, 2, 1});
  EXPECT_FALSE(oracle.stable());
  oracle.on_batch({1, 2, 2}, 1000, 40);  // batch lands on the pattern
  EXPECT_TRUE(oracle.stable());
  oracle.on_batch({0, 1, 4}, 500, 3);  // ...and off it again
  EXPECT_FALSE(oracle.stable());
}

TEST(SilenceOracle, OnBatchRebuildsFromTheEndpointCounts) {
  const protocols::LeaderElectionProtocol protocol;
  const TransitionTable table(protocol);
  SilenceOracle oracle(table);
  oracle.reset({3, 0});
  EXPECT_FALSE(oracle.stable());
  oracle.on_batch({1, 2}, 7, 2);  // one leader left: silent
  EXPECT_TRUE(oracle.stable());
}

TEST(QuiescenceOracle, OnBatchCreditsEffectiveWhenEndpointsAgree) {
  // Group map: state 0 -> group 0, state 1 -> group 1.  Window of 10
  // unmoved effective interactions.
  QuiescenceOracle oracle({0, 1}, 10);
  oracle.reset({4, 4});
  EXPECT_FALSE(oracle.stable());
  // Batch whose endpoints leave the group sizes unchanged: all its
  // effective interactions count toward the window.
  oracle.on_batch({4, 4}, 100, 6);
  EXPECT_FALSE(oracle.stable());  // 6 < 10
  oracle.on_batch({4, 4}, 50, 4);
  EXPECT_TRUE(oracle.stable());  // 10 >= 10
}

TEST(QuiescenceOracle, OnBatchRestartsWhenTheOutputMoved) {
  QuiescenceOracle oracle({0, 1}, 10);
  oracle.reset({4, 4});
  oracle.on_batch({4, 4}, 100, 9);  // one short of the window
  EXPECT_FALSE(oracle.stable());
  oracle.on_batch({5, 3}, 10, 9);  // group sizes moved: window restarts
  EXPECT_FALSE(oracle.stable());
  oracle.on_batch({5, 3}, 40, 10);  // unmoved again, full window
  EXPECT_TRUE(oracle.stable());
}

}  // namespace
}  // namespace ppk::pp
