
#include <gtest/gtest.h>

#include "core/graph_bipartition.hpp"
#include "core/invariants.hpp"
#include "core/kpartition.hpp"
#include "core/weak_kpartition.hpp"
#include "pp/agent_simulator.hpp"
#include "pp/interaction_graph.hpp"
#include "pp/transition_table.hpp"

namespace ppk::pp {
namespace {

double mean_interactions_adversarial(pp::GroupId k, std::uint32_t n,
                                     double epsilon, int trials,
                                     std::uint64_t master_seed,
                                     int* stabilized = nullptr) {
  const core::KPartitionProtocol protocol(k);
  const TransitionTable table(protocol);
  double total = 0.0;
  int ok = 0;
  for (int trial = 0; trial < trials; ++trial) {
    AgentSimulator sim(
        protocol, table,
        Population(n, protocol.num_states(), protocol.initial_state()),
        FairnessSpec::epsilon_fair(epsilon),
        derive_stream_seed(master_seed, static_cast<std::uint64_t>(trial)));
    auto oracle = core::stable_pattern_oracle(protocol, n);
    const SimResult result = sim.run(*oracle, 500'000'000ULL);
    if (result.stabilized) ++ok;
    total += static_cast<double>(result.interactions);
  }
  if (stabilized != nullptr) *stabilized = ok;
  return total / trials;
}

TEST(AdversarialSimulator, StillStabilizesBecauseItIsFair) {
  int stabilized = 0;
  mean_interactions_adversarial(3, 9, 0.1, 20, 1, &stabilized);
  EXPECT_EQ(stabilized, 20);
}

TEST(AdversarialSimulator, ReachesTheCorrectStablePattern) {
  const core::KPartitionProtocol protocol(4);
  const TransitionTable table(protocol);
  AgentSimulator sim(
      protocol, table,
      Population(13, protocol.num_states(), protocol.initial_state()),
      FairnessSpec::epsilon_fair(0.05), 99);
  auto oracle = core::stable_pattern_oracle(protocol, 13);
  ASSERT_TRUE(sim.run(*oracle, 500'000'000ULL).stabilized);
  EXPECT_TRUE(core::matches_stable_pattern(protocol, 13,
                                           sim.population().counts()));
  EXPECT_TRUE(is_uniform_partition(sim.population().group_sizes(protocol)));
}

TEST(AdversarialSimulator, SmallerEpsilonMeansSlowerStabilization) {
  const double friendly = mean_interactions_adversarial(3, 12, 1.0, 30, 7);
  const double hostile = mean_interactions_adversarial(3, 12, 0.05, 30, 7);
  EXPECT_GT(hostile, friendly * 1.5)
      << "friendly=" << friendly << " hostile=" << hostile;
}

TEST(AdversarialSimulator, ResumePreservesOracleProgressAcrossChunks) {
  // Regression (the PR 1 bug class, fixed here for the adversarial rule):
  // run() resets the oracle, so granting the budget in chunks via run()
  // discarded a quiescence lull spanning a chunk boundary.  resume() must
  // continue the oracle, making a chunked run bit-identical to an unchunked
  // one.  epsilon = 0.25 keeps the adversary's probe branch on this path.
  const core::KPartitionProtocol protocol(4);
  const TransitionTable table(protocol);
  const std::uint64_t seed = 11;
  constexpr double kEpsilon = 0.25;
  // n = 13, k = 4 leaves one free agent whose flips stay effective after
  // stabilization, so the quiescence window does fill up.
  constexpr std::uint32_t kN = 13;
  constexpr std::uint64_t kWindow = 500;  // effective interactions
  constexpr std::uint64_t kChunk = 64;    // drawn pairs per grant
  constexpr std::uint64_t kBudget = 5'000'000;

  AgentSimulator whole(
      protocol, table,
      Population(kN, protocol.num_states(), protocol.initial_state()),
      FairnessSpec::epsilon_fair(kEpsilon), seed);
  auto whole_oracle = make_quiescence_oracle(protocol, kWindow);
  const SimResult reference = whole.run(whole_oracle, kBudget);
  ASSERT_TRUE(reference.stabilized);

  AgentSimulator chunked(
      protocol, table,
      Population(kN, protocol.num_states(), protocol.initial_state()),
      FairnessSpec::epsilon_fair(kEpsilon), seed);
  auto chunked_oracle = make_quiescence_oracle(protocol, kWindow);
  std::uint64_t total = 0;
  bool stabilized = false;
  bool first = true;
  while (!stabilized && total < kBudget) {
    const SimResult r = first ? chunked.run(chunked_oracle, kChunk)
                              : chunked.resume(chunked_oracle, kChunk);
    first = false;
    total += r.interactions;
    stabilized = r.stabilized;
  }
  EXPECT_TRUE(stabilized);
  EXPECT_EQ(total, reference.interactions);

  // Contrast: the buggy per-chunk run() pattern resets the oracle every 64
  // draws, so the 500-effective-interaction lull is never observed.
  AgentSimulator resetting(
      protocol, table,
      Population(kN, protocol.num_states(), protocol.initial_state()),
      FairnessSpec::epsilon_fair(kEpsilon), seed);
  auto reset_oracle = make_quiescence_oracle(protocol, kWindow);
  total = 0;
  stabilized = false;
  while (!stabilized && total < 200'000) {
    const SimResult r = resetting.run(reset_oracle, kChunk);
    total += r.interactions;
    stabilized = r.stabilized;
  }
  EXPECT_FALSE(stabilized);
}

TEST(AdversarialSimulator, EpsilonOneMatchesUniformScheduler) {
  // With epsilon = 1 the adversary never acts: statistics must match the
  // complete-graph draw.
  const core::KPartitionProtocol protocol(3);
  const TransitionTable table(protocol);
  constexpr int kTrials = 40;
  const std::uint32_t n = 12;

  const double adversarial = mean_interactions_adversarial(3, n, 1.0, kTrials, 3);
  double uniform = 0.0;
  for (int trial = 0; trial < kTrials; ++trial) {
    AgentSimulator sim(table,
                       Population(n, protocol.num_states(),
                                  protocol.initial_state()),
                       derive_stream_seed(4, static_cast<std::uint64_t>(trial)));
    auto oracle = core::stable_pattern_oracle(protocol, n);
    uniform += static_cast<double>(sim.run(*oracle).interactions);
  }
  uniform /= kTrials;
  EXPECT_LT(std::abs(adversarial - uniform) / uniform, 0.4)
      << "adversarial=" << adversarial << " uniform=" << uniform;
}

// --- Fairness-policy axis ----------------------------------------------

TEST(FairnessPolicy, WeakRoundRobinStabilizesWeakProtocol) {
  // The weak-fairness protocol reaches silence under the weak-round-robin
  // adversary (every execution does -- the verifier proves it; this checks
  // the scheduler end-to-end) and the silent configuration is uniform.
  const core::WeakKPartitionProtocol protocol(3);
  const TransitionTable table(protocol);
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    AgentSimulator sim(
        protocol, table,
        Population(14, protocol.num_states(), protocol.initial_state()),
        FairnessSpec::weak_round_robin(), seed);
    SilenceOracle oracle(table);
    const SimResult result = sim.run(oracle, 50'000'000ULL);
    ASSERT_TRUE(result.stabilized) << "seed=" << seed;
    EXPECT_TRUE(
        is_uniform_partition(sim.population().group_sizes(protocol)))
        << "seed=" << seed;
  }
}

TEST(FairnessPolicy, WeakRoundRobinCannotRefuteGlobalProtocolsBySimulation) {
  // The paper's protocol is provably INCORRECT under weak fairness (the
  // exhaustive verifier exhibits a reachable livelock SCC -- see
  // verify_weak_fairness_test.cpp), yet the concrete weak-round-robin
  // scheduler still stabilizes it: the livelock needs the adversary to
  // schedule specific pairs at exactly the right configurations, and a
  // 16-probe greedy heuristic does not orchestrate that.  Pinning the
  // stabilization documents the methodology point (docs/fairness.md):
  // heuristic weakly-fair simulation can MISS weak-fairness
  // counterexamples; only the exhaustive verifier decides them.
  const core::KPartitionProtocol protocol(3);
  const TransitionTable table(protocol);
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    AgentSimulator sim(
        protocol, table,
        Population(9, protocol.num_states(), protocol.initial_state()),
        FairnessSpec::weak_round_robin(), seed);
    auto oracle = core::stable_pattern_oracle(protocol, 9);
    EXPECT_TRUE(sim.run(*oracle, 50'000'000ULL).stabilized)
        << "seed=" << seed;
  }
}

TEST(FairnessPolicy, WeakRoundRobinSnapshotResumeIsBitIdentical) {
  // Snapshot under kWeakRoundRobin carries the unscheduled remainder of
  // the current round; restoring into a fresh engine and resuming must be
  // bit-identical to the uninterrupted run.
  const core::WeakKPartitionProtocol protocol(2);
  const TransitionTable table(protocol);
  const auto make = [&] {
    return AgentSimulator(
        protocol, table,
        Population(10, protocol.num_states(), protocol.initial_state()),
        FairnessSpec::weak_round_robin(), 77);
  };

  AgentSimulator reference = make();
  SilenceOracle ref_oracle(table);
  ref_oracle.reset(reference.population().counts());
  for (int i = 0; i < 37; ++i) reference.step(ref_oracle);
  const Snapshot snap = reference.snapshot();
  for (int i = 0; i < 200; ++i) reference.step(ref_oracle);

  AgentSimulator restored = make();
  restored.restore(snap);
  SilenceOracle oracle(table);
  oracle.reset(restored.population().counts());
  for (int i = 0; i < 200; ++i) restored.step(oracle);

  EXPECT_EQ(restored.population().states(), reference.population().states());
  EXPECT_EQ(restored.population().counts(), reference.population().counts());
}

TEST(FairnessPolicy, TopologyRestrictedSchedulingHonorsEdges) {
  // The fairness axis composes with the topology axis: on a star, the
  // arbitrary-graph bipartition protocol stabilizes to a uniform split
  // under the uniform-random policy, while the complete-graph protocol
  // wedges (initial-state leaves can only meet the hub).
  const auto star = InteractionGraph::star(7);

  const core::GraphBipartitionProtocol graph_protocol;
  const TransitionTable graph_table(graph_protocol);
  AgentSimulator good(
      graph_protocol, graph_table,
      Population(7, graph_protocol.num_states(),
                 graph_protocol.initial_state()),
      FairnessSpec::uniform_random(), 5, &star);
  auto oracle = core::graph_bipartition_stable_oracle(graph_protocol, 7);
  ASSERT_TRUE(good.run(*oracle, 50'000'000ULL).stabilized);
  EXPECT_TRUE(
      is_uniform_partition(good.population().group_sizes(graph_protocol)));

  const core::KPartitionProtocol paper(3);
  const TransitionTable paper_table(paper);
  AgentSimulator wedged(
      paper, paper_table,
      Population(7, paper.num_states(), paper.initial_state()),
      FairnessSpec::uniform_random(), 5, &star);
  auto paper_oracle = core::stable_pattern_oracle(paper, 7);
  EXPECT_FALSE(wedged.run(*paper_oracle, 500'000ULL).stabilized);
}

}  // namespace
}  // namespace ppk::pp
