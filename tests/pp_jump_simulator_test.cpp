// Validation of the skip-ahead engine against the exact engines: identical
// stabilization statistics, exact final patterns, and the promised speedup
// regime (effective interactions decoupled from total interactions).

#include "pp/jump_simulator.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "core/invariants.hpp"
#include "core/kpartition.hpp"
#include "core/weak_kpartition.hpp"
#include "pp/agent_simulator.hpp"
#include "pp/transition_table.hpp"
#include "protocols/exact_majority.hpp"
#include "protocols/leader_election.hpp"
#include "rule_list_protocol.hpp"
#include "verify/markov.hpp"

namespace ppk::pp {
namespace {

Counts all_initial(const Protocol& protocol, std::uint32_t n) {
  Counts counts(protocol.num_states(), 0);
  counts[protocol.initial_state()] = n;
  return counts;
}

TEST(JumpSimulator, ReachesTheExactStablePattern) {
  const core::KPartitionProtocol protocol(4);
  const TransitionTable table(protocol);
  for (std::uint32_t n : {9u, 13u, 16u, 40u}) {
    JumpSimulator sim(table, all_initial(protocol, n), n);
    auto oracle = core::stable_pattern_oracle(protocol, n);
    const SimResult result = sim.run(*oracle);
    ASSERT_TRUE(result.stabilized) << "n=" << n;
    EXPECT_TRUE(core::matches_stable_pattern(protocol, n, sim.counts()));
  }
}

TEST(JumpSimulator, StopsCleanlyOnSilentConfigurations) {
  // One leader: no effective pair exists; step() must return false and a
  // run with an unsatisfiable oracle must terminate rather than spin.
  const protocols::LeaderElectionProtocol protocol;
  const TransitionTable table(protocol);
  JumpSimulator sim(table, Counts{1, 5}, 3);
  NeverStableOracle oracle;
  const SimResult result = sim.run(oracle, 1'000'000);
  EXPECT_FALSE(result.stabilized);
  EXPECT_EQ(result.effective, 0u);
  EXPECT_EQ(sim.effective_weight(), 0u);
}

TEST(JumpSimulator, EffectiveInteractionsMatchAgentEngineExactly) {
  // Leader election performs exactly n - 1 effective interactions in any
  // execution; the jump engine must agree.
  const protocols::LeaderElectionProtocol protocol;
  const TransitionTable table(protocol);
  JumpSimulator sim(table, all_initial(protocol, 30), 7);
  SilenceOracle oracle(table);
  const SimResult result = sim.run(oracle);
  EXPECT_TRUE(result.stabilized);
  EXPECT_EQ(result.effective, 29u);
  EXPECT_EQ(sim.counts()[protocols::LeaderElectionProtocol::kLeader], 1u);
}

TEST(JumpSimulator, MeanInteractionsMatchTheExactExpectation) {
  // The interaction counter includes the geometrically skipped nulls, so
  // its mean must match the exact Markov expectation like the other
  // engines' do.  Leader election has the closed form (n-1)^2.
  const protocols::LeaderElectionProtocol protocol;
  const TransitionTable table(protocol);
  const std::uint32_t n = 10;
  constexpr int kTrials = 3000;
  double total = 0.0;
  for (int trial = 0; trial < kTrials; ++trial) {
    JumpSimulator sim(table, all_initial(protocol, n),
                      derive_stream_seed(5, static_cast<std::uint64_t>(trial)));
    SilenceOracle oracle(table);
    total += static_cast<double>(sim.run(oracle).interactions);
  }
  const double mean = total / kTrials;
  const double exact = (n - 1.0) * (n - 1.0);  // 81
  // stddev of a single run is ~60 here; 3000 trials -> sem ~1.1.
  EXPECT_NEAR(mean, exact, 4.0);
}

TEST(JumpSimulator, AgreesWithAgentEngineOnKPartition) {
  const core::KPartitionProtocol protocol(3);
  const TransitionTable table(protocol);
  const std::uint32_t n = 15;
  constexpr int kTrials = 80;

  double jump_mean = 0.0;
  double agent_mean = 0.0;
  for (int trial = 0; trial < kTrials; ++trial) {
    {
      JumpSimulator sim(table, all_initial(protocol, n),
                        derive_stream_seed(1, static_cast<std::uint64_t>(trial)));
      auto oracle = core::stable_pattern_oracle(protocol, n);
      jump_mean += static_cast<double>(sim.run(*oracle).interactions);
    }
    {
      AgentSimulator sim(table,
                         Population(n, protocol.num_states(),
                                    protocol.initial_state()),
                         derive_stream_seed(2, static_cast<std::uint64_t>(trial)));
      auto oracle = core::stable_pattern_oracle(protocol, n);
      agent_mean += static_cast<double>(sim.run(*oracle).interactions);
    }
  }
  jump_mean /= kTrials;
  agent_mean /= kTrials;
  EXPECT_LT(std::abs(jump_mean - agent_mean) / agent_mean, 0.30)
      << "jump=" << jump_mean << " agent=" << agent_mean;
}

/// sum_{p,q} eff(p,q) * c_p * (c_q - [p==q]), recomputed from scratch.
std::uint64_t recomputed_weight(const TransitionTable& table,
                                const Counts& counts) {
  std::int64_t weight = 0;
  for (StateId p = 0; p < table.num_states(); ++p) {
    for (StateId q = 0; q < table.num_states(); ++q) {
      if (!table.effective(p, q)) continue;
      weight += static_cast<std::int64_t>(counts[p]) *
                (static_cast<std::int64_t>(counts[q]) - (p == q ? 1 : 0));
    }
  }
  return static_cast<std::uint64_t>(weight);
}

/// Never stable; mirrors the configuration from the reported transitions,
/// so a count update that disagrees with the applied rule shows up.
class MirrorOracle final : public StabilityOracle {
 public:
  void reset(const Counts& counts) override { mirror = counts; }
  void on_transition(StateId p, StateId q, StateId p_next,
                     StateId q_next) override {
    --mirror[p];
    --mirror[q];
    ++mirror[p_next];
    ++mirror[q_next];
  }
  [[nodiscard]] bool stable() const override { return false; }
  Counts mirror;
};

TEST(JumpSimulator, EffectiveWeightTracksConfiguration) {
  // The engine applies each effective pair as up to two single-agent
  // transfers, each an O(1) update of the total weight; after every step
  // and every restore it must equal the from-scratch sum, and the counts
  // must match the rule the oracle was told about.  From all-initial,
  // every ordered pair of Algorithm 1 is effective (rule 1): weight n(n-1).
  {
    const core::KPartitionProtocol protocol(5);
    const TransitionTable table(protocol);
    const JumpSimulator sim(table, all_initial(protocol, 12), 9);
    EXPECT_EQ(sim.effective_weight(), 12u * 11u);
  }
  struct Case {
    std::shared_ptr<const Protocol> protocol;
    Counts initial;
  };
  const auto from_all_initial = [](std::shared_ptr<const Protocol> protocol) {
    Counts initial = all_initial(*protocol, 97);
    return Case{std::move(protocol), std::move(initial)};
  };
  using Rules = std::vector<RuleListProtocol::Rule>;
  const std::vector<Case> cases = {
      from_all_initial(std::make_shared<const core::KPartitionProtocol>(2)),
      from_all_initial(std::make_shared<const core::KPartitionProtocol>(3)),
      from_all_initial(std::make_shared<const core::KPartitionProtocol>(6)),
      from_all_initial(std::make_shared<const core::KPartitionProtocol>(16)),
      from_all_initial(std::make_shared<const core::WeakKPartitionProtocol>(4)),
      from_all_initial(
          std::make_shared<const protocols::LeaderElectionProtocol>()),
      // Hand-built: (0, 1) and (1, 0) are effective swaps with no net
      // change; (0, 0) -> (2, 2) and (1, 1) -> (0, 0) move two agents along
      // the same transfer; (2, 1) -> (0, 1) and (1, 2) -> (1, 0) move one
      // agent, as initiator and as responder.
      {std::make_shared<const RuleListProtocol>(
           3, Rules{{0, 1, 1, 0},
                    {1, 0, 0, 1},
                    {0, 0, 2, 2},
                    {1, 1, 0, 0},
                    {2, 1, 0, 1},
                    {1, 2, 1, 0}}),
       Counts{40, 30, 27}},
      // Only swaps: every step is effective and the weight never moves.
      {std::make_shared<const RuleListProtocol>(
           2, Rules{{0, 1, 1, 0}, {1, 0, 0, 1}}),
       Counts{60, 37}},
      // Initiator and responder play different roles: (A, B) -> (a, b)
      // moves both agents, (A, b) -> (A, a) only the responder,
      // (b, A) -> (a, A) only the initiator.
      {std::make_shared<const protocols::ExactMajorityProtocol>(),
       Counts{30, 27, 20, 20}}};
  for (const auto& [protocol, initial] : cases) {
    const TransitionTable table(*protocol);
    for (const std::uint64_t seed : {1ULL, 2ULL}) {
      JumpSimulator sim(table, initial, seed);
      MirrorOracle oracle;
      oracle.reset(sim.counts());
      ASSERT_EQ(sim.effective_weight(), recomputed_weight(table, sim.counts()));
      Snapshot snap = sim.snapshot();
      for (int i = 0; i < 3000 && sim.step(oracle); ++i) {
        ASSERT_EQ(sim.counts(), oracle.mirror)
            << protocol->name() << " seed " << seed << " step " << i;
        ASSERT_EQ(sim.effective_weight(),
                  recomputed_weight(table, sim.counts()))
            << protocol->name() << " seed " << seed << " step " << i;
        if (i % 500 == 0) snap = sim.snapshot();
        if (i % 700 == 699) {
          sim.restore(snap);
          oracle.reset(sim.counts());
          ASSERT_EQ(sim.effective_weight(),
                    recomputed_weight(table, sim.counts()))
              << protocol->name() << " seed " << seed << " restore at " << i;
        }
      }
    }
  }
}

TEST(JumpSimulator, InteractionBudgetIsNeverOvershot) {
  // Regression: run/resume used to let the final geometric null skip sail
  // past the budget, overshooting by up to one skip length (huge near
  // silence).  The skip now clamps at the boundary -- exact by the
  // memorylessness of the geometric -- so a non-stabilizing run lands on
  // the budget to the interaction.  n = 49 = 1 (mod 3) keeps one free
  // agent at stability, so the configuration never goes silent and every
  // budget must be spent exactly.
  const core::KPartitionProtocol protocol(3);
  const TransitionTable table(protocol);
  for (const std::uint64_t budget : {1ULL, 2ULL, 500ULL, 44'444ULL}) {
    JumpSimulator sim(table, all_initial(protocol, 49), 17);
    NeverStableOracle oracle;
    const SimResult result = sim.run(oracle, budget);
    EXPECT_EQ(result.interactions, budget);
    EXPECT_EQ(sim.interactions(), budget);
  }
}

TEST(JumpSimulator, SparseConfigurationBudgetIsExact) {
  // The skip clamp matters most when p_eff is tiny: two leaders among many
  // followers make nearly every interaction null, so each geometric skip
  // dwarfs small budgets.  The counter must still stop exactly on budget.
  const protocols::LeaderElectionProtocol protocol;
  const TransitionTable table(protocol);
  for (const std::uint64_t budget : {1ULL, 10ULL, 1'000ULL}) {
    JumpSimulator sim(table, Counts{2, 998}, 21);
    NeverStableOracle oracle;
    const SimResult result = sim.run(oracle, budget);
    EXPECT_EQ(result.interactions, budget);
    // With p_eff = 2/(1000*999), a 1000-interaction budget almost surely
    // ends inside a null run: no effective interaction was applied.
    EXPECT_LE(result.effective, 1u);
  }
}

TEST(JumpSimulator, ChunkedResumeMatchesSingleRunBudget) {
  // Splitting one budget across resume() grants must consume exactly the
  // same total, chunk boundaries landing mid-skip included.
  const core::KPartitionProtocol protocol(3);
  const TransitionTable table(protocol);
  JumpSimulator sim(table, all_initial(protocol, 49), 31);
  NeverStableOracle oracle;
  oracle.reset(sim.counts());
  std::uint64_t total = 0;
  for (const std::uint64_t grant : {7ULL, 1ULL, 250ULL, 3'000ULL}) {
    const SimResult r = sim.resume(oracle, grant);
    EXPECT_EQ(r.interactions, grant);
    total += r.interactions;
  }
  EXPECT_EQ(sim.interactions(), total);
}

TEST(JumpSimulator, WatchMarksRecordStateEntries) {
  // Leader election: followers only ever increase, one per effective
  // interaction, so watching kFollower must mark exactly n - 1 entries at
  // strictly increasing interaction indices.
  const protocols::LeaderElectionProtocol protocol;
  const TransitionTable table(protocol);
  JumpSimulator sim(table, all_initial(protocol, 20), 13);
  std::vector<std::uint64_t> marks;
  sim.set_watch(protocols::LeaderElectionProtocol::kFollower, &marks);
  SilenceOracle oracle(table);
  const SimResult result = sim.run(oracle);
  ASSERT_TRUE(result.stabilized);
  ASSERT_EQ(marks.size(), 19u);
  for (std::size_t i = 1; i < marks.size(); ++i) {
    EXPECT_GT(marks[i], marks[i - 1]);
  }
  EXPECT_LE(marks.back(), result.interactions);
}

TEST(JumpSimulator, InteractionCounterIsMonotoneAndSkipsAreCounted) {
  const core::KPartitionProtocol protocol(6);
  const TransitionTable table(protocol);
  JumpSimulator sim(table, all_initial(protocol, 60), 4);
  auto oracle = core::stable_pattern_oracle(protocol, 60);
  const SimResult result = sim.run(*oracle);
  ASSERT_TRUE(result.stabilized);
  // Total interactions must exceed effective ones: nulls were skipped but
  // still counted.
  EXPECT_GT(result.interactions, result.effective);
}

}  // namespace
}  // namespace ppk::pp
