// Tests for the exact Markov-chain analysis, including closed-form cases
// worked out by hand, agreement with the dense-elimination reference, and
// the flagship cross-validation: the analytic expected stabilization time
// matches the Monte-Carlo estimate.

#include "verify/markov.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "core/bipartition.hpp"
#include "core/invariants.hpp"
#include "core/kpartition.hpp"
#include "dense_markov_reference.hpp"
#include "pp/agent_simulator.hpp"
#include "pp/monte_carlo.hpp"
#include "pp/transition_table.hpp"
#include "protocols/leader_election.hpp"

namespace ppk::verify {
namespace {

pp::Counts initial_counts(const pp::Protocol& protocol, std::uint32_t n) {
  pp::Counts counts(protocol.num_states(), 0);
  counts[protocol.initial_state()] = n;
  return counts;
}

// Closed form for leader election from n leaders: with j leaders alive the
// probability that a drawn ordered pair is (L, L) is j(j-1)/(n(n-1)), so
// the expected interactions are sum_{j=2..n} n(n-1) / (j(j-1))
//                              = n(n-1) * (1 - 1/n) = (n-1)^2.
TEST(MarkovAnalysis, LeaderElectionHittingTimeMatchesClosedForm) {
  const protocols::LeaderElectionProtocol protocol;
  const pp::TransitionTable table(protocol);
  for (std::uint32_t n : {2u, 3u, 5u, 8u, 12u}) {
    const MarkovAnalysis markov(table, initial_counts(protocol, n));
    const auto expected = markov.expected_hitting_time(
        [](const pp::Counts& config) { return config[0] == 1; });
    ASSERT_TRUE(expected.has_value()) << "n=" << n;
    // The certified solve on a chain this small is exact to well below
    // 1e-9: pin the closed form at 1e-9 *relative*.
    const auto closed_form = static_cast<double>((n - 1) * (n - 1));
    EXPECT_NEAR(*expected / closed_form, 1.0, 1e-9) << "n=" << n;
  }
}

TEST(MarkovAnalysis, BipartitionHandComputedExpectationIsExact) {
  // n = 3 from all-initial: (3,0,0,0) -> (1,2,0,0) surely; from there the
  // six ordered draws go back with probability 1/3 and pair off into the
  // stable (0,1,1,1) with probability 2/3.  E_A = 1 + E_B and
  // E_B = 1 + E_A/3 give E_A = 3 exactly -- a pin on both the dense
  // reference and the lumped solve (with and without the declared
  // symmetry), at solver-roundoff tolerance.
  const core::BipartitionProtocol protocol;
  const pp::TransitionTable table(protocol);
  pp::Counts start(protocol.num_states(), 0);
  start[core::BipartitionProtocol::kInitial] = 3;
  const auto target = [](const pp::Counts& config) {
    return config[core::BipartitionProtocol::kG1] == 1 &&
           config[core::BipartitionProtocol::kG2] == 1;
  };

  const DenseMarkovReference dense(table, start);
  const auto dense_expected = dense.expected_hitting_time(target);
  ASSERT_TRUE(dense_expected.has_value());
  EXPECT_NEAR(*dense_expected, 3.0, 1e-12);

  const MarkovAnalysis unlumped(table, start);
  const auto unlumped_expected = unlumped.expected_hitting_time(target);
  ASSERT_TRUE(unlumped_expected.has_value());
  EXPECT_NEAR(*unlumped_expected, 3.0, 1e-12);

  MarkovOptions lumped_options;
  lumped_options.symmetry = protocol.symmetry();
  const MarkovAnalysis lumped(table, start, std::move(lumped_options));
  const auto lumped_expected = lumped.expected_hitting_time(target);
  ASSERT_TRUE(lumped_expected.has_value());
  EXPECT_NEAR(*lumped_expected, 3.0, 1e-12);
}

TEST(MarkovAnalysis, WithoutASymmetryAnswersPastTheDenseCap) {
  // k = 3, n = 36: 9,289 reachable configurations, three times the dense
  // reference's 3,000-unknown cap.  With no symmetry declared the chain is
  // quotiented by the trivial group, which is exactly what k >= 3
  // declares, so both answers are the same bits.
  const core::KPartitionProtocol protocol(3);
  const pp::TransitionTable table(protocol);
  const pp::Counts start = initial_counts(protocol, 36);
  const auto target = [&](const pp::Counts& config) {
    return core::matches_stable_pattern(protocol, 36, config);
  };

  const MarkovAnalysis unlumped(table, start);
  EXPECT_EQ(unlumped.reachable_configs(), 9289u);
  EXPECT_STREQ(unlumped.method_name(), "lumped");
  const auto expected = unlumped.expected_hitting_time(target);
  ASSERT_TRUE(expected.has_value());
  EXPECT_NEAR(*expected / 1346.5513005263306, 1.0, 1e-12);

  MarkovOptions options;
  options.symmetry = protocol.symmetry();
  const MarkovAnalysis declared(table, start, std::move(options));
  const auto declared_expected = declared.expected_hitting_time(target);
  ASSERT_TRUE(declared_expected.has_value());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(*expected),
            std::bit_cast<std::uint64_t>(*declared_expected));
}

TEST(MarkovAnalysis, AgreesWithTheDenseReferenceAtK2N40) {
  // The instance on which perfbench's exact_ceiling check compares the
  // declared order-4 quotient with the unlumped chain.  Every route must
  // match dense elimination over the raw chain to 1e-9 relative.
  const core::KPartitionProtocol protocol(2);
  const pp::TransitionTable table(protocol);
  const pp::Counts start = initial_counts(protocol, 40);
  const auto target = [&](const pp::Counts& config) {
    return core::matches_stable_pattern(protocol, 40, config);
  };

  const DenseMarkovReference dense(table, start);
  const auto reference = dense.expected_hitting_time(target);
  ASSERT_TRUE(reference.has_value());

  MarkovOptions declared;
  declared.symmetry = protocol.symmetry();
  MarkovOptions ignored = declared;
  ignored.method = MarkovMethod::kDense;
  for (const MarkovOptions& options : {MarkovOptions{}, declared, ignored}) {
    const MarkovAnalysis markov(table, start, options);
    EXPECT_EQ(markov.reachable_configs(), dense.reachable_configs());
    EXPECT_EQ(markov.lumped().group_order(),
              options.symmetry.has_value() &&
                      options.method == MarkovMethod::kAuto
                  ? 4u
                  : 1u);
    const auto expected = markov.expected_hitting_time(target);
    ASSERT_TRUE(expected.has_value());
    EXPECT_NEAR(*expected / *reference, 1.0, 1e-9)
        << "group order " << markov.lumped().group_order();
  }
}

TEST(MarkovAnalysis, HittingTimeIsZeroWhenAlreadyInTarget) {
  const protocols::LeaderElectionProtocol protocol;
  const pp::TransitionTable table(protocol);
  pp::Counts start(protocol.num_states(), 0);
  start[protocols::LeaderElectionProtocol::kLeader] = 1;
  start[protocols::LeaderElectionProtocol::kFollower] = 4;
  const MarkovAnalysis markov(table, start);
  const auto expected = markov.expected_hitting_time(
      [](const pp::Counts& config) { return config[0] == 1; });
  ASSERT_TRUE(expected.has_value());
  EXPECT_DOUBLE_EQ(*expected, 0.0);
}

TEST(MarkovAnalysis, UnreachableTargetYieldsNullopt) {
  const protocols::LeaderElectionProtocol protocol;
  const pp::TransitionTable table(protocol);
  const MarkovAnalysis markov(table, initial_counts(protocol, 4));
  // Zero leaders is unreachable, so the absorbing bottom SCC (1 leader)
  // contains no target configuration.
  const auto expected = markov.expected_hitting_time(
      [](const pp::Counts& config) { return config[0] == 0; });
  EXPECT_FALSE(expected.has_value());
}

TEST(MarkovAnalysis, KPartitionAnalyticMatchesMonteCarlo) {
  // The flagship cross-check: exact expectation vs 4000 sampled trials.
  // With stddev/mean around 0.6 for these sizes, 4000 trials give a
  // standard error under 1%, so a 5% tolerance is comfortable yet tight
  // enough to catch real modeling bugs (e.g. mishandled null-interaction
  // self-loops would shift the mean by >20%).
  struct Case {
    pp::GroupId k;
    std::uint32_t n;
  };
  for (const Case& c : {Case{3, 6}, Case{3, 7}, Case{4, 8}}) {
    const core::KPartitionProtocol protocol(c.k);
    const pp::TransitionTable table(protocol);
    const MarkovAnalysis markov(table, initial_counts(protocol, c.n));
    const auto analytic = markov.expected_hitting_time(
        [&](const pp::Counts& config) {
          return core::matches_stable_pattern(protocol, c.n, config);
        });
    ASSERT_TRUE(analytic.has_value());

    pp::MonteCarloOptions options;
    options.trials = 4000;
    options.master_seed = 424242;
    const auto empirical = pp::run_monte_carlo(
        protocol, table, c.n,
        [&] { return core::stable_pattern_oracle(protocol, c.n); }, options);
    const double mean = empirical.mean_interactions();
    EXPECT_NEAR(mean / *analytic, 1.0, 0.05)
        << "k=" << int{c.k} << " n=" << c.n << " analytic=" << *analytic
        << " empirical=" << mean;
  }
}

TEST(MarkovAnalysis, KPartitionAbsorbsInStablePatternWithProbabilityOne) {
  const core::KPartitionProtocol protocol(3);
  const pp::TransitionTable table(protocol);
  const MarkovAnalysis markov(table, initial_counts(protocol, 7));
  const auto absorption = markov.absorption_probabilities();
  double total = 0.0;
  for (const auto& a : absorption) {
    total += a.probability;
    // Every bottom SCC of the correct protocol is the stable pattern.
    EXPECT_TRUE(core::matches_stable_pattern(protocol, 7, a.representative));
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(MarkovAnalysis, BasicStrategyWedgeProbabilityMatchesSimulation) {
  // Exact wedge probability for the basic strategy at k = 3, n = 6, then
  // a Monte-Carlo estimate against it.
  const core::BasicStrategyProtocol protocol(3);
  const pp::TransitionTable table(protocol);
  const MarkovAnalysis markov(table, initial_counts(protocol, 6));

  double wedge_probability = 0.0;
  for (const auto& a : markov.absorption_probabilities()) {
    const auto& rep = a.representative;
    std::vector<std::uint32_t> sizes(protocol.num_groups(), 0);
    for (pp::StateId s = 0; s < rep.size(); ++s) {
      sizes[protocol.group(s)] += rep[s];
    }
    if (!pp::is_uniform_partition(sizes)) wedge_probability += a.probability;
  }
  EXPECT_GT(wedge_probability, 0.0);
  EXPECT_LT(wedge_probability, 0.5);

  // Empirical estimate over 4000 trials, inspecting each final partition.
  constexpr int kTrials = 4000;
  int wedged = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    pp::Population population(6, protocol.num_states(),
                              protocol.initial_state());
    pp::AgentSimulator sim(table, std::move(population),
                           derive_stream_seed(777, static_cast<std::uint64_t>(trial)));
    pp::SilenceOracle oracle(table);
    ASSERT_TRUE(sim.run(oracle, 10'000'000ULL).stabilized);
    if (!pp::is_uniform_partition(sim.population().group_sizes(protocol))) {
      ++wedged;
    }
  }
  const double empirical = static_cast<double>(wedged) / kTrials;
  // Binomial standard error at p ~ 0.1 over 4000 trials is ~0.005; allow
  // five sigma.
  EXPECT_NEAR(empirical, wedge_probability, 0.025);
}

TEST(MarkovAnalysis, AbsorptionSumsToOneForBipartitionStyleChains) {
  const core::KPartitionProtocol protocol(2);
  const pp::TransitionTable table(protocol);
  for (std::uint32_t n : {4u, 5u, 7u}) {
    const MarkovAnalysis markov(table, initial_counts(protocol, n));
    double total = 0.0;
    for (const auto& a : markov.absorption_probabilities()) {
      total += a.probability;
    }
    EXPECT_NEAR(total, 1.0, 1e-9) << "n=" << n;
  }
}

TEST(MarkovAnalysis, HittingTimeGrowsWithN) {
  const core::KPartitionProtocol protocol(3);
  const pp::TransitionTable table(protocol);
  double previous = 0.0;
  for (std::uint32_t n : {4u, 6u, 8u}) {
    const MarkovAnalysis markov(table, initial_counts(protocol, n));
    const auto expected = markov.expected_hitting_time(
        [&](const pp::Counts& config) {
          return core::matches_stable_pattern(protocol, n, config);
        });
    ASSERT_TRUE(expected.has_value());
    EXPECT_GT(*expected, previous);
    previous = *expected;
  }
}

}  // namespace
}  // namespace ppk::verify
