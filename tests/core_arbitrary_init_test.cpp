// The paper's protocol assumes *designated initial states* (every agent
// starts in `initial`).  These tests pin down exactly how that assumption
// is load-bearing: from adversarial initial configurations the protocol
// can be permanently wrong (it is not self-stabilizing), while from any
// configuration that is *reachable* from the designated one it always
// recovers (that is just Theorem 1 restated).

#include <gtest/gtest.h>

#include "config_graph_reference.hpp"
#include "core/invariants.hpp"
#include "core/kpartition.hpp"
#include "pp/transition_table.hpp"
#include "verify/global_fairness.hpp"

namespace ppk::core {
namespace {

/// A failing verdict agrees with the ConfigGraph reference, witness
/// included (verify::reference_disagreement).
void expect_matches_reference(const pp::Protocol& protocol,
                              const pp::TransitionTable& table,
                              const pp::Counts& initial,
                              const verify::Verdict& verdict) {
  EXPECT_EQ(verify::reference_disagreement(
                protocol, table, initial, verdict,
                [](const pp::Counts&, const std::vector<std::uint32_t>& sizes) {
                  return pp::is_uniform_partition(sizes);
                }),
            "");
}

TEST(ArbitraryInitialStates, AllCommittedToOneGroupIsAStableFailure) {
  // Everyone starts in g1: no rule applies to (g, g) pairs, so the
  // population is silent at sizes (n, 0, ..., 0) -- permanently wrong.
  const KPartitionProtocol protocol(4);
  const pp::TransitionTable table(protocol);
  pp::Counts initial(protocol.num_states(), 0);
  initial[protocol.g(1)] = 8;
  const auto verdict = verify::verify_uniform_partition_from(
      protocol, table, initial);
  ASSERT_TRUE(verdict.exploration_complete);
  EXPECT_FALSE(verdict.solves);
  EXPECT_EQ(verdict.reachable_configs, 1u);  // it is already wedged
  EXPECT_EQ(verdict.failure,
            "bottom SCC stabilizes to a bad output: configuration {g1:8}, "
            "group sizes (8,0,0,0)");
  expect_matches_reference(protocol, table, initial, verdict);
}

TEST(ArbitraryInitialStates, CorruptedCountsViolateLemma1AndStayWrong) {
  // A d2 agent with no matching g2 to demolish: rule 9 never fires, the
  // demolisher is stuck, and f(d2) = 1 leaves the partition lopsided.
  const KPartitionProtocol protocol(4);
  const pp::TransitionTable table(protocol);
  pp::Counts initial(protocol.num_states(), 0);
  initial[protocol.d(2)] = 2;
  initial[protocol.g(1)] = 2;
  initial[protocol.g(4)] = 2;
  EXPECT_FALSE(lemma1_holds(protocol, initial));
  const auto verdict = verify::verify_uniform_partition_from(
      protocol, table, initial);
  ASSERT_TRUE(verdict.exploration_complete);
  EXPECT_FALSE(verdict.solves);
  EXPECT_EQ(verdict.failure,
            "bottom SCC stabilizes to a bad output: configuration "
            "{g1:2, g4:2, d2:2}, group sizes (4,0,0,2)");
  expect_matches_reference(protocol, table, initial, verdict);
}

TEST(ArbitraryInitialStates, ReachableConfigurationsAlwaysRecover) {
  // Contrast: every configuration reachable from the designated initial
  // one still stabilizes correctly (Theorem 1 applied mid-flight).  We
  // verify from a handful of genuinely reachable mid-protocol
  // configurations for n = 7, k = 3.
  const KPartitionProtocol protocol(3);
  const pp::TransitionTable table(protocol);

  // Enumerate some reachable configurations first.
  pp::Counts designated(protocol.num_states(), 0);
  designated[protocol.initial_state()] = 7;
  std::vector<pp::Counts> mid_flight;
  verify::for_each_reachable(table, designated,
                             [&](const pp::Counts& config) {
                               if (mid_flight.size() < 25) {
                                 mid_flight.push_back(config);
                               }
                             });
  ASSERT_GE(mid_flight.size(), 10u);

  for (const auto& config : mid_flight) {
    EXPECT_TRUE(lemma1_holds(protocol, config));
    const auto verdict =
        verify::verify_uniform_partition_from(protocol, table, config);
    EXPECT_TRUE(verdict.solves) << verdict.failure;
  }
}

TEST(ArbitraryInitialStates, MixedFreeStartIsFine) {
  // initial vs initial' is immaterial: starting from any mix of the two
  // free states still solves the problem (they are one equivalence class
  // in every argument of the paper).
  const KPartitionProtocol protocol(3);
  const pp::TransitionTable table(protocol);
  for (std::uint32_t primed = 0; primed <= 6; ++primed) {
    pp::Counts initial(protocol.num_states(), 0);
    initial[KPartitionProtocol::kInitial] = 6 - primed;
    initial[KPartitionProtocol::kInitialPrime] = primed;
    const auto verdict =
        verify::verify_uniform_partition_from(protocol, table, initial);
    EXPECT_TRUE(verdict.solves) << "primed=" << primed << ": "
                                << verdict.failure;
  }
}

}  // namespace
}  // namespace ppk::core
