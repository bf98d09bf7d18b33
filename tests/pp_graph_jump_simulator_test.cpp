// The live-edge engine's own contract: the incrementally maintained live
// set must always equal a from-scratch rebuild, zero live edges must stop
// a run immediately (exact wedge detection), chunked run()+resume() must
// be bit-identical to an unchunked run (the pending-null carry), budgets
// must be exact, and watch marks must follow the agent-engine semantics.
//
// Also pins the per-draw topology rule's contract: it cannot detect a
// wedged configuration (no effective interactions means no oracle
// callbacks, so even a QuiescenceOracle never fires) and burns its full
// budget, while the live-edge engine stops at interaction zero.

#include "pp/graph_jump_simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/invariants.hpp"
#include "core/kpartition.hpp"
#include "pp/agent_simulator.hpp"
#include "pp/interaction_graph.hpp"
#include "pp/stability.hpp"
#include "pp/transition_table.hpp"
#include "util/rng.hpp"

namespace ppk::pp {
namespace {

Population all_initial(const core::KPartitionProtocol& protocol,
                       std::uint32_t n) {
  return Population(n, protocol.num_states(), protocol.initial_state());
}

/// From-scratch recount of live directed edges -- the invariant the
/// engine maintains incrementally.
std::uint64_t count_live(const TransitionTable& table,
                         const InteractionGraph& graph,
                         const Population& population) {
  std::uint64_t live = 0;
  for (const auto& [a, b] : graph.edges()) {
    const StateId sa = population.state_of(a);
    const StateId sb = population.state_of(b);
    if (table.effective(sa, sb)) ++live;
    if (table.effective(sb, sa)) ++live;
  }
  return live;
}

/// The archetypal wedged ring: every agent committed to g1 except two
/// builders m2 placed antipodally.  All *adjacent* ordered pairs --
/// (g1, g1), (g1, m2), (m2, g1) -- are null, yet (m2, m2) is an effective
/// pair globally (rule 8), so the configuration is wedged on the ring but
/// not silent in the complete-graph sense.
Population wedged_population(const core::KPartitionProtocol& protocol,
                             std::uint32_t n) {
  Population population(n, protocol.num_states(), protocol.g(1));
  population.set_state(0, protocol.m(2));
  population.set_state(n / 2, protocol.m(2));
  return population;
}

TEST(GraphJumpSimulator, LiveSetMatchesRebuildThroughoutARun) {
  const core::KPartitionProtocol protocol(4);
  const TransitionTable table(protocol);
  const std::uint32_t n = 18;
  for (const auto& graph :
       {InteractionGraph::ring(n), InteractionGraph::star(n),
        InteractionGraph::erdos_renyi(n, 0.4, 11)}) {
    GraphJumpSimulator sim(table, graph, all_initial(protocol, n), 42);
    NeverStableOracle oracle;
    oracle.reset(sim.population().counts());
    EXPECT_EQ(sim.live_directed_edges(),
              count_live(table, sim.graph(), sim.population()));
    for (int step = 0; step < 400; ++step) {
      if (!sim.step(oracle)) break;
      ASSERT_EQ(sim.live_directed_edges(),
                count_live(table, sim.graph(), sim.population()))
          << "after effective interaction " << step;
    }
  }
}

TEST(GraphJumpSimulator, WedgedRingStopsAtInteractionZero) {
  const core::KPartitionProtocol protocol(3);
  const TransitionTable table(protocol);
  const std::uint32_t n = 12;
  const Population population = wedged_population(protocol, n);

  // Wedged, not silent: the complete-graph silence oracle still sees the
  // (m2, m2) pair.
  SilenceOracle silence(table);
  silence.reset(population.counts());
  EXPECT_FALSE(silence.stable());

  GraphJumpSimulator sim(table, InteractionGraph::ring(n), population, 7);
  EXPECT_EQ(sim.live_directed_edges(), 0u);
  auto oracle = core::stable_pattern_oracle(protocol, n);
  const SimResult result = sim.run(*oracle, 1'000'000);
  EXPECT_EQ(result.interactions, 0u);
  EXPECT_EQ(result.effective, 0u);
  EXPECT_FALSE(result.stabilized);
}

TEST(GraphJumpSimulator, GraphSimulatorBurnsBudgetWhereLiveEdgeStalls) {
  // Regression for the documented per-draw topology-rule contract:
  // oracles hear about effective interactions only, so on a wedged
  // configuration no oracle -- quiescence included -- can fire and the
  // per-draw engine exhausts the budget.  The live-edge engine reports
  // the same dead end at interaction zero.  Pinned on both sparse chain
  // topologies.
  const core::KPartitionProtocol protocol(3);
  const TransitionTable table(protocol);
  const std::uint32_t n = 16;
  constexpr std::uint64_t kBudget = 20'000;
  for (const auto& graph :
       {InteractionGraph::ring(n), InteractionGraph::path(n)}) {
    const Population population = wedged_population(protocol, n);

    AgentSimulator per_draw(table, graph, population, 3);
    auto quiescence = make_quiescence_oracle(protocol, 100);
    const SimResult burned = per_draw.run(quiescence, kBudget);
    EXPECT_EQ(burned.interactions, kBudget);
    EXPECT_EQ(burned.effective, 0u);
    EXPECT_FALSE(burned.stabilized);

    GraphJumpSimulator live_edge(table, graph, population, 3);
    auto quiescence2 = make_quiescence_oracle(protocol, 100);
    const SimResult stalled = live_edge.run(quiescence2, kBudget);
    EXPECT_EQ(stalled.interactions, 0u);
    EXPECT_FALSE(stalled.stabilized);
    EXPECT_EQ(live_edge.live_directed_edges(), 0u);
  }
}

TEST(GraphJumpSimulator, ChunkedRunResumeIsBitIdentical) {
  // The pending-null carry keeps the RNG stream independent of budget
  // boundaries, so a run granted in chunks must reproduce the unchunked
  // run bit for bit -- final states, totals and outcome alike.  (The
  // complete-graph jump engine re-samples at the boundary and only agrees
  // in law; this engine is held to the stronger pairwise-class contract.)
  const core::KPartitionProtocol protocol(3);
  const TransitionTable table(protocol);
  const std::uint32_t n = 12;
  constexpr std::uint64_t kBudget = 60'000;
  for (const auto& graph :
       {InteractionGraph::ring(n), InteractionGraph::star(n),
        InteractionGraph::path(n), InteractionGraph::complete(n),
        InteractionGraph::erdos_renyi(n, 0.5, 23)}) {
    GraphJumpSimulator whole(table, graph, all_initial(protocol, n), 99);
    auto whole_oracle = core::stable_pattern_oracle(protocol, n);
    const SimResult unchunked = whole.run(*whole_oracle, kBudget);

    GraphJumpSimulator chunked(table, graph, all_initial(protocol, n), 99);
    auto chunked_oracle = core::stable_pattern_oracle(protocol, n);
    SimResult total = chunked.run(*chunked_oracle, 64);
    while (!total.stabilized && total.interactions < kBudget) {
      const SimResult r = chunked.resume(
          *chunked_oracle,
          std::min<std::uint64_t>(64, kBudget - total.interactions));
      total.interactions += r.interactions;
      total.effective += r.effective;
      total.stabilized = r.stabilized;
      if (r.interactions == 0 && !r.stabilized) break;  // wedged
    }

    EXPECT_EQ(total.interactions, unchunked.interactions);
    EXPECT_EQ(total.effective, unchunked.effective);
    EXPECT_EQ(total.stabilized, unchunked.stabilized);
    EXPECT_EQ(chunked.population().states(), whole.population().states());
    EXPECT_EQ(chunked.live_directed_edges(), whole.live_directed_edges());
  }
}

TEST(GraphJumpSimulator, SameSeedReproducesBitForBit) {
  const core::KPartitionProtocol protocol(4);
  const TransitionTable table(protocol);
  const std::uint32_t n = 15;
  for (int rep = 0; rep < 2; ++rep) {
    GraphJumpSimulator a(table, InteractionGraph::ring(n),
                         all_initial(protocol, n), 1234);
    GraphJumpSimulator b(table, InteractionGraph::ring(n),
                         all_initial(protocol, n), 1234);
    auto oa = core::stable_pattern_oracle(protocol, n);
    auto ob = core::stable_pattern_oracle(protocol, n);
    const SimResult ra = a.run(*oa, 100'000);
    const SimResult rb = b.run(*ob, 100'000);
    EXPECT_EQ(ra.interactions, rb.interactions);
    EXPECT_EQ(ra.effective, rb.effective);
    EXPECT_EQ(a.population().states(), b.population().states());
  }
}

TEST(GraphJumpSimulator, BudgetIsExactUnderNullSkips) {
  // A geometric null run crossing the budget boundary must stop exactly at
  // it (and park the remainder), never overshoot.  The trajectory for a
  // fixed seed is deterministic, so first probe where this run goes silent
  // (k-partition eventually strands a builder and dies even on the
  // complete graph), then rerun with half that budget: it must bind to the
  // interaction.
  const core::KPartitionProtocol protocol(4);
  const TransitionTable table(protocol);
  const std::uint32_t n = 22;
  NeverStableOracle oracle;

  GraphJumpSimulator probe(table, InteractionGraph::complete(n),
                           all_initial(protocol, n), 5);
  const SimResult full = probe.run(oracle);  // ends only at silence
  ASSERT_FALSE(full.stabilized);
  ASSERT_GT(full.interactions, 2u);

  const std::uint64_t budget = full.interactions / 2;
  GraphJumpSimulator sim(table, InteractionGraph::complete(n),
                         all_initial(protocol, n), 5);
  const SimResult result = sim.run(oracle, budget);
  EXPECT_EQ(result.interactions, budget);
  EXPECT_EQ(sim.interactions(), budget);
}

TEST(GraphJumpSimulator, WatchMarksFollowAgentSemantics) {
  // Every stabilized k-partition run locks in exactly floor(n/k) group
  // sets, each marked by one agent entering g_k -- identical to the
  // agent/count/jump watch contract.
  const core::KPartitionProtocol protocol(4);
  const TransitionTable table(protocol);
  const std::uint32_t n = 14;  // floor(14/4) = 3 groupings
  GraphJumpSimulator sim(table, InteractionGraph::complete(n),
                         all_initial(protocol, n), 17);
  std::vector<std::uint64_t> marks;
  sim.set_watch(protocol.g(4), &marks);
  auto oracle = core::stable_pattern_oracle(protocol, n);
  const SimResult result = sim.run(*oracle);
  ASSERT_TRUE(result.stabilized);
  ASSERT_EQ(marks.size(), 3u);
  for (std::size_t i = 1; i < marks.size(); ++i) {
    EXPECT_GT(marks[i], marks[i - 1]);
  }
  EXPECT_LE(marks.back(), sim.interactions());
}

}  // namespace
}  // namespace ppk::pp
