#include "pp/monte_carlo.hpp"

#include <gtest/gtest.h>

#include <string_view>
#include <utility>

#include "core/invariants.hpp"
#include "core/kpartition.hpp"
#include "pp/transition_table.hpp"

namespace ppk::pp {
namespace {

class MonteCarloTest : public ::testing::Test {
 protected:
  MonteCarloTest() : protocol_(4), table_(protocol_) {}

  OracleFactory oracle_factory(std::uint32_t n) const {
    return [this, n] { return core::stable_pattern_oracle(protocol_, n); };
  }

  core::KPartitionProtocol protocol_;
  TransitionTable table_;
};

TEST_F(MonteCarloTest, RunsRequestedTrials) {
  MonteCarloOptions options;
  options.trials = 17;
  const auto result =
      run_monte_carlo(protocol_, table_, 12, oracle_factory(12), options);
  EXPECT_EQ(result.trials.size(), 17u);
  EXPECT_EQ(result.stabilized_count(), 17u);
  for (const auto& trial : result.trials) {
    EXPECT_GT(trial.interactions, 0u);
    EXPECT_LE(trial.effective, trial.interactions);
  }
}

TEST_F(MonteCarloTest, SameMasterSeedReproducesBitForBit) {
  MonteCarloOptions options;
  options.trials = 10;
  options.master_seed = 123;
  const auto a =
      run_monte_carlo(protocol_, table_, 13, oracle_factory(13), options);
  const auto b =
      run_monte_carlo(protocol_, table_, 13, oracle_factory(13), options);
  ASSERT_EQ(a.trials.size(), b.trials.size());
  for (std::size_t t = 0; t < a.trials.size(); ++t) {
    EXPECT_EQ(a.trials[t].interactions, b.trials[t].interactions);
    EXPECT_EQ(a.trials[t].effective, b.trials[t].effective);
  }
}

TEST_F(MonteCarloTest, ThreadCountDoesNotChangeResults) {
  MonteCarloOptions serial;
  serial.trials = 12;
  serial.master_seed = 99;
  serial.threads = 1;
  MonteCarloOptions parallel = serial;
  parallel.threads = 4;
  const auto a =
      run_monte_carlo(protocol_, table_, 12, oracle_factory(12), serial);
  const auto b =
      run_monte_carlo(protocol_, table_, 12, oracle_factory(12), parallel);
  for (std::size_t t = 0; t < a.trials.size(); ++t) {
    EXPECT_EQ(a.trials[t].interactions, b.trials[t].interactions);
  }
}

TEST_F(MonteCarloTest, EnginesAgreeOnStabilization) {
  MonteCarloOptions options;
  options.trials = 8;
  options.engine = Engine::kJump;
  const auto result =
      run_monte_carlo(protocol_, table_, 16, oracle_factory(16), options);
  EXPECT_EQ(result.stabilized_count(), 8u);
}

TEST_F(MonteCarloTest, WatchMarksCountGkEntries) {
  // Every stabilized trial locks in exactly floor(n/k) group sets, each
  // marked by one agent entering g_k.
  MonteCarloOptions options;
  options.trials = 10;
  options.watch_state = protocol_.g(4);
  const std::uint32_t n = 14;  // floor(14/4) = 3 groupings
  const auto result =
      run_monte_carlo(protocol_, table_, n, oracle_factory(n), options);
  for (const auto& trial : result.trials) {
    ASSERT_TRUE(trial.stabilized);
    EXPECT_EQ(trial.watch_marks.size(), 3u);
    // Marks are the paper's NI_i: strictly increasing interaction indices.
    for (std::size_t i = 1; i < trial.watch_marks.size(); ++i) {
      EXPECT_GT(trial.watch_marks[i], trial.watch_marks[i - 1]);
    }
    EXPECT_LE(trial.watch_marks.back(), trial.interactions);
  }
}

TEST_F(MonteCarloTest, WatchMarksWorkOnAgentAndJumpEngines) {
  // Regression: requesting watch_state on a non-agent engine used to
  // silently return empty marks.  Jump records them; both complete-graph
  // engines that kAuto picks for watched runs must agree on the mark
  // structure.
  for (const Engine engine : {Engine::kAgentArray, Engine::kJump}) {
    MonteCarloOptions options;
    options.trials = 10;
    options.engine = engine;
    options.watch_state = protocol_.g(4);
    const std::uint32_t n = 14;  // floor(14/4) = 3 groupings
    const auto result =
        run_monte_carlo(protocol_, table_, n, oracle_factory(n), options);
    for (const auto& trial : result.trials) {
      ASSERT_TRUE(trial.stabilized);
      ASSERT_EQ(trial.watch_marks.size(), 3u)
          << "engine=" << static_cast<int>(engine);
      for (std::size_t i = 1; i < trial.watch_marks.size(); ++i) {
        EXPECT_GT(trial.watch_marks[i], trial.watch_marks[i - 1]);
      }
      EXPECT_LE(trial.watch_marks.back(), trial.interactions);
    }
  }
}

TEST_F(MonteCarloTest, WatchOnBatchEngineFailsFast) {
  // The batch engine aggregates interactions and cannot attribute marks to
  // individual draws; asking for both is a contract violation, not a
  // silently empty result.
  MonteCarloOptions options;
  options.trials = 1;
  options.engine = Engine::kBatch;
  options.watch_state = protocol_.g(4);
  EXPECT_DEATH(
      run_monte_carlo(protocol_, table_, 14, oracle_factory(14), options),
      "precondition");
}

TEST_F(MonteCarloTest, AutoEngineResolutionPolicy) {
  // kAuto picks by population size and never picks batch when marks are
  // requested; explicit choices pass through untouched.
  EXPECT_EQ(resolve_engine(Engine::kAuto, 100, false), Engine::kAgentArray);
  // The jump band [kJumpCrossover, 1024): null-dominated populations.
  EXPECT_EQ(kJumpCrossover, 320u);
  EXPECT_EQ(resolve_engine(Engine::kAuto, 319, false), Engine::kAgentArray);
  EXPECT_EQ(resolve_engine(Engine::kAuto, 320, false), Engine::kJump);
  EXPECT_EQ(resolve_engine(Engine::kAuto, 512, false), Engine::kJump);
  EXPECT_EQ(resolve_engine(Engine::kAuto, 1023, false), Engine::kJump);
  EXPECT_EQ(resolve_engine(Engine::kAuto, 1024, false), Engine::kBatch);
  EXPECT_EQ(resolve_engine(Engine::kAuto, 100'000, false), Engine::kBatch);
  // Watched runs take the same agent -> jump ladder, capped at jump (the
  // fastest engine that records exact marks).
  EXPECT_EQ(resolve_engine(Engine::kAuto, 100, true), Engine::kAgentArray);
  EXPECT_EQ(resolve_engine(Engine::kAuto, 319, true), Engine::kAgentArray);
  EXPECT_EQ(resolve_engine(Engine::kAuto, 320, true), Engine::kJump);
  EXPECT_EQ(resolve_engine(Engine::kAuto, 600, true), Engine::kJump);
  EXPECT_EQ(resolve_engine(Engine::kAuto, 4096, true), Engine::kJump);
  EXPECT_EQ(resolve_engine(Engine::kAuto, 100'000, true), Engine::kJump);
  EXPECT_EQ(resolve_engine(Engine::kJump, 100'000, false), Engine::kJump);
  EXPECT_EQ(resolve_engine(Engine::kBatch, 10, false), Engine::kBatch);
}

TEST(EngineNames, EveryEnumeratorRoundTripsUnderItsScenarioSpelling) {
  // The spellings are canonical scenario text -- they feed scenario hashes
  // and ppkd cache keys -- so they are pinned, not just round-tripped.
  const std::pair<Engine, std::string_view> pinned[] = {
      {Engine::kAgentArray, "agent"},
      {Engine::kJump, "jump"},
      {Engine::kBatch, "batch"},
      {Engine::kBatchSharded, "batch-sharded"},
      {Engine::kGraph, "graph"},
      {Engine::kGraphJump, "graph-jump"},
      {Engine::kAuto, "auto"},
  };
  for (const auto& [engine, name] : pinned) {
    EXPECT_EQ(engine_name(engine), name);
    EXPECT_EQ(parse_engine(name), engine) << name;
  }
  for (int e = 0; e <= static_cast<int>(Engine::kAuto); ++e) {
    const auto engine = static_cast<Engine>(e);
    EXPECT_EQ(parse_engine(engine_name(engine)), engine) << e;
  }
  EXPECT_FALSE(parse_engine("sharded").has_value());
  // The deleted count-vector engine's spelling: unknown, never an alias.
  EXPECT_FALSE(parse_engine("count").has_value());
  EXPECT_FALSE(parse_engine("").has_value());
}

TEST_F(MonteCarloTest, BatchAndAutoEnginesStabilizeLikeTheOthers) {
  for (const Engine engine : {Engine::kBatch, Engine::kAuto}) {
    MonteCarloOptions options;
    options.trials = 8;
    options.engine = engine;
    const auto result =
        run_monte_carlo(protocol_, table_, 16, oracle_factory(16), options);
    EXPECT_EQ(result.stabilized_count(), 8u)
        << "engine=" << static_cast<int>(engine);
  }
}

TEST_F(MonteCarloTest, MaxInteractionsBoundsUnstableRuns) {
  MonteCarloOptions options;
  options.trials = 3;
  options.max_interactions = 50;
  // An oracle that never fires forces the budget to bind.
  const auto result = run_monte_carlo(
      protocol_, table_, 12,
      [] { return std::make_unique<NeverStableOracle>(); }, options);
  for (const auto& trial : result.trials) {
    EXPECT_EQ(trial.interactions, 50u);
    EXPECT_FALSE(trial.stabilized);
  }
}

TEST_F(MonteCarloTest, DefaultBudgetIsFiniteNotUINT64MAX) {
  // Regression: the default used to be UINT64_MAX, so a run whose stable
  // pattern was unreachable (e.g. a post-crash population) hung forever.
  const MonteCarloOptions options;
  EXPECT_EQ(options.max_interactions, kDefaultInteractionBudget);
  EXPECT_LT(kDefaultInteractionBudget, UINT64_MAX);
  // ...while still clearing the paper's most expensive configuration
  // (n = 960, k = 8 stabilizes in ~7e8 interactions) by a wide margin.
  EXPECT_GE(kDefaultInteractionBudget, 10'000'000'000ULL);
}

TEST_F(MonteCarloTest, NonConvergentInputTerminatesViaBudget) {
  // Deliberately non-convergent input: every agent committed to g1 is
  // silent under Algorithm 1 (committed agents cannot re-balance), and the
  // stable pattern for n = 12 is unreachable.  The trial must end at the
  // budget with stabilized = false -- not hang.
  Counts stuck(protocol_.num_states(), 0);
  stuck[protocol_.g(1)] = 12;
  MonteCarloOptions options;
  options.trials = 2;
  options.max_interactions = 100'000;
  const auto result =
      run_monte_carlo(table_, stuck, oracle_factory(12), options);
  for (const auto& trial : result.trials) {
    EXPECT_FALSE(trial.stabilized);
    EXPECT_FALSE(trial.timed_out);
    // The agent engine cannot see silence, so it exhausts the budget drawing
    // null pairs: ordinary budget exhaustion, not a stall.
    EXPECT_FALSE(trial.stalled);
    EXPECT_EQ(trial.interactions, 100'000u);
    EXPECT_EQ(trial.effective, 0u);  // all-g1 is silent
  }
}

TEST_F(MonteCarloTest, SilentDeadConfigurationReportsStalledOnJumpEngine) {
  // The jump engine detects silence immediately; the trial must be
  // distinguishable from budget exhaustion (both flags false used to mean
  // either).
  Counts stuck(protocol_.num_states(), 0);
  stuck[protocol_.g(1)] = 12;
  MonteCarloOptions options;
  options.trials = 1;
  options.max_interactions = 100'000;
  options.engine = Engine::kJump;
  const auto plain = run_monte_carlo(table_, stuck, oracle_factory(12), options);
  ASSERT_EQ(plain.trials.size(), 1u);
  EXPECT_FALSE(plain.trials[0].stabilized);
  EXPECT_FALSE(plain.trials[0].timed_out);
  EXPECT_TRUE(plain.trials[0].stalled);
  EXPECT_LT(plain.trials[0].interactions, 100'000u);

  // Same through the wall-clock chunked path.
  options.wall_clock_limit_seconds = 3600.0;
  const auto chunked =
      run_monte_carlo(table_, stuck, oracle_factory(12), options);
  ASSERT_EQ(chunked.trials.size(), 1u);
  EXPECT_FALSE(chunked.trials[0].stabilized);
  EXPECT_FALSE(chunked.trials[0].timed_out);
  EXPECT_TRUE(chunked.trials[0].stalled);
}

TEST_F(MonteCarloTest, WallClockLimitStopsNonConvergentRun) {
  Counts stuck(protocol_.num_states(), 0);
  stuck[protocol_.g(1)] = 12;
  MonteCarloOptions options;
  options.trials = 1;
  options.max_interactions = UINT64_MAX;  // only the clock can end this
  options.wall_clock_limit_seconds = 0.0;  // expires at the first check
  const auto result =
      run_monte_carlo(table_, stuck, oracle_factory(12), options);
  ASSERT_EQ(result.trials.size(), 1u);
  EXPECT_TRUE(result.trials[0].timed_out);
  EXPECT_FALSE(result.trials[0].stabilized);
  // Exactly one ~4M-interaction grant ran before the clock was consulted.
  EXPECT_EQ(result.trials[0].interactions, 1ULL << 22);
}

TEST_F(MonteCarloTest, WallClockLimitDoesNotAffectConvergentRuns) {
  MonteCarloOptions options;
  options.trials = 5;
  options.wall_clock_limit_seconds = 3600.0;
  const auto result =
      run_monte_carlo(protocol_, table_, 12, oracle_factory(12), options);
  for (const auto& trial : result.trials) {
    EXPECT_TRUE(trial.stabilized);
    EXPECT_FALSE(trial.timed_out);
  }
}

TEST_F(MonteCarloTest, GraphEnginesStabilizeOnCompleteTopology) {
  // Both graph engines (and kAuto, which resolves to the live-edge engine
  // when a topology is set) must stabilize like the complete-graph engines
  // when the topology *is* the complete graph.
  for (const Engine engine :
       {Engine::kGraph, Engine::kGraphJump, Engine::kAuto}) {
    MonteCarloOptions options;
    options.trials = 6;
    options.engine = engine;
    options.graph = [](std::uint64_t) { return InteractionGraph::complete(12); };
    const auto result =
        run_monte_carlo(protocol_, table_, 12, oracle_factory(12), options);
    EXPECT_EQ(result.stabilized_count(), 6u)
        << "engine=" << static_cast<int>(engine);
  }
}

TEST_F(MonteCarloTest, RandomizedTopologyTrialsAreThreadInvariant) {
  // Per-trial randomized topologies draw their seed from the trial stream,
  // so results are a pure function of (master_seed, trial) regardless of
  // the thread count.
  MonteCarloOptions serial;
  serial.trials = 8;
  serial.master_seed = 2026;
  serial.engine = Engine::kGraphJump;
  // On sparse topologies a trial may cycle forever (free agents keep
  // flipping while walled-in builders block the pattern), so bound the
  // budget: invariance is about equal outcomes, not stabilization.
  serial.max_interactions = 500'000;
  serial.graph = [](std::uint64_t seed) {
    return InteractionGraph::erdos_renyi(12, 0.5, seed);
  };
  MonteCarloOptions parallel = serial;
  parallel.threads = 4;
  const auto a =
      run_monte_carlo(protocol_, table_, 12, oracle_factory(12), serial);
  const auto b =
      run_monte_carlo(protocol_, table_, 12, oracle_factory(12), parallel);
  for (std::size_t t = 0; t < a.trials.size(); ++t) {
    EXPECT_EQ(a.trials[t].interactions, b.trials[t].interactions);
    EXPECT_EQ(a.trials[t].effective, b.trials[t].effective);
    EXPECT_EQ(a.trials[t].stabilized, b.trials[t].stabilized);
  }
}

TEST_F(MonteCarloTest, AutoWithTopologyResolvesToLiveEdge) {
  EXPECT_EQ(resolve_engine(Engine::kAuto, 100, false, true),
            Engine::kGraphJump);
  EXPECT_EQ(resolve_engine(Engine::kAuto, 1'000'000, true, true),
            Engine::kGraphJump);
  EXPECT_EQ(resolve_engine(Engine::kGraph, 100, false, true), Engine::kGraph);
}

TEST_F(MonteCarloTest, GraphEngineTopologyMismatchFailsFast) {
  // A graph engine with no topology, or a topology feeding a non-graph
  // engine, is a configuration error -- not a silently different
  // experiment.
  MonteCarloOptions no_graph;
  no_graph.trials = 1;
  no_graph.engine = Engine::kGraphJump;
  EXPECT_DEATH(
      run_monte_carlo(protocol_, table_, 12, oracle_factory(12), no_graph),
      "precondition");

  MonteCarloOptions stray_graph;
  stray_graph.trials = 1;
  stray_graph.engine = Engine::kAgentArray;
  stray_graph.graph = [](std::uint64_t) {
    return InteractionGraph::complete(12);
  };
  EXPECT_DEATH(
      run_monte_carlo(protocol_, table_, 12, oracle_factory(12), stray_graph),
      "precondition");
}

TEST_F(MonteCarloTest, WrongSizeTopologyFailsFast) {
  MonteCarloOptions options;
  options.trials = 1;
  options.engine = Engine::kGraphJump;
  options.graph = [](std::uint64_t) { return InteractionGraph::complete(13); };
  EXPECT_DEATH(
      run_monte_carlo(protocol_, table_, 12, oracle_factory(12), options),
      "precondition");
}

TEST_F(MonteCarloTest, WatchMarksOnLiveEdgeTopologyEngine) {
  // Every engine with a watch hook records the same marks: the live-edge
  // engine, the agent array's topology draw and its epsilon-fair draw.
  const auto complete = [](std::uint64_t) {
    return InteractionGraph::complete(14);
  };
  MonteCarloOptions live_edge;
  live_edge.engine = Engine::kGraphJump;
  live_edge.graph = complete;
  MonteCarloOptions per_draw;
  per_draw.engine = Engine::kGraph;
  per_draw.graph = complete;
  MonteCarloOptions epsilon_fair;
  epsilon_fair.engine = Engine::kAuto;
  epsilon_fair.fairness = FairnessSpec::epsilon_fair(0.5);
  for (MonteCarloOptions options : {live_edge, per_draw, epsilon_fair}) {
    SCOPED_TRACE(std::string(engine_name(options.engine)));
    options.trials = 6;
    options.watch_state = protocol_.g(4);
    const std::uint32_t n = 14;  // floor(14/4) = 3 groupings
    const auto result =
        run_monte_carlo(protocol_, table_, n, oracle_factory(n), options);
    for (const auto& trial : result.trials) {
      ASSERT_TRUE(trial.stabilized);
      ASSERT_EQ(trial.watch_marks.size(), 3u);
      for (std::size_t i = 1; i < trial.watch_marks.size(); ++i) {
        EXPECT_GT(trial.watch_marks[i], trial.watch_marks[i - 1]);
      }
      EXPECT_LE(trial.watch_marks.back(), trial.interactions);
    }
  }
}

TEST_F(MonteCarloTest, DeadTopologyReportsStalledOnLiveEdgeEngine) {
  // All-g1 is silent under Algorithm 1 (every ordered pair is null), so a
  // ring carries zero live edges.  The live-edge engine proves the wedge at
  // interaction zero and reports a stall; the per-draw engine cannot see it
  // and exhausts the budget like the agent engine does on the complete
  // graph.
  Counts stuck(protocol_.num_states(), 0);
  stuck[protocol_.g(1)] = 12;

  MonteCarloOptions options;
  options.trials = 1;
  options.max_interactions = 100'000;
  options.engine = Engine::kGraphJump;
  options.graph = [](std::uint64_t) { return InteractionGraph::ring(12); };
  const auto live = run_monte_carlo(table_, stuck, oracle_factory(12), options);
  ASSERT_EQ(live.trials.size(), 1u);
  EXPECT_TRUE(live.trials[0].stalled);
  EXPECT_FALSE(live.trials[0].stabilized);
  EXPECT_EQ(live.trials[0].interactions, 0u);

  options.engine = Engine::kGraph;
  const auto draw = run_monte_carlo(table_, stuck, oracle_factory(12), options);
  ASSERT_EQ(draw.trials.size(), 1u);
  EXPECT_FALSE(draw.trials[0].stalled);
  EXPECT_FALSE(draw.trials[0].stabilized);
  EXPECT_EQ(draw.trials[0].interactions, 100'000u);
  EXPECT_EQ(draw.trials[0].effective, 0u);
}

TEST_F(MonteCarloTest, SummaryStatisticsAreConsistent) {
  MonteCarloOptions options;
  options.trials = 20;
  const auto result =
      run_monte_carlo(protocol_, table_, 12, oracle_factory(12), options);
  const double mean = result.mean_interactions();
  EXPECT_GT(mean, 0.0);
  double manual = 0.0;
  for (const auto& trial : result.trials) {
    manual += static_cast<double>(trial.interactions);
  }
  manual /= static_cast<double>(result.trials.size());
  EXPECT_DOUBLE_EQ(mean, manual);
  EXPECT_GE(result.stddev_interactions(), 0.0);
}

}  // namespace
}  // namespace ppk::pp
