#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/invariants.hpp"
#include "core/kpartition.hpp"
#include "core/weak_kpartition.hpp"
#include "io/snapshot_io.hpp"
#include "pp/agent_simulator.hpp"
#include "pp/jump_simulator.hpp"
#include "pp/trace.hpp"
#include "pp/trial.hpp"
#include "pp/transition_table.hpp"
#include "protocols/leader_election.hpp"

namespace ppk::pp {
namespace {

TEST(AgentSimulator, CountsEveryDrawnPairIncludingNull) {
  // A population of only followers never reacts: every step is a null
  // interaction, and the paper's measure counts them all.
  const protocols::LeaderElectionProtocol protocol;
  const TransitionTable table(protocol);
  Population population(Counts{0, 5});  // five followers
  AgentSimulator sim(table, std::move(population), 1);
  NeverStableOracle oracle;
  const SimResult result = sim.run(oracle, 1000);
  EXPECT_EQ(result.interactions, 1000u);
  EXPECT_EQ(result.effective, 0u);
  EXPECT_FALSE(result.stabilized);
}

TEST(AgentSimulator, LeaderElectionStabilizesToOneLeader) {
  const protocols::LeaderElectionProtocol protocol;
  const TransitionTable table(protocol);
  Population population(50, 2, protocols::LeaderElectionProtocol::kLeader);
  AgentSimulator sim(table, std::move(population), 7);
  SilenceOracle oracle(table);
  const SimResult result = sim.run(oracle);
  EXPECT_TRUE(result.stabilized);
  EXPECT_EQ(result.effective, 49u);  // exactly n - 1 demotions
  EXPECT_EQ(sim.population().counts()[0], 1u);
  EXPECT_EQ(sim.population().counts()[1], 49u);
}

TEST(AgentSimulator, SameSeedSameExecution) {
  const core::KPartitionProtocol protocol(3);
  const TransitionTable table(protocol);
  auto run_once = [&] {
    Population population(9, protocol.num_states(), protocol.initial_state());
    AgentSimulator sim(table, std::move(population), 42);
    auto oracle = core::stable_pattern_oracle(protocol, 9);
    return sim.run(*oracle).interactions;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(AgentSimulator, DifferentSeedsUsuallyDiffer) {
  const core::KPartitionProtocol protocol(3);
  const TransitionTable table(protocol);
  auto run_once = [&](std::uint64_t seed) {
    Population population(9, protocol.num_states(), protocol.initial_state());
    AgentSimulator sim(table, std::move(population), seed);
    auto oracle = core::stable_pattern_oracle(protocol, 9);
    return sim.run(*oracle).interactions;
  };
  int distinct = 0;
  const auto base = run_once(0);
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    if (run_once(seed) != base) ++distinct;
  }
  EXPECT_GT(distinct, 0);
}

TEST(AgentSimulator, ResumePreservesOracleProgressAcrossChunks) {
  // Regression: the Monte-Carlo chunk loop used to grant the budget via run(),
  // and every run() resets the oracle -- a quiescence lull spanning a chunk
  // boundary was discarded, so a window longer than the chunk could never
  // be satisfied.  resume() must continue the oracle where the previous
  // chunk stopped, making a chunked run identical to an unchunked one.
  const core::KPartitionProtocol protocol(4);
  const TransitionTable table(protocol);
  const std::uint64_t seed = 11;
  // n = 13, k = 4 leaves one free agent whose flips stay effective after
  // stabilization, so the quiescence window does fill up.
  constexpr std::uint32_t kN = 13;
  constexpr std::uint64_t kWindow = 500;  // effective interactions
  constexpr std::uint64_t kChunk = 64;    // drawn pairs per grant
  constexpr std::uint64_t kBudget = 5'000'000;

  Population whole_pop(kN, protocol.num_states(), protocol.initial_state());
  AgentSimulator whole(table, std::move(whole_pop), seed);
  auto whole_oracle = make_quiescence_oracle(protocol, kWindow);
  const SimResult reference = whole.run(whole_oracle, kBudget);
  ASSERT_TRUE(reference.stabilized);

  Population chunked_pop(kN, protocol.num_states(), protocol.initial_state());
  AgentSimulator chunked(table, std::move(chunked_pop), seed);
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
  Population reset_pop(kN, protocol.num_states(), protocol.initial_state());
  AgentSimulator resetting(table, std::move(reset_pop), seed);
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

/// Forwards to an inner oracle, counting stable() queries, the callbacks
/// that may change its verdict (on_transition, on_batch) and the effective
/// interactions they report.
class QueryCountingOracle final : public StabilityOracle {
 public:
  explicit QueryCountingOracle(std::unique_ptr<StabilityOracle> inner)
      : inner_(std::move(inner)) {}
  void reset(const Counts& counts) override { inner_->reset(counts); }
  void on_transition(StateId p, StateId q, StateId p_next,
                     StateId q_next) override {
    ++callbacks_;
    ++effective_;
    inner_->on_transition(p, q, p_next, q_next);
  }
  void on_batch(const Counts& counts, std::uint64_t interactions,
                std::uint64_t effective) override {
    ++callbacks_;
    effective_ += effective;
    inner_->on_batch(counts, interactions, effective);
  }
  [[nodiscard]] bool stable() const override {
    ++queries_;
    return inner_->stable();
  }
  [[nodiscard]] std::uint64_t queries() const noexcept { return queries_; }
  [[nodiscard]] std::uint64_t callbacks() const noexcept { return callbacks_; }
  [[nodiscard]] std::uint64_t effective() const noexcept { return effective_; }

 private:
  std::unique_ptr<StabilityOracle> inner_;
  std::uint64_t callbacks_ = 0;
  std::uint64_t effective_ = 0;
  mutable std::uint64_t queries_ = 0;
};

/// One engine behind the shared run()/resume() loop (pp/engine_loop.hpp),
/// as the engine factory builds it from `mc` over n = 40 agents, or the
/// agent engine's churn rule with an empty schedule (`churn`), which the
/// factory does not build.
struct LoopEngineRow {
  const char* name;
  MonteCarloOptions mc;
  BatchMode batch_mode = BatchMode::kAuto;
  bool churn = false;
};

std::vector<LoopEngineRow> loop_engine_rows() {
  const auto row = [](const char* name, Engine engine) {
    LoopEngineRow r{name, {}};
    r.mc.engine = engine;
    return r;
  };
  const auto complete = [](std::uint64_t) {
    return InteractionGraph::complete(40);
  };
  std::vector<LoopEngineRow> rows;
  rows.push_back(row("agent", Engine::kAgentArray));
  rows.push_back(row("graph", Engine::kGraph));
  rows.back().mc.graph = complete;
  rows.push_back(row("adversarial", Engine::kAgentArray));
  rows.back().mc.fairness = FairnessSpec::epsilon_fair(0.5);
  rows.push_back(row("jump", Engine::kJump));
  rows.push_back(row("graph-jump", Engine::kGraphJump));
  rows.back().mc.graph = complete;
  // At n = 40 kAuto always picks the thin regime; force each one.
  rows.push_back(row("batch", Engine::kBatch));
  rows.back().batch_mode = BatchMode::kForceBatch;
  rows.push_back(row("batch-thin", Engine::kBatch));
  rows.back().batch_mode = BatchMode::kForceThin;
  rows.push_back(row("batch-sharded", Engine::kBatchSharded));
  rows.back().batch_mode = BatchMode::kForceBatch;
  rows.push_back(row("churn", Engine::kAgentArray));
  rows.back().churn = true;
  return rows;
}

/// Builds `row`'s engine from `initial` with `seed` and calls fn(engine).
template <typename Fn>
void with_loop_engine(const Protocol& protocol, const TransitionTable& table,
                      const Counts& initial, const LoopEngineRow& row,
                      std::uint64_t seed, Fn&& fn) {
  const auto visit = [&](auto& sim) {
    if constexpr (requires { sim.set_batch_mode(row.batch_mode); }) {
      sim.set_batch_mode(row.batch_mode);
    }
    fn(sim);
  };
  if (row.churn) {
    AgentSimulator sim(table, Population(initial), seed, {});
    visit(sim);
    return;
  }
  with_engine(&protocol, table, initial, row.mc, seed, nullptr, nullptr,
              visit);
}

/// Drives `sim` in grants of 7 until it stabilizes or goes silent (or
/// `max_grants` run out): every grant advances exactly 7 unless the run
/// stabilizes or goes silent, reports the effective interactions the
/// oracle heard of, and asks the oracle at most once per callback + 1.
template <typename Sim>
void expect_exact_grants(Sim& sim, QueryCountingOracle& oracle,
                         int max_grants) {
  constexpr std::uint64_t kGrant = 7;
  bool first = true;
  for (int grant = 0; grant < max_grants; ++grant) {
    const std::uint64_t queries = oracle.queries();
    const std::uint64_t callbacks = oracle.callbacks();
    const std::uint64_t effective = oracle.effective();
    const SimResult r =
        first ? sim.run(oracle, kGrant) : sim.resume(oracle, kGrant);
    first = false;
    EXPECT_LE(oracle.queries() - queries, oracle.callbacks() - callbacks + 1);
    EXPECT_EQ(r.effective, oracle.effective() - effective);
    EXPECT_LE(r.interactions, kGrant);
    if (r.stabilized) return;
    if (r.interactions < kGrant) {
      EXPECT_EQ(sim.advance(oracle, 1).interactions, 0u);  // silent
      return;
    }
  }
}

TEST(AgentSimulator, QueriesOracleOnlyAfterEffectiveDraws) {
  // Every engine runs through the shared loop, which asks the oracle once
  // per grant and then only after an advance that made a callback: null
  // draws make none, so they cannot change the verdict.  Per grant, the
  // queries are at most the callbacks + 1; a grant of g advances exactly g
  // unless the run stabilizes or goes silent; and the result equals a
  // reference loop that asks after every advance (for the per-draw
  // engines, one advance is one step()).
  const core::KPartitionProtocol protocol(4);
  const TransitionTable table(protocol);
  constexpr std::uint32_t kN = 40;
  const Counts initial =
      Population(kN, protocol.num_states(), protocol.initial_state()).counts();
  const auto pattern = [&] {
    return QueryCountingOracle(core::stable_pattern_oracle(protocol, kN));
  };
  for (const LoopEngineRow& row : loop_engine_rows()) {
    SCOPED_TRACE(row.name);
    for (const std::uint64_t budget :
         {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{1000},
          std::uint64_t{UINT64_MAX}}) {
      for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        SCOPED_TRACE("budget " + std::to_string(budget) + ", seed " +
                     std::to_string(seed));
        SimResult fast;
        Snapshot fast_end;
        with_loop_engine(protocol, table, initial, row, seed, [&](auto& sim) {
          QueryCountingOracle oracle = pattern();
          fast = sim.run(oracle, budget);
          EXPECT_LE(oracle.queries(), oracle.callbacks() + 1);
          EXPECT_EQ(fast.effective, oracle.effective());
          EXPECT_TRUE(fast.stabilized || fast.interactions == budget);
          fast_end = sim.snapshot();
        });

        with_loop_engine(protocol, table, initial, row, seed, [&](auto& ref) {
          auto oracle = core::stable_pattern_oracle(protocol, kN);
          oracle->reset(ref.counts());
          SimResult slow;
          while (!oracle->stable() && slow.interactions < budget) {
            const Advance a =
                ref.advance(*oracle, budget - slow.interactions);
            if (a.interactions == 0) break;
            slow.interactions += a.interactions;
          }
          slow.stabilized = oracle->stable();
          EXPECT_EQ(fast.interactions, slow.interactions);
          EXPECT_EQ(fast.stabilized, slow.stabilized);
          EXPECT_EQ(fast_end, ref.snapshot());  // RNG, counters, states
        });
      }
    }
    with_loop_engine(protocol, table, initial, row, 5, [&](auto& sim) {
      QueryCountingOracle oracle = pattern();
      expect_exact_grants(sim, oracle, 1'000'000);
    });
  }

  // Leader election under an oracle that never agrees: the per-draw
  // engines draw every grant in full, the others stop short once a single
  // leader is left (silence).
  const protocols::LeaderElectionProtocol election;
  const TransitionTable election_table(election);
  for (const LoopEngineRow& row : loop_engine_rows()) {
    SCOPED_TRACE(row.name);
    with_loop_engine(election, election_table, Counts{kN, 0}, row, 6,
                     [&](auto& sim) {
                       QueryCountingOracle oracle(
                           std::make_unique<NeverStableOracle>());
                       expect_exact_grants(sim, oracle, 10'000);
                     });
  }
}

TEST(AgentSimulator, ObserverSeesEveryEffectiveInteraction) {
  const core::KPartitionProtocol protocol(4);
  const TransitionTable table(protocol);
  Population population(12, protocol.num_states(), protocol.initial_state());
  AgentSimulator sim(table, std::move(population), 3);
  std::uint64_t observed = 0;
  sim.set_observer([&](const SimEvent& event) {
    ++observed;
    EXPECT_NE(event.initiator, event.responder);
    // Events must describe a real rule of the protocol.
    const Transition t = protocol.delta(event.p, event.q);
    EXPECT_EQ(t.initiator, event.p_next);
    EXPECT_EQ(t.responder, event.q_next);
  });
  auto oracle = core::stable_pattern_oracle(protocol, 12);
  const SimResult result = sim.run(*oracle);
  EXPECT_EQ(observed, result.effective);
}

TEST(AgentSimulator, ReplayAppliesScheduleDeterministically) {
  // Replays the first grouping of the paper's Fig. 1 narrative on n = 6,
  // k = 6: all agents pair into initial', then a chain builds g1..g6.
  const core::KPartitionProtocol protocol(6);
  const TransitionTable table(protocol);
  Population population(6, protocol.num_states(), protocol.initial_state());
  AgentSimulator sim(table, std::move(population), 0);

  const std::vector<std::pair<std::uint32_t, std::uint32_t>> schedule = {
      {0, 1}, {2, 3}, {4, 5},  // everyone -> initial'
      {4, 5},                  // both back to initial
      {0, 5},                  // initial' x initial -> m2 x g1
      {5, 1}, {5, 2}, {5, 3},  // wrong order: m-agent is the initiator
  };
  sim.replay({{0, 1}, {2, 3}, {4, 5}});
  for (std::uint32_t a = 0; a < 6; ++a) {
    EXPECT_EQ(sim.population().state_of(a),
              core::KPartitionProtocol::kInitialPrime);
  }
  sim.replay({{4, 5}});
  EXPECT_EQ(sim.population().state_of(4), core::KPartitionProtocol::kInitial);
  EXPECT_EQ(sim.population().state_of(5), core::KPartitionProtocol::kInitial);

  // (a1 in initial', a6 in initial): rule 5 mirrored -> a1 = m2? No:
  // (initial', initial) -> (m2, g1): initiator a1 was initial'.
  sim.replay({{0, 5}});
  EXPECT_EQ(sim.population().state_of(0), protocol.m(2));
  EXPECT_EQ(sim.population().state_of(5), protocol.g(1));

  // The m2 agent converts the remaining free agents one by one.
  sim.replay({{0, 1}, {0, 2}, {0, 3}});
  EXPECT_EQ(sim.population().state_of(1), protocol.g(2));
  EXPECT_EQ(sim.population().state_of(2), protocol.g(3));
  EXPECT_EQ(sim.population().state_of(3), protocol.g(4));
  EXPECT_EQ(sim.population().state_of(0), protocol.m(5));

  // Last free agent: rule 7 completes the set.
  sim.replay({{0, 4}});
  EXPECT_EQ(sim.population().state_of(0), protocol.g(6));
  EXPECT_EQ(sim.population().state_of(4), protocol.g(5));
  EXPECT_TRUE(core::matches_stable_pattern(protocol, 6,
                                           sim.population().counts()));
}

TEST(EngineAgreement, MeanInteractionsMatchAcrossEngines) {
  // Both engines sample the same pair distribution, so their mean
  // stabilization times must agree statistically.
  const core::KPartitionProtocol protocol(3);
  const TransitionTable table(protocol);
  const std::uint32_t n = 15;
  constexpr int kTrials = 60;

  double agent_mean = 0.0;
  double jump_mean = 0.0;
  for (int trial = 0; trial < kTrials; ++trial) {
    {
      Population population(n, protocol.num_states(), protocol.initial_state());
      AgentSimulator sim(table, std::move(population),
                         derive_stream_seed(1, static_cast<std::uint64_t>(trial)));
      auto oracle = core::stable_pattern_oracle(protocol, n);
      agent_mean += static_cast<double>(sim.run(*oracle).interactions);
    }
    {
      Counts initial(protocol.num_states(), 0);
      initial[protocol.initial_state()] = n;
      JumpSimulator sim(table, initial,
                        derive_stream_seed(2, static_cast<std::uint64_t>(trial)));
      auto oracle = core::stable_pattern_oracle(protocol, n);
      jump_mean += static_cast<double>(sim.run(*oracle).interactions);
    }
  }
  agent_mean /= kTrials;
  jump_mean /= kTrials;
  // Means are a few hundred; allow a generous 35% relative gap to keep the
  // test deterministic-flake-free while still catching distribution bugs.
  EXPECT_LT(std::abs(agent_mean - jump_mean) / agent_mean, 0.35)
      << "agent=" << agent_mean << " jump=" << jump_mean;
}

// Golden pin for the jump engine: fixed seeds, fixed protocols, and the
// exact trajectory summary each produces.  Any change to the engine's
// weight bookkeeping, scan order or RNG use moves these numbers, so a
// kernel rewrite that claims bit identity must leave them untouched
// (including under -mavx2 auto-vectorized builds).
struct JumpGolden {
  std::uint64_t interactions;
  std::uint64_t effective;
  std::uint64_t counts_hash;  // FNV-1a over the final counts
};

std::uint64_t fnv1a_counts(const Counts& counts) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint32_t c : counts) {
    for (int byte = 0; byte < 4; ++byte) {
      h ^= (c >> (8 * byte)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

void expect_golden(const JumpGolden& got, const JumpGolden& want,
                   const std::string& where) {
  EXPECT_EQ(got.interactions, want.interactions) << where;
  EXPECT_EQ(got.effective, want.effective) << where;
  EXPECT_EQ(got.counts_hash, want.counts_hash) << where;
}

TEST(JumpGolden, TrajectoriesArePinned) {
  struct Case {
    std::shared_ptr<const Protocol> protocol;
    std::uint32_t n;
    bool silence;  // SilenceOracle instead of the stable-pattern oracle
    std::array<JumpGolden, 3> want;  // seeds 1, 2, 3
  };
  const auto kpartition = [](GroupId k) {
    return std::make_shared<const core::KPartitionProtocol>(k);
  };
  const std::vector<Case> cases = {
      {kpartition(2), 50, false,
       {{{1269, 310, 0xf1228cc99dab1c55ULL},
         {3790, 482, 0xf1228cc99dab1c55ULL},
         {3940, 448, 0xf1228cc99dab1c55ULL}}}},
      {kpartition(3), 61, false,
       {{{5779, 476, 0x2672b16d4be5b3f0ULL},
         {1267, 291, 0x2672b16d4be5b3f0ULL},
         {598, 160, 0x4846d585bd9a9e60ULL}}}},
      {kpartition(6), 200, false,
       {{{175322, 8670, 0xe2c9c3fa3b375c37ULL},
         {205676, 10533, 0xe2c9c3fa3b375c37ULL},
         {149880, 7501, 0xe2c9c3fa3b375c37ULL}}}},
      {kpartition(16), 400, false,
       {{{42975567, 1281596, 0xf1388782ec8fcf05ULL},
         {23539421, 767488, 0xf1388782ec8fcf05ULL},
         {23501834, 1015545, 0xf1388782ec8fcf05ULL}}}},
      {std::make_shared<const core::WeakKPartitionProtocol>(4), 120, true,
       {{{37304, 282, 0x256b72687602b577ULL},
         {21796, 276, 0x256b72687602b577ULL},
         {26535, 259, 0x256b72687602b577ULL}}}},
      // (L, L) -> (L, F): an effective diagonal pair, weighted c_L - 1.
      {std::make_shared<const protocols::LeaderElectionProtocol>(), 300, true,
       {{{113932, 299, 0x6193997a05da7914ULL},
         {49232, 299, 0x6193997a05da7914ULL},
         {131918, 299, 0x6193997a05da7914ULL}}}},
  };
  for (const Case& c : cases) {
    const TransitionTable table(*c.protocol);
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      std::unique_ptr<StabilityOracle> oracle;
      if (c.silence) {
        oracle = std::make_unique<SilenceOracle>(table);
      } else {
        oracle = core::stable_pattern_oracle(
            static_cast<const core::KPartitionProtocol&>(*c.protocol), c.n);
      }
      Counts initial(c.protocol->num_states(), 0);
      initial[c.protocol->initial_state()] = c.n;
      JumpSimulator sim(table, std::move(initial), seed);
      const SimResult result = sim.run(*oracle);
      const std::string where =
          c.protocol->name() + " seed " + std::to_string(seed);
      EXPECT_TRUE(result.stabilized) << where;
      expect_golden({result.interactions, result.effective,
                     fnv1a_counts(sim.counts())},
                    c.want[seed - 1], where);
    }
  }
}

TEST(JumpGolden, BudgetTruncatedChunksArePinned) {
  // n = 49 = 1 (mod 3) never goes silent, so every grant ends inside a
  // truncated null run or on an effective pair; the pin covers the
  // truncation path's RNG use as well.
  const core::KPartitionProtocol protocol(3);
  const TransitionTable table(protocol);
  Counts initial(protocol.num_states(), 0);
  initial[protocol.initial_state()] = 49;
  JumpSimulator sim(table, std::move(initial), 5);
  NeverStableOracle oracle;
  oracle.reset(sim.counts());
  std::uint64_t effective = 0;
  for (const std::uint64_t grant : {1ULL, 7ULL, 250ULL, 3'000ULL, 40'000ULL}) {
    effective += sim.resume(oracle, grant).effective;
  }
  expect_golden({sim.interactions(), effective, fnv1a_counts(sim.counts())},
                {43258, 2067, 0x483b58570ba818f4ULL}, "chunked");
}

std::uint64_t fnv1a_text(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Golden pin for the agent-array engine's draw rules: the complete-graph
// draw, the edge + orientation draw of a topology, and the epsilon-fair and
// weak round-robin adversaries, each built by the engine factory.  The
// pinned snapshot text covers the RNG position, the counters, every
// agent's state and the weak round-robin remainder, so any change to a
// rule's RNG use or snapshot payload moves these numbers.
TEST(AgentArrayGolden, DrawRulesArePinned) {
  struct Case {
    const char* name;
    MonteCarloOptions mc;
    std::uint64_t budget;
    std::uint64_t interactions;
    std::uint64_t effective;
    std::uint64_t snapshot_hash;  // FNV-1a over the snapshot text
    std::uint64_t marks_hash;     // FNV-1a over the watch marks
  };
  const core::KPartitionProtocol protocol(3);
  const TransitionTable table(protocol);
  constexpr std::uint32_t kN = 24;
  const auto ring = [](std::uint64_t) { return InteractionGraph::ring(kN); };
  const auto star = [](std::uint64_t) { return InteractionGraph::star(kN); };
  const auto options = [](Engine engine, FairnessSpec fairness,
                          std::function<InteractionGraph(std::uint64_t)> graph,
                          std::optional<StateId> watch) {
    MonteCarloOptions mc;
    mc.engine = engine;
    mc.fairness = fairness;
    mc.graph = std::move(graph);
    mc.watch_state = watch;
    return mc;
  };
  const FairnessSpec uniform = FairnessSpec::uniform_random();
  const std::vector<Case> cases = {
      {"agent",
       options(Engine::kAgentArray, uniform, {},
               core::KPartitionProtocol::kInitialPrime),
       100'000, 318, 63, 0x947148e2670c413fULL, 0xc1f290a10f0feeb3ULL},
      {"graph-ring", options(Engine::kGraph, uniform, ring, {}), 20'000,
       20'000, 1677, 0x9958d950b193d1b2ULL, 0},
      {"graph-star", options(Engine::kGraph, uniform, star, {}), 20'000,
       20'000, 18279, 0x30e2c1d6f7cd1ad3ULL, 0},
      {"epsilon-0.25",
       options(Engine::kAuto, FairnessSpec::epsilon_fair(0.25), {}, {}),
       100'000, 782, 331, 0x126c669a03fb05b9ULL, 0},
      // 1000 = 1 full round of 552 ordered pairs + 448 draws: the snapshot
      // carries a 104-pair round remainder.
      {"weak-round-robin",
       options(Engine::kAuto, FairnessSpec::weak_round_robin(), {}, {}), 1'000,
       1'000, 988, 0x1a0cdba0db6034fcULL, 0},
      {"epsilon-0.5-ring",
       options(Engine::kAuto, FairnessSpec::epsilon_fair(0.5), ring, {}),
       20'000, 20'000, 3437, 0x69d7ef94e714cf9cULL, 0},
  };
  const Counts initial =
      Population(kN, protocol.num_states(), protocol.initial_state()).counts();
  for (const Case& c : cases) {
    std::vector<std::uint64_t> marks;
    with_engine(&protocol, table, initial, c.mc, 9, nullptr, &marks,
                [&](auto& sim) {
                  auto oracle = core::stable_pattern_oracle(protocol, kN);
                  const SimResult result = sim.run(*oracle, c.budget);
                  std::string text;
                  for (const std::uint64_t m : marks) {
                    text += std::to_string(m) + ' ';
                  }
                  const std::uint64_t snapshot_hash =
                      fnv1a_text(io::serialize_snapshot(sim.snapshot()));
                  const std::uint64_t marks_hash =
                      marks.empty() ? 0 : fnv1a_text(text);
                  EXPECT_EQ(result.interactions, c.interactions) << c.name;
                  EXPECT_EQ(result.effective, c.effective) << c.name;
                  EXPECT_EQ(snapshot_hash, c.snapshot_hash) << c.name;
                  EXPECT_EQ(marks_hash, c.marks_hash) << c.name;
                });
  }
}

TEST(TraceRecorder, RecordsHumanReadableEvents) {
  const core::KPartitionProtocol protocol(3);
  const TransitionTable table(protocol);
  Population population(3, protocol.num_states(), protocol.initial_state());
  AgentSimulator sim(table, std::move(population), 0);
  TraceRecorder recorder(protocol);
  sim.set_observer(recorder.observer());
  sim.replay({{0, 1}});  // (initial, initial) -> (initial', initial')
  ASSERT_EQ(recorder.events().size(), 1u);
  const std::string text = recorder.to_string();
  EXPECT_NE(text.find("(a1,a2)"), std::string::npos);
  EXPECT_NE(text.find("initial"), std::string::npos);
}

TEST(TraceFormatting, FormatsAgentsAndCounts) {
  const core::KPartitionProtocol protocol(3);
  Population population(3, protocol.num_states(), protocol.initial_state());
  population.set_state(1, protocol.g(2));
  EXPECT_EQ(format_agents(protocol, population), "a1:initial a2:g2 a3:initial");
  EXPECT_EQ(format_counts(protocol, population.counts()),
            "{initial:2, g2:1}");
}

}  // namespace
}  // namespace ppk::pp
