#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "core/invariants.hpp"
#include "core/kpartition.hpp"
#include "core/weak_kpartition.hpp"
#include "pp/agent_simulator.hpp"
#include "pp/jump_simulator.hpp"
#include "pp/trace.hpp"
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

/// Forwards to an inner oracle and counts stable() queries.
class QueryCountingOracle final : public StabilityOracle {
 public:
  explicit QueryCountingOracle(std::unique_ptr<StabilityOracle> inner)
      : inner_(std::move(inner)) {}
  void reset(const Counts& counts) override { inner_->reset(counts); }
  void on_transition(StateId p, StateId q, StateId p_next,
                     StateId q_next) override {
    inner_->on_transition(p, q, p_next, q_next);
  }
  [[nodiscard]] bool stable() const override {
    ++queries_;
    return inner_->stable();
  }
  [[nodiscard]] std::uint64_t queries() const noexcept { return queries_; }

 private:
  std::unique_ptr<StabilityOracle> inner_;
  mutable std::uint64_t queries_ = 0;
};

TEST(AgentSimulator, QueriesOracleOnlyAfterEffectiveDraws) {
  // run() asks the oracle once up front and then once per effective draw:
  // a null draw makes no callback, so it cannot change the verdict.  The
  // result must equal a loop that queries after every step().
  const core::KPartitionProtocol protocol(4);
  const TransitionTable table(protocol);
  constexpr std::uint32_t kN = 40;
  for (const std::uint64_t budget : {std::uint64_t{0}, std::uint64_t{1000},
                                     std::uint64_t{UINT64_MAX}}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const Population initial(kN, protocol.num_states(),
                               protocol.initial_state());
      AgentSimulator sim(table, initial, seed);
      QueryCountingOracle oracle(core::stable_pattern_oracle(protocol, kN));
      const SimResult fast = sim.run(oracle, budget);
      EXPECT_LE(oracle.queries(), fast.effective + 1);

      AgentSimulator ref(table, initial, seed);
      auto ref_oracle = core::stable_pattern_oracle(protocol, kN);
      ref_oracle->reset(ref.population().counts());
      SimResult slow;
      while (!ref_oracle->stable() && slow.interactions < budget) {
        ++slow.interactions;
        if (ref.step(*ref_oracle)) ++slow.effective;
      }
      slow.stabilized = ref_oracle->stable();
      EXPECT_EQ(fast.interactions, slow.interactions) << "seed " << seed;
      EXPECT_EQ(fast.effective, slow.effective) << "seed " << seed;
      EXPECT_EQ(fast.stabilized, slow.stabilized) << "seed " << seed;
      EXPECT_EQ(sim.population().counts(), ref.population().counts());
    }
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
