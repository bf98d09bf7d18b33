// Property-based tests over *randomly generated* protocols: the substrate
// must behave correctly for any well-formed transition function, not just
// the hand-written ones in this repo.

#include <gtest/gtest.h>

#include <map>
#include <numeric>

#include "core/invariants.hpp"
#include "core/kpartition.hpp"
#include "core/recovery.hpp"
#include "pp/agent_simulator.hpp"
#include "pp/faults.hpp"
#include "pp/jump_simulator.hpp"
#include "pp/transition_table.hpp"
#include "util/rng.hpp"

namespace ppk::pp {
namespace {

/// A deterministic random protocol: every ordered pair's successor is an
/// independent uniform draw (seeded), with some pairs forced to null to
/// keep the dynamics interesting.  Symmetric-ness is not enforced -- the
/// table's checker is itself under test elsewhere.
class RandomProtocol final : public Protocol {
 public:
  RandomProtocol(StateId num_states, std::uint64_t seed, double null_fraction)
      : num_states_(num_states) {
    Xoshiro256 rng(seed);
    table_.resize(static_cast<std::size_t>(num_states) * num_states);
    for (StateId p = 0; p < num_states; ++p) {
      for (StateId q = 0; q < num_states; ++q) {
        Transition t{p, q};
        if (rng.uniform01() >= null_fraction) {
          t.initiator = static_cast<StateId>(rng.below(num_states));
          t.responder = static_cast<StateId>(rng.below(num_states));
        }
        table_[static_cast<std::size_t>(p) * num_states + q] = t;
      }
    }
  }

  [[nodiscard]] std::string name() const override { return "random"; }
  [[nodiscard]] StateId num_states() const override { return num_states_; }
  [[nodiscard]] StateId initial_state() const override { return 0; }
  [[nodiscard]] Transition delta(StateId p, StateId q) const override {
    return table_[static_cast<std::size_t>(p) * num_states_ + q];
  }
  [[nodiscard]] GroupId group(StateId s) const override { return s; }
  [[nodiscard]] GroupId num_groups() const override { return num_states_; }

 private:
  StateId num_states_;
  std::vector<Transition> table_;
};

class FuzzedProtocols : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzedProtocols, AgentEngineConservesPopulation) {
  const RandomProtocol protocol(6, GetParam(), 0.3);
  const TransitionTable table(protocol);
  Population population(25, protocol.num_states(), protocol.initial_state());
  AgentSimulator sim(table, std::move(population), GetParam() ^ 0xF00D);
  NeverStableOracle oracle;
  sim.run(oracle, 20'000);
  const auto& counts = sim.population().counts();
  EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), 0u), 25u);
  // Agent-array and count vector stay mutually consistent.
  Counts recount(protocol.num_states(), 0);
  for (std::uint32_t a = 0; a < 25; ++a) {
    ++recount[sim.population().state_of(a)];
  }
  EXPECT_EQ(recount, counts);
}

TEST_P(FuzzedProtocols, EnginesVisitTheSameStateDistribution) {
  // Run both engines for a fixed horizon many times and compare the mean
  // count of every state.  Identical interaction distributions must give
  // matching expectations; a systematic bias in either sampler shows up
  // immediately.
  const RandomProtocol protocol(5, GetParam(), 0.4);
  const TransitionTable table(protocol);
  const std::uint32_t n = 12;
  constexpr int kTrials = 300;
  constexpr std::uint64_t kHorizon = 200;

  std::vector<double> agent_mean(protocol.num_states(), 0.0);
  std::vector<double> jump_mean(protocol.num_states(), 0.0);
  for (int trial = 0; trial < kTrials; ++trial) {
    {
      Population population(n, protocol.num_states(),
                            protocol.initial_state());
      AgentSimulator sim(
          table, std::move(population),
          derive_stream_seed(GetParam(), static_cast<std::uint64_t>(trial)));
      NeverStableOracle oracle;
      sim.run(oracle, kHorizon);
      for (StateId s = 0; s < protocol.num_states(); ++s) {
        agent_mean[s] += sim.population().counts()[s];
      }
    }
    {
      Counts initial(protocol.num_states(), 0);
      initial[protocol.initial_state()] = n;
      JumpSimulator sim(
          table, initial,
          derive_stream_seed(GetParam() + 1, static_cast<std::uint64_t>(trial)));
      NeverStableOracle oracle;
      sim.run(oracle, kHorizon);
      for (StateId s = 0; s < protocol.num_states(); ++s) {
        jump_mean[s] += sim.counts()[s];
      }
    }
  }
  for (StateId s = 0; s < protocol.num_states(); ++s) {
    agent_mean[s] /= kTrials;
    jump_mean[s] /= kTrials;
    // Mean state occupancies out of n = 12 agents.  Sampling stderr at
    // 300 trials is ~0.35 agents; 1.5 is >4 sigma (no flakes across the
    // seed grid) yet tight enough to catch an off-by-one in the jump
    // engine's pair weights or null-run clamping at the horizon, which
    // shifts occupancies by O(1).
    EXPECT_NEAR(agent_mean[s], jump_mean[s], 1.5)
        << "state " << int{s} << " seed " << GetParam();
  }
}

TEST_P(FuzzedProtocols, TableEffectiveFlagsMatchDeltas) {
  const RandomProtocol protocol(7, GetParam(), 0.5);
  const TransitionTable table(protocol);
  for (StateId p = 0; p < protocol.num_states(); ++p) {
    for (StateId q = 0; q < protocol.num_states(); ++q) {
      const Transition t = protocol.delta(p, q);
      EXPECT_EQ(table.effective(p, q), t.initiator != p || t.responder != q);
    }
  }
}

TEST_P(FuzzedProtocols, ReplayMatchesStepByStepApplication) {
  const RandomProtocol protocol(4, GetParam(), 0.2);
  const TransitionTable table(protocol);
  const std::uint32_t n = 8;

  // Generate a schedule, replay it, and verify against a hand-rolled
  // reference interpreter over plain vectors.
  Xoshiro256 rng(GetParam() ^ 0xBEEF);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> schedule;
  for (int i = 0; i < 500; ++i) {
    const auto a = static_cast<std::uint32_t>(rng.below(n));
    auto b = static_cast<std::uint32_t>(rng.below(n - 1));
    if (b >= a) ++b;
    schedule.emplace_back(a, b);
  }

  Population population(n, protocol.num_states(), protocol.initial_state());
  AgentSimulator sim(table, std::move(population), 1);
  sim.replay(schedule);

  std::vector<StateId> reference(n, protocol.initial_state());
  for (const auto& [i, j] : schedule) {
    const Transition t = protocol.delta(reference[i], reference[j]);
    reference[i] = t.initiator;
    reference[j] = t.responder;
  }
  for (std::uint32_t a = 0; a < n; ++a) {
    EXPECT_EQ(sim.population().state_of(a), reference[a]) << "agent " << a;
  }
}

TEST_P(FuzzedProtocols, ChurnEngineStaysConsistentUnderRandomFaults) {
  // Same property as AgentEngineConservesPopulation, but with a randomized
  // fault schedule mutating the population mid-run: the agent array, the
  // count vector, and the sleep bookkeeping must stay mutually consistent.
  const RandomProtocol protocol(6, GetParam(), 0.3);
  const TransitionTable table(protocol);
  FaultRates rates;
  rates.crash = 3e-3;
  rates.join = 3e-3;
  rates.corrupt = 2e-3;
  rates.sleep = 1e-3;
  rates.sleep_duration = 1'000;
  AgentSimulator sim(table, Population(25, protocol.num_states(), 0),
                     GetParam() ^ 0xF00D,
                     make_fault_schedule(rates, 20'000, GetParam() ^ 0xCAFE));
  NeverStableOracle oracle;
  sim.run(oracle, 20'000);

  const auto& counts = sim.population().counts();
  Counts recount(protocol.num_states(), 0);
  for (std::uint32_t a = 0; a < sim.population().size(); ++a) {
    ++recount[sim.population().state_of(a)];
  }
  EXPECT_EQ(recount, counts);
  EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), 0u),
            sim.population().size());
}

TEST_P(FuzzedProtocols, RandomFaultsPlusRecoveryRestoreUniformPartition) {
  // The robustness claim, fuzzed: any mix of crashes, joins, corruption and
  // stuck agents followed by the recovery layer must leave the survivors in
  // a uniform partition (spread <= 1) with an intact Lemma 1 invariant.
  const auto k = static_cast<GroupId>(3 + GetParam() % 3);  // k in 3..5
  const auto n = static_cast<std::uint32_t>(12 + GetParam() % 19);
  const core::SelfHealingKPartitionProtocol protocol(k);
  const TransitionTable table(protocol);
  FaultRates rates;
  rates.crash = 5e-4;
  rates.join = 5e-4;
  rates.corrupt = 3e-4;
  rates.sleep = 3e-4;
  rates.sleep_duration = 2'000;
  AgentSimulator sim(
      table, Population(n, protocol.num_states(), protocol.initial_state()),
      GetParam() ^ 0xFA17,
      make_fault_schedule(rates, 20'000, GetParam() ^ 0x5EED));
  core::RecoveryManager manager(protocol, sim);
  const SimResult result = sim.run(manager.oracle(), 30'000'000);

  ASSERT_TRUE(result.stabilized) << "k=" << int{k} << " n=" << n;
  Counts base_counts(protocol.base().num_states(), 0);
  for (StateId s = 0; s < sim.population().counts().size(); ++s) {
    base_counts[protocol.base_of(s)] += sim.population().counts()[s];
  }
  EXPECT_TRUE(core::lemma1_holds(protocol.base(), base_counts));
  std::uint32_t lo = sim.population().size(), hi = 0;
  for (GroupId x = 1; x <= k; ++x) {
    const std::uint32_t size = base_counts[protocol.base().g(x)];
    lo = std::min(lo, size);
    hi = std::max(hi, size);
  }
  EXPECT_LE(hi - lo, 1u) << "k=" << int{k} << " n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzedProtocols,
                         ::testing::Values(1ull, 2ull, 3ull, 5ull, 8ull, 13ull,
                                           21ull, 34ull),
                         [](const ::testing::TestParamInfo<std::uint64_t>& param) {
                           return "seed" + std::to_string(param.param);
                         });

}  // namespace
}  // namespace ppk::pp
