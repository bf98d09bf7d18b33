// Fault-injection subsystem (pp/faults.hpp) and the self-healing recovery
// layer (core/recovery.hpp): deterministic schedules, engine consistency
// under churn, loud failure of stale oracles, and the PR's acceptance
// scenario -- crash 7 of 40 agents, k = 4, and watch the 33 survivors
// re-converge to a uniform 4-partition.

#include "pp/faults.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>

#include "analysis/recovery.hpp"
#include "core/invariants.hpp"
#include "core/kpartition.hpp"
#include "core/recovery.hpp"
#include "io/snapshot_io.hpp"
#include "pp/agent_simulator.hpp"
#include "pp/transition_table.hpp"
#include "util/rng.hpp"

namespace ppk::pp {
namespace {

// --- Schedules -------------------------------------------------------------

TEST(FaultScheduleTest, SameSeedReproducesBitForBit) {
  FaultRates rates;
  rates.crash = 1e-3;
  rates.join = 5e-4;
  rates.corrupt = 2e-4;
  rates.sleep = 1e-4;
  const auto a = make_fault_schedule(rates, 100'000, 42);
  const auto b = make_fault_schedule(rates, 100'000, 42);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at, b[i].at);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].duration, b[i].duration);
  }
  const auto c = make_fault_schedule(rates, 100'000, 43);
  EXPECT_NE(a.size(), 0u);
  // A different seed yields a different schedule (equality would require a
  // astronomically unlikely collision of every gap draw).
  bool differs = a.size() != c.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a[i].at != c[i].at || a[i].kind != c[i].kind;
  }
  EXPECT_TRUE(differs);
}

TEST(FaultScheduleTest, EventCountTracksRateAndStaysSorted) {
  FaultRates low;
  low.crash = 1e-4;
  FaultRates high;
  high.crash = 1e-2;
  const std::uint64_t horizon = 200'000;
  const auto few = make_fault_schedule(low, horizon, 7);
  const auto many = make_fault_schedule(high, horizon, 7);
  // Expectations are rate * horizon = 20 and 2000; a 5x band on either
  // side is dozens of sigma.
  EXPECT_GT(few.size(), 4u);
  EXPECT_LT(few.size(), 100u);
  EXPECT_GT(many.size(), 400u);
  EXPECT_LT(many.size(), 10'000u);
  for (const auto& schedule : {few, many}) {
    for (std::size_t i = 0; i < schedule.size(); ++i) {
      EXPECT_LT(schedule[i].at, horizon);
      if (i > 0) EXPECT_GE(schedule[i].at, schedule[i - 1].at);
    }
  }
}

TEST(FaultScheduleTest, ZeroRatesYieldNoEvents) {
  EXPECT_TRUE(make_fault_schedule(FaultRates{}, 1'000'000, 1).empty());
}

// --- The churn rule --------------------------------------------------------

TEST(ChurnSimulatorTest, AgentArrayAndCountsStayConsistentUnderChurn) {
  const core::KPartitionProtocol protocol(3);
  const TransitionTable table(protocol);
  FaultRates rates;
  rates.crash = 2e-3;
  rates.join = 2e-3;
  rates.corrupt = 1e-3;
  rates.sleep = 1e-3;
  rates.sleep_duration = 500;
  AgentSimulator sim(
      table, Population(20, protocol.num_states(), protocol.initial_state()),
      11, make_fault_schedule(rates, 50'000, 99));
  NeverStableOracle oracle;
  sim.run(oracle, 50'000);

  EXPECT_GT(sim.trace().size(), 0u);
  const auto& counts = sim.population().counts();
  Counts recount(protocol.num_states(), 0);
  for (std::uint32_t a = 0; a < sim.population().size(); ++a) {
    ++recount[sim.population().state_of(a)];
  }
  EXPECT_EQ(recount, counts);
  EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), 0u),
            sim.population().size());
}

TEST(ChurnSimulatorTest, SameSeedAndScheduleReproduceBitForBit) {
  const core::KPartitionProtocol protocol(4);
  const TransitionTable table(protocol);
  FaultRates rates;
  rates.crash = 1e-3;
  rates.join = 1e-3;
  const auto schedule = make_fault_schedule(rates, 30'000, 5);

  auto run = [&] {
    AgentSimulator sim(
        table, Population(25, protocol.num_states(), protocol.initial_state()),
        77, schedule);
    NeverStableOracle oracle;
    sim.run(oracle, 30'000);
    return std::make_pair(sim.population().counts(), sim.trace());
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.first, b.first);
  ASSERT_EQ(a.second.size(), b.second.size());
  for (std::size_t i = 0; i < a.second.size(); ++i) {
    EXPECT_EQ(a.second[i].at, b.second[i].at);
    EXPECT_EQ(a.second[i].agent, b.second[i].agent);
    EXPECT_EQ(a.second[i].old_state, b.second[i].old_state);
    EXPECT_EQ(a.second[i].new_state, b.second[i].new_state);
  }
}

TEST(ChurnSimulatorTest, CrashAtMinimumPopulationIsDropped) {
  const core::KPartitionProtocol protocol(2);
  const TransitionTable table(protocol);
  AgentSimulator sim(
      table, Population(2, protocol.num_states(), protocol.initial_state()),
      1, {});
  NeverStableOracle oracle;
  EXPECT_EQ(sim.crash(std::nullopt, &oracle), std::nullopt);
  EXPECT_EQ(sim.population().size(), 2u);
  EXPECT_TRUE(sim.trace().empty());
}

TEST(ChurnSimulatorTest, SleepingAgentTakesNoInteractions) {
  // A protocol in which *every* pair is effective: a sleeping agent's state
  // can only survive unchanged if pairs hitting it are truly nulled.
  class AlwaysFlip final : public Protocol {
   public:
    [[nodiscard]] std::string name() const override { return "flip"; }
    [[nodiscard]] StateId num_states() const override { return 4; }
    [[nodiscard]] StateId initial_state() const override { return 0; }
    [[nodiscard]] Transition delta(StateId p, StateId q) const override {
      return {static_cast<StateId>((p + 1) % 4),
              static_cast<StateId>((q + 1) % 4)};
    }
    [[nodiscard]] GroupId group(StateId s) const override { return s; }
    [[nodiscard]] GroupId num_groups() const override { return 4; }
  };
  const AlwaysFlip protocol;
  const TransitionTable table(protocol);
  AgentSimulator sim(table, Population(5, 4, 0), 3, {});
  NeverStableOracle oracle;
  sim.sleep(0u, 2'000, &oracle);
  const StateId before = sim.population().state_of(0);
  for (int i = 0; i < 1'000; ++i) sim.step(oracle);
  EXPECT_EQ(sim.population().state_of(0), before);
  EXPECT_TRUE(sim.asleep(0));
}

TEST(ChurnSimulatorTest, StableRunEndsEarlyWhenRemainingEventsLieBeyondBudget) {
  // Regression: with a stable oracle but a scheduled event far beyond the
  // interaction budget, run() used to idle away the entire remaining budget
  // one null draw at a time before returning stabilized = true.
  const core::KPartitionProtocol protocol(3);
  const TransitionTable table(protocol);
  FaultEvent far;
  far.at = 1'000'000'000'000ULL;  // far beyond any budget used here
  far.kind = FaultKind::kJoin;
  AgentSimulator sim(
      table, Population(12, protocol.num_states(), protocol.initial_state()),
      17, {far});
  const auto oracle = core::churn_aware_stable_oracle(protocol);
  const SimResult r = sim.run(*oracle, 5'000'000);
  EXPECT_TRUE(r.stabilized);
  // n = 12, k = 3 stabilizes in a few thousand interactions; the run must
  // stop there, not burn the rest of the 5M budget waiting for the event.
  EXPECT_LT(r.interactions, 1'000'000u);
  EXPECT_EQ(sim.pending_events(), 1u);  // the event itself never fired
}

TEST(ChurnRuleTest, SleepPastTheEndOfTheClockNeverWakes) {
  // interactions + duration saturates instead of wrapping to a wake time
  // in the past.
  const core::KPartitionProtocol protocol(3);
  const TransitionTable table(protocol);
  AgentSimulator sim(
      table, Population(12, protocol.num_states(), protocol.initial_state()),
      4, {});
  NeverStableOracle oracle;
  sim.run(oracle, 100);
  sim.sleep(3u, UINT64_MAX, &oracle);
  EXPECT_TRUE(sim.asleep(3));
  sim.resume(oracle, 1'000);
  EXPECT_TRUE(sim.asleep(3));
}

TEST(ChurnRuleTest, ScheduledEventPastTheLivePopulationIsDropped) {
  // A valid schedule for the initial n: the crash at 10 shrinks the
  // population to 11, so agent 11 no longer exists when the corruption and
  // the sleep fire.  Both are dropped unrecorded, like a crash at the
  // minimum population; the process keeps running.
  const core::KPartitionProtocol protocol(3);
  const TransitionTable table(protocol);
  std::vector<FaultEvent> schedule(3);
  schedule[0].at = 10;
  schedule[0].kind = FaultKind::kCrash;
  schedule[1].at = 20;
  schedule[1].kind = FaultKind::kCorrupt;
  schedule[1].agent = 11;
  schedule[2].at = 30;
  schedule[2].kind = FaultKind::kSleep;
  schedule[2].agent = 11;
  schedule[2].duration = 5;
  AgentSimulator sim(
      table, Population(12, protocol.num_states(), protocol.initial_state()),
      8, schedule);
  NeverStableOracle oracle;
  const SimResult r = sim.run(oracle, 1'000);
  EXPECT_EQ(r.interactions, 1'000u);
  EXPECT_EQ(sim.pending_events(), 0u);
  ASSERT_EQ(sim.trace().size(), 1u);
  EXPECT_EQ(sim.trace()[0].kind, FaultKind::kCrash);
  EXPECT_EQ(sim.population().size(), 11u);
}

// --- Golden pin -------------------------------------------------------------

std::uint64_t fnv1a_text(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

struct ChurnPin {
  std::uint64_t interactions;
  std::uint64_t effective;
  bool stabilized;
  std::uint64_t trace_hash;     // FNV-1a over the fault trace as text
  std::uint64_t counts_hash;    // FNV-1a over the final counts as text
  std::uint64_t snapshot_hash;  // FNV-1a over the snapshot text
};

template <typename Sim>
ChurnPin pin_of(const Sim& sim, std::uint64_t interactions,
                std::uint64_t effective, bool stabilized) {
  std::string trace;
  for (const FaultRecord& r : sim.trace()) {
    trace += std::to_string(r.at) + ' ' + fault_kind_name(r.kind) + ' ' +
             std::to_string(r.agent) + ' ' + std::to_string(r.old_state) +
             ' ' + std::to_string(r.new_state) + ' ' +
             std::to_string(r.population_after) + ';';
  }
  std::string counts;
  for (const std::uint32_t c : sim.counts()) counts += std::to_string(c) + ' ';
  return {interactions, effective, stabilized, fnv1a_text(trace),
          fnv1a_text(counts),
          fnv1a_text(io::serialize_snapshot(sim.snapshot()))};
}

void expect_pin(const ChurnPin& got, const ChurnPin& want, const char* row) {
  EXPECT_EQ(got.interactions, want.interactions) << row;
  EXPECT_EQ(got.effective, want.effective) << row;
  EXPECT_EQ(got.stabilized, want.stabilized) << row;
  EXPECT_EQ(got.trace_hash, want.trace_hash) << row;
  EXPECT_EQ(got.counts_hash, want.counts_hash) << row;
  EXPECT_EQ(got.snapshot_hash, want.snapshot_hash) << row;
}

// Golden pin for the churn engine: fixed seeds and schedules, and the exact
// trajectory, fault trace, final configuration and snapshot each produces.
// Any change to the pair or fault streams, the sleep rule, the loop's stop
// rule or the snapshot payload moves these numbers.
TEST(ChurnGolden, SchedulesArePinned) {
  const core::KPartitionProtocol alg1(3);
  const TransitionTable alg1_table(alg1);
  FaultRates rates;
  rates.crash = 2e-3;
  rates.join = 4e-3;
  rates.corrupt = 1e-3;
  rates.sleep = 2e-3;
  rates.sleep_duration = 300;
  const std::vector<FaultEvent> mix = make_fault_schedule(rates, 3'000, 0x5EED);
  ASSERT_FALSE(mix.empty());
  constexpr std::uint64_t kMixBudget = 400'000;
  const Population alg1_start(30, alg1.num_states(), alg1.initial_state());

  // Algorithm 1 under a mix of every scheduled fault kind (2 crashes, 11
  // joins, 4 corruptions, 6 sleeps in the first 3000 interactions): the
  // broken bookkeeping never stabilizes, so the run ends by budget.
  const ChurnPin mix_want = {400'000, 1024, false, 0x6929ff06bad1b7d1ULL,
                             0xa05c9474718e7603ULL, 0x779c649c8111560dULL};
  {
    AgentSimulator sim(alg1_table, alg1_start, 11, mix);
    sim.set_default_join_state(alg1.initial_state());
    const auto oracle = core::churn_aware_stable_oracle(alg1);
    const SimResult r = sim.run(*oracle, kMixBudget);
    expect_pin(pin_of(sim, r.interactions, r.effective, r.stabilized),
               mix_want, "alg1-mix");
  }
  // The same run in resume() grants of 997: equal to the single run.
  {
    AgentSimulator sim(alg1_table, alg1_start, 11, mix);
    sim.set_default_join_state(alg1.initial_state());
    const auto oracle = core::churn_aware_stable_oracle(alg1);
    oracle->reset(sim.counts());
    SimResult total;
    while (total.interactions < kMixBudget) {
      const std::uint64_t grant =
          std::min<std::uint64_t>(997, kMixBudget - total.interactions);
      const SimResult r = sim.resume(*oracle, grant);
      total.interactions += r.interactions;
      total.effective += r.effective;
      total.stabilized = r.stabilized;
      if (r.interactions < grant) break;
    }
    expect_pin(pin_of(sim, total.interactions, total.effective,
                      total.stabilized),
               mix_want, "alg1-mix-997");
  }
  // An empty schedule: the plain uniform-pair engine.
  {
    AgentSimulator sim(alg1_table, alg1_start, 5, {});
    const auto oracle = core::churn_aware_stable_oracle(alg1);
    const SimResult r = sim.run(*oracle, 1'000'000);
    expect_pin(pin_of(sim, r.interactions, r.effective, r.stabilized),
               {413, 85, true, 0xcbf29ce484222325ULL, 0x807b811f9b89bb4aULL,
                0x7980a16a0dcbbdacULL},
               "empty");
  }
  // Joins after stabilization (examples/fault_recovery, part 1).
  {
    const core::KPartitionProtocol protocol(4);
    const TransitionTable table(protocol);
    std::vector<FaultEvent> joins(10);
    for (FaultEvent& event : joins) {
      event.at = 200'000;
      event.kind = FaultKind::kJoin;
    }
    AgentSimulator sim(
        table, Population(40, protocol.num_states(), protocol.initial_state()),
        3, joins);
    sim.set_default_join_state(protocol.initial_state());
    const auto oracle = core::churn_aware_stable_oracle(protocol);
    const SimResult r = sim.run(*oracle, 20'000'000);
    expect_pin(pin_of(sim, r.interactions, r.effective, r.stabilized),
               {202'311, 760, true, 0x6b5b95772fe9e4ccULL,
                0x870a98dfd86061bULL, 0x2ffa4c3f824294fbULL},
               "joins-after-stabilization");
  }
  // One join after stabilization at n = 40, k = 4: n = 41 is stable at
  // once (a leftover free agent), so the fault alone ends the run one
  // draw later.
  {
    const core::KPartitionProtocol protocol(4);
    const TransitionTable table(protocol);
    std::vector<FaultEvent> join(1);
    join[0].at = 200'000;
    join[0].kind = FaultKind::kJoin;
    AgentSimulator sim(
        table, Population(40, protocol.num_states(), protocol.initial_state()),
        3, join);
    sim.set_default_join_state(protocol.initial_state());
    const auto oracle = core::churn_aware_stable_oracle(protocol);
    const SimResult r = sim.run(*oracle, 20'000'000);
    expect_pin(pin_of(sim, r.interactions, r.effective, r.stabilized),
               {200'001, 473, true, 0xa49488c4c5bd462fULL,
                0x3a765b090ba2a330ULL, 0xdbd4e7f89a3b8ae7ULL},
               "join-completes-the-pattern");
  }
  // The self-healing protocol under RecoveryManager: 7 of 40 agents crash
  // at interaction 5000, k = 4 (the crash scenario below).
  {
    const core::SelfHealingKPartitionProtocol protocol(4);
    const TransitionTable table(protocol);
    std::vector<FaultEvent> crashes(7);
    for (FaultEvent& event : crashes) {
      event.at = 5'000;
      event.kind = FaultKind::kCrash;
    }
    AgentSimulator sim(
        table, Population(40, protocol.num_states(), protocol.initial_state()),
        2026, crashes);
    core::RecoveryManager manager(protocol, sim);
    const SimResult r = sim.run(manager.oracle(), 20'000'000);
    EXPECT_EQ(manager.waves_started(), 1u);
    expect_pin(pin_of(sim, r.interactions, r.effective, r.stabilized),
               {6145, 565, true, 0x9c45618254c7187aULL, 0x670b39dc220f9974ULL,
                0x658d1333ccf39fedULL},
               "healing-crash");
  }
}

// --- Stale-oracle hardening (satellite: oracles vs mid-run churn) ----------

using FaultsDeathTest = ::testing::Test;

TEST(FaultsDeathTest, FixedPatternOracleGoesStaleOnChurnAndFailsLoudly) {
  const core::KPartitionProtocol protocol(3);
  const TransitionTable table(protocol);
  AgentSimulator sim(
      table, Population(12, protocol.num_states(), protocol.initial_state()),
      9, {});
  auto oracle = core::stable_pattern_oracle(protocol, 12);
  oracle->reset(sim.population().counts());
  EXPECT_FALSE(oracle->is_stale());
  sim.crash(std::nullopt, oracle.get());
  EXPECT_TRUE(oracle->is_stale());
  EXPECT_DEATH((void)oracle->stable(), "invariant");
}

TEST(FaultsDeathTest, FixedPatternOracleRejectsResetWithWrongTotal) {
  const core::KPartitionProtocol protocol(3);
  auto oracle = core::stable_pattern_oracle(protocol, 12);
  Counts wrong(protocol.num_states(), 0);
  wrong[protocol.initial_state()] = 11;  // oracle was built for n = 12
  EXPECT_DEATH(oracle->reset(wrong), "precondition");
}

// --- Self-healing wrapper --------------------------------------------------

TEST(SelfHealingProtocolTest, TableIsWellFormedAndTriplesTheStateSpace) {
  for (GroupId k : {GroupId{2}, GroupId{3}, GroupId{5}}) {
    const core::SelfHealingKPartitionProtocol protocol(k);
    EXPECT_EQ(int{protocol.num_states()}, 3 * (3 * int{k} - 2));
    EXPECT_EQ(protocol.num_groups(), k);
    // The TransitionTable constructor machine-checks swap-consistency and
    // symmetry of the realized rules, cross-epoch resets included.
    const TransitionTable table(protocol);
    EXPECT_EQ(table.num_states(), protocol.num_states());
  }
}

TEST(SelfHealingProtocolTest, CrossEpochPairsResetTheCyclicallyOlderAgent) {
  const core::SelfHealingKPartitionProtocol protocol(4);
  const auto fresh = [&](std::uint32_t e) {
    return protocol.encode(e, protocol.base().initial_state());
  };
  const StateId old_g1 = protocol.encode(0, protocol.base().g(1));
  const StateId new_g1 = protocol.encode(1, protocol.base().g(1));
  // epoch 0 meets epoch 1: the epoch-0 agent restarts in epoch 1.
  const Transition t = protocol.delta(old_g1, new_g1);
  EXPECT_EQ(t.initiator, fresh(1));
  EXPECT_EQ(t.responder, new_g1);
  // Mirrored orientation resets the same agent.
  const Transition u = protocol.delta(new_g1, old_g1);
  EXPECT_EQ(u.initiator, new_g1);
  EXPECT_EQ(u.responder, fresh(1));
  // The cycle wraps: epoch 2 meets epoch 0 -> the epoch-2 agent restarts.
  const StateId wrap = protocol.encode(2, protocol.base().g(2));
  const StateId cur = protocol.encode(0, protocol.base().g(2));
  const Transition w = protocol.delta(wrap, cur);
  EXPECT_EQ(w.initiator, fresh(0));
  EXPECT_EQ(w.responder, cur);
}

// --- The acceptance scenario: crash 7 of 40, k = 4 -------------------------

struct ScenarioResult {
  SimResult sim;
  std::uint32_t waves = 0;
  std::uint32_t population = 0;
  Counts base_counts;
  std::uint32_t spread = 0;
  bool lemma1 = false;
};

ScenarioResult run_crash_scenario(std::uint64_t seed, bool with_recovery,
                                  std::uint64_t budget) {
  constexpr std::uint32_t kN = 40;
  constexpr std::uint32_t kCrashers = 7;
  constexpr GroupId kK = 4;
  std::vector<FaultEvent> schedule;
  for (std::uint32_t i = 0; i < kCrashers; ++i) {
    FaultEvent event;
    event.at = 5'000;  // comfortably after stabilization of n = 40
    event.kind = FaultKind::kCrash;
    schedule.push_back(event);
  }

  ScenarioResult out;
  if (with_recovery) {
    const core::SelfHealingKPartitionProtocol protocol(kK);
    const TransitionTable table(protocol);
    AgentSimulator sim(
        table, Population(kN, protocol.num_states(), protocol.initial_state()),
        seed, schedule);
    core::RecoveryManager manager(protocol, sim);
    out.sim = sim.run(manager.oracle(), budget);
    out.waves = manager.waves_started();
    out.population = sim.population().size();
    out.base_counts.assign(protocol.base().num_states(), 0);
    for (StateId s = 0; s < sim.population().counts().size(); ++s) {
      out.base_counts[protocol.base_of(s)] += sim.population().counts()[s];
    }
    out.lemma1 = core::lemma1_holds(protocol.base(), out.base_counts);
    std::uint32_t lo = kN, hi = 0;
    for (GroupId x = 1; x <= kK; ++x) {
      const std::uint32_t size = out.base_counts[protocol.base().g(x)];
      lo = std::min(lo, size);
      hi = std::max(hi, size);
    }
    out.spread = hi - lo;
  } else {
    const core::KPartitionProtocol protocol(kK);
    const TransitionTable table(protocol);
    AgentSimulator sim(
        table, Population(kN, protocol.num_states(), protocol.initial_state()),
        seed, schedule);
    const auto oracle = core::churn_aware_stable_oracle(protocol);
    out.sim = sim.run(*oracle, budget);
    out.population = sim.population().size();
    out.base_counts = sim.population().counts();
    out.lemma1 = core::lemma1_holds(protocol, out.base_counts);
    std::uint32_t lo = kN, hi = 0;
    for (GroupId x = 1; x <= kK; ++x) {
      const std::uint32_t size = out.base_counts[protocol.g(x)];
      lo = std::min(lo, size);
      hi = std::max(hi, size);
    }
    out.spread = hi - lo;
  }
  return out;
}

TEST(RecoveryScenarioTest, SurvivorsRebalanceToUniformPartition) {
  const ScenarioResult r = run_crash_scenario(2026, true, 20'000'000);
  EXPECT_TRUE(r.sim.stabilized);
  EXPECT_EQ(r.population, 33u);
  EXPECT_GE(r.waves, 1u);
  // 33 = 4*8 + 1: four groups of 8 plus one leftover free agent.
  EXPECT_LE(r.spread, 1u);
  EXPECT_TRUE(r.lemma1);
}

TEST(RecoveryScenarioTest, ScenarioIsReproducibleBySeed) {
  const ScenarioResult a = run_crash_scenario(99, true, 20'000'000);
  const ScenarioResult b = run_crash_scenario(99, true, 20'000'000);
  EXPECT_TRUE(a.sim.stabilized);
  EXPECT_EQ(a.sim.interactions, b.sim.interactions);
  EXPECT_EQ(a.sim.effective, b.sim.effective);
  EXPECT_EQ(a.base_counts, b.base_counts);
  EXPECT_EQ(a.waves, b.waves);
}

TEST(RecoveryScenarioTest, WithoutRecoveryTheBudgetEndsTheRunUnstabilized) {
  // 40 committed agents lose 7: the 33 survivors are all in g states, but
  // the stable pattern of n = 33 needs a free agent -- unreachable for the
  // bare protocol no matter which agents crashed.  The run must end by
  // budget (no hang) with a broken invariant.
  const ScenarioResult r = run_crash_scenario(2026, false, 2'000'000);
  EXPECT_FALSE(r.sim.stabilized);
  EXPECT_EQ(r.sim.interactions, 2'000'000u);
  EXPECT_EQ(r.population, 33u);
  EXPECT_FALSE(r.lemma1);
}

TEST(RecoveryScenarioTest, FaultRemovingLastStragglerReleasesPendingWave) {
  // Regression: a wave requested while a previous wave was still converting
  // (wave_pending_ set, old_remaining_ > 0) was stranded forever when the
  // last old-epoch straggler was removed by a *fault* rather than by a
  // protocol transition -- handle_transition never saw the count reach zero
  // and the damaged configuration never repaired.
  const core::SelfHealingKPartitionProtocol protocol(2);
  const TransitionTable table(protocol);
  AgentSimulator sim(
      table, Population(12, protocol.num_states(), protocol.initial_state()),
      21, {});
  core::RecoveryManager manager(protocol, sim);
  ASSERT_TRUE(sim.run(manager.oracle(), 20'000'000).stabilized);

  const auto count_epoch = [&](std::uint32_t epoch) {
    std::uint32_t count = 0;
    for (std::uint32_t a = 0; a < sim.population().size(); ++a) {
      if (protocol.epoch_of(sim.population().state_of(a)) == epoch) ++count;
    }
    return count;
  };
  const auto lowest_in_epoch = [&](std::uint32_t epoch) {
    for (std::uint32_t a = 0; a < sim.population().size(); ++a) {
      if (protocol.epoch_of(sim.population().state_of(a)) == epoch) return a;
    }
    ADD_FAILURE() << "no agent in epoch " << epoch;
    return 0u;
  };

  // Crash one committed agent: the stable population has old_remaining_ ==
  // 0, so wave 1 starts immediately and epoch 0 becomes the old epoch.
  sim.crash(0u, &manager.oracle());
  ASSERT_EQ(manager.epoch(), 1u);
  ASSERT_EQ(manager.waves_started(), 1u);

  // Let the wave convert all but two stragglers (conversions are monotone:
  // no transition re-creates epoch 0).
  std::uint64_t safety = 0;
  while (count_epoch(0) > 2) {
    sim.step(manager.oracle());
    ASSERT_LT(++safety, 10'000'000u) << "wave failed to spread";
  }

  // A second disruption while the wave is in flight: the new wave must
  // wait for the two remaining stragglers.
  sim.crash(lowest_in_epoch(1), &manager.oracle());
  ASSERT_TRUE(manager.wave_pending());

  // Crash both stragglers: the pending wave loses its trigger unless
  // handle_fault itself re-evaluates the wave request.
  sim.crash(lowest_in_epoch(0), &manager.oracle());
  sim.crash(lowest_in_epoch(0), &manager.oracle());
  ASSERT_EQ(count_epoch(0), 0u);
  EXPECT_FALSE(manager.wave_pending());

  // And the survivors re-converge to the uniform partition of n = 8.
  const SimResult r = sim.run(manager.oracle(), 50'000'000);
  EXPECT_TRUE(r.stabilized);
  EXPECT_EQ(sim.population().size(), 8u);
  Counts base_counts(protocol.base().num_states(), 0);
  const Counts& counts = sim.population().counts();
  for (StateId s = 0; s < counts.size(); ++s) {
    base_counts[protocol.base_of(s)] += counts[s];
  }
  EXPECT_TRUE(core::lemma1_holds(protocol.base(), base_counts));
  const std::uint32_t g1 = base_counts[protocol.base().g(1)];
  const std::uint32_t g2 = base_counts[protocol.base().g(2)];
  EXPECT_LE(g1 > g2 ? g1 - g2 : g2 - g1, 1u);
}

TEST(RecoveryScenarioTest, JoinsAreAbsorbedWithoutAWave) {
  const core::SelfHealingKPartitionProtocol protocol(4);
  const TransitionTable table(protocol);
  std::vector<FaultEvent> schedule;
  for (int i = 0; i < 10; ++i) {
    FaultEvent event;
    event.at = 5'000;
    event.kind = FaultKind::kJoin;
    schedule.push_back(event);
  }
  AgentSimulator sim(
      table, Population(40, protocol.num_states(), protocol.initial_state()),
      7, schedule);
  core::RecoveryManager manager(protocol, sim);
  const SimResult result = sim.run(manager.oracle(), 20'000'000);
  EXPECT_TRUE(result.stabilized);
  EXPECT_EQ(manager.waves_started(), 0u);
  EXPECT_EQ(sim.population().size(), 50u);
}

TEST(RecoveryScenarioTest, CorruptionTriggersRepair) {
  const core::SelfHealingKPartitionProtocol protocol(3);
  const TransitionTable table(protocol);
  std::vector<FaultEvent> schedule;
  for (int i = 0; i < 3; ++i) {
    FaultEvent event;
    event.at = 5'000;
    event.kind = FaultKind::kCorrupt;
    schedule.push_back(event);
  }
  AgentSimulator sim(
      table, Population(30, protocol.num_states(), protocol.initial_state()),
      13, schedule);
  core::RecoveryManager manager(protocol, sim);
  const SimResult result = sim.run(manager.oracle(), 20'000'000);
  EXPECT_TRUE(result.stabilized);
  EXPECT_GE(manager.waves_started(), 1u);
  EXPECT_EQ(sim.population().size(), 30u);
}

// --- analysis::measure_recovery -------------------------------------------

TEST(MeasureRecoveryTest, RecoversUnderCrashesAndReportsMetrics) {
  analysis::RecoveryOptions options;
  options.trials = 4;
  options.master_seed = 31;
  options.max_interactions = 10'000'000;
  options.rates.crash = 2e-4;
  options.fault_horizon = 20'000;
  options.with_recovery = true;
  const auto result = analysis::measure_recovery(GroupId{3}, 24, options);
  EXPECT_EQ(result.trials.size(), 4u);
  EXPECT_DOUBLE_EQ(result.recovered_fraction, 1.0);
  for (const auto& trial : result.trials) {
    EXPECT_TRUE(trial.stabilized);
    EXPECT_LE(trial.final_spread, 1u);
    EXPECT_TRUE(trial.lemma1_ok);
    if (trial.faults_applied > 0) {
      EXPECT_GT(trial.rebalance_interactions, 0u);
    }
  }
}

TEST(MeasureRecoveryTest, TrialsAreThreadCountInvariant) {
  // Each trial derives its seeds from (master seed, trial index) alone, so
  // the pool's scheduling cannot reach the results.
  analysis::RecoveryOptions options;
  options.trials = 6;
  options.master_seed = 57;
  options.max_interactions = 2'000'000;
  options.rates.crash = 2e-4;
  options.rates.join = 2e-4;
  options.rates.corrupt = 1e-4;
  options.rates.sleep = 1e-4;
  options.rates.sleep_duration = 500;
  options.fault_horizon = 20'000;
  for (const bool with_recovery : {true, false}) {
    SCOPED_TRACE(with_recovery ? "with recovery" : "bare");
    options.with_recovery = with_recovery;
    options.threads = 1;
    const auto serial = analysis::measure_recovery(GroupId{3}, 24, options);
    options.threads = 3;
    const auto pooled = analysis::measure_recovery(GroupId{3}, 24, options);
    ASSERT_EQ(serial.trials.size(), pooled.trials.size());
    for (std::size_t t = 0; t < serial.trials.size(); ++t) {
      SCOPED_TRACE("trial " + std::to_string(t));
      const analysis::RecoveryTrial& a = serial.trials[t];
      const analysis::RecoveryTrial& b = pooled.trials[t];
      EXPECT_EQ(a.interactions, b.interactions);
      EXPECT_EQ(a.effective, b.effective);
      EXPECT_EQ(a.stabilized, b.stabilized);
      EXPECT_EQ(a.faults_applied, b.faults_applied);
      EXPECT_EQ(a.waves, b.waves);
      EXPECT_EQ(a.final_population, b.final_population);
      EXPECT_EQ(a.rebalance_interactions, b.rebalance_interactions);
      EXPECT_EQ(a.final_spread, b.final_spread);
      EXPECT_EQ(a.lemma1_ok, b.lemma1_ok);
    }
  }
}

TEST(MeasureRecoveryTest, BareProtocolFailsToRecoverFromCrashes) {
  analysis::RecoveryOptions options;
  options.trials = 4;
  options.master_seed = 31;
  options.max_interactions = 500'000;  // budget-bound, not a hang
  options.rates.crash = 2e-4;
  options.fault_horizon = 20'000;
  options.with_recovery = false;
  const auto result = analysis::measure_recovery(GroupId{3}, 24, options);
  for (const auto& trial : result.trials) {
    if (trial.faults_applied == 0) continue;  // crash-free trial recovers
    EXPECT_LE(trial.interactions, 500'000u);
  }
  // Determinism across repeated invocations.
  const auto again = analysis::measure_recovery(GroupId{3}, 24, options);
  for (std::size_t t = 0; t < result.trials.size(); ++t) {
    EXPECT_EQ(result.trials[t].interactions, again.trials[t].interactions);
    EXPECT_EQ(result.trials[t].stabilized, again.trials[t].stabilized);
  }
}

}  // namespace
}  // namespace ppk::pp
