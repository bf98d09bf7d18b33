// Engine snapshot/restore contract (pp/snapshot.hpp): for every engine,
// restoring a mid-run snapshot into a freshly constructed engine and
// resuming is bit-identical to the engine that was snapshotted -- same
// interaction totals, same trajectory, and (the strongest form) the same
// snapshot at the end.  Also covers the text serialization round-trip
// (io/snapshot_io.hpp) and the oracle save_state/restore_state hooks the
// campaign layer persists alongside engine snapshots.
//
// The conformance fuzzer's snapshot-resume net checks the same contract
// against randomized protocols; these tests are the deterministic,
// per-engine unit-level version that fails with a nameable engine.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/graph_bipartition.hpp"
#include "core/invariants.hpp"
#include "core/kpartition.hpp"
#include "core/weak_kpartition.hpp"
#include "io/snapshot_io.hpp"
#include "pp/agent_simulator.hpp"
#include "pp/batch_sharded_simulator.hpp"
#include "pp/batch_simulator.hpp"
#include "pp/faults.hpp"
#include "pp/graph_jump_simulator.hpp"
#include "pp/interaction_graph.hpp"
#include "pp/jump_simulator.hpp"
#include "pp/stability.hpp"
#include "pp/transition_table.hpp"

namespace {

using ppk::core::KPartitionProtocol;
using ppk::pp::Counts;
using ppk::pp::Population;
using ppk::pp::Snapshot;
using ppk::pp::StabilityOracle;
using ppk::pp::StateId;

constexpr std::uint64_t kSeed = 0xDEC0DEULL;
constexpr std::uint64_t kCut = 2'000;
constexpr std::uint64_t kRest = 3'000;

/// Never stable: the engines burn their full grants, so both sides of the
/// comparison see identical grant sequences and the test isolates engine
/// state from oracle state.
class NeverStable final : public StabilityOracle {
 public:
  void reset(const Counts&) override {}
  void on_transition(StateId, StateId, StateId, StateId) override {}
  [[nodiscard]] bool stable() const override { return false; }
};

/// Runs `make()`-built engines through the snapshot contract:
/// run(cut) -> snapshot -> text round-trip -> restore into a fresh engine
/// -> resume both -> demand identical results and identical final
/// snapshots.  `prepare` reapplies settings that restore() does not carry
/// (the sharded engine's parallel grain).
template <typename MakeSim, typename Prepare>
void expect_roundtrip(MakeSim make, Prepare prepare,
                      std::uint64_t cut = kCut, std::uint64_t rest = kRest) {
  auto original = make();
  prepare(original);
  NeverStable oracle_a;
  const auto first = original.run(oracle_a, cut);
  // Silence-detecting engines (jump, live-edge) may stop short of the cut
  // on a dead configuration; the contract still holds because both sides
  // of the comparison see the identical grant sequence.
  ASSERT_GT(first.interactions, 0u);

  const Snapshot snap = original.snapshot();
  const std::string text = ppk::io::serialize_snapshot(snap);
  std::string error;
  const auto parsed = ppk::io::parse_snapshot(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(*parsed, snap);

  const auto rest_a = original.resume(oracle_a, rest);

  auto restored = make();
  prepare(restored);
  restored.restore(*parsed);
  NeverStable oracle_b;
  const auto rest_b = restored.resume(oracle_b, rest);

  EXPECT_EQ(rest_a.interactions, rest_b.interactions);
  EXPECT_EQ(rest_a.effective, rest_b.effective);
  EXPECT_EQ(rest_a.stabilized, rest_b.stabilized);
  EXPECT_EQ(original.snapshot(), restored.snapshot());
}

template <typename MakeSim>
void expect_roundtrip(MakeSim make) {
  expect_roundtrip(std::move(make), [](auto&) {});
}

class SnapshotTest : public ::testing::Test {
 protected:
  SnapshotTest() : protocol_(3), table_(protocol_) {}

  [[nodiscard]] Population population(std::uint32_t n) const {
    return Population(n, protocol_.num_states(), protocol_.initial_state());
  }

  [[nodiscard]] Counts initial(std::uint32_t n) const {
    Counts counts(protocol_.num_states(), 0);
    counts[protocol_.initial_state()] = n;
    return counts;
  }

  KPartitionProtocol protocol_;
  ppk::pp::TransitionTable table_;
};

TEST_F(SnapshotTest, AgentSimulatorRoundTrips) {
  expect_roundtrip(
      [&] { return ppk::pp::AgentSimulator(table_, population(30), kSeed); });
}

TEST_F(SnapshotTest, JumpSimulatorRoundTrips) {
  // Short cut: the jump engine stalls once the configuration goes silent
  // (~700 drawn pairs at n = 30), and the snapshot should land mid-life.
  expect_roundtrip(
      [&] { return ppk::pp::JumpSimulator(table_, initial(30), kSeed); },
      [](auto&) {}, /*cut=*/300, /*rest=*/5'000);
}

TEST_F(SnapshotTest, BatchSimulatorRoundTrips) {
  expect_roundtrip(
      [&] { return ppk::pp::BatchSimulator(table_, initial(200), kSeed); });
}

TEST_F(SnapshotTest, BatchShardedSimulatorRoundTrips) {
  // Pool dispatch forced (grain 0, 2 workers): the snapshot must capture
  // dynamic state only, so restoring while the parallel path runs still
  // round-trips bit-identically.
  expect_roundtrip(
      [&] {
        return ppk::pp::BatchShardedSimulator(table_, initial(200), kSeed,
                                              /*threads=*/2);
      },
      [](auto& sim) { sim.set_parallel_grain(0); });
}

TEST_F(SnapshotTest, GraphSimulatorRoundTrips) {
  expect_roundtrip([&] {
    return ppk::pp::AgentSimulator(
        table_, ppk::pp::InteractionGraph::ring(24), population(24), kSeed);
  });
}

TEST_F(SnapshotTest, GraphJumpSimulatorRoundTrips) {
  expect_roundtrip([&] {
    return ppk::pp::GraphJumpSimulator(
        table_, ppk::pp::InteractionGraph::erdos_renyi(24, 0.3, 7),
        population(24), kSeed);
  });
}

TEST_F(SnapshotTest, AdversarialSimulatorRoundTrips) {
  expect_roundtrip([&] {
    return ppk::pp::AgentSimulator(protocol_, table_, population(24),
                                   ppk::pp::FairnessSpec::epsilon_fair(1.0),
                                   kSeed);
  });
}

TEST_F(SnapshotTest, WeakKPartitionFamilyRoundTrips) {
  // The weak-fairness family through the snapshot contract: the agent
  // engine (short cut -- the protocol goes silent quickly at this n), and
  // the weak-round-robin scheduler whose snapshot carries the unscheduled
  // remainder of the current round through the *text* serialization.
  const ppk::core::WeakKPartitionProtocol protocol(3);
  const ppk::pp::TransitionTable table(protocol);
  const auto pop = [&](std::uint32_t n) {
    return Population(n, protocol.num_states(), protocol.initial_state());
  };
  expect_roundtrip(
      [&] { return ppk::pp::AgentSimulator(table, pop(30), kSeed); },
      [](auto&) {}, /*cut=*/300, /*rest=*/5'000);
  expect_roundtrip(
      [&] {
        return ppk::pp::AgentSimulator(
            protocol, table, pop(24),
            ppk::pp::FairnessSpec::weak_round_robin(), kSeed);
      },
      [](auto&) {}, /*cut=*/300, /*rest=*/2'000);
}

TEST_F(SnapshotTest, GraphBipartitionFamilyRoundTrips) {
  // The arbitrary-graph family on its home engine (live-edge, sparse
  // star).  n is odd, so one parked signal keeps hopping forever and the
  // run never goes silent before the cut.
  const ppk::core::GraphBipartitionProtocol protocol;
  const ppk::pp::TransitionTable table(protocol);
  expect_roundtrip([&] {
    return ppk::pp::GraphJumpSimulator(
        table, ppk::pp::InteractionGraph::star(25),
        Population(25, protocol.num_states(), protocol.initial_state()),
        kSeed);
  });
}

TEST_F(SnapshotTest, ChurnSimulatorWithScheduleRoundTrips) {
  // Events straddle the snapshot: the crash fires before the cut, the join
  // and corruption after it -- restore() must carry the schedule cursor so
  // the restored engine fires exactly the not-yet-applied tail.
  const auto schedule = [&] {
    std::vector<ppk::pp::FaultEvent> events;
    events.push_back({500, ppk::pp::FaultKind::kCrash, std::nullopt,
                      std::nullopt, 0});
    events.push_back({kCut + 700, ppk::pp::FaultKind::kJoin, std::nullopt,
                      std::nullopt, 0});
    events.push_back({kCut + 1500, ppk::pp::FaultKind::kCorrupt, std::nullopt,
                      std::nullopt, 0});
    return events;
  };
  expect_roundtrip([&] {
    return ppk::pp::AgentSimulator(table_, population(26), kSeed, schedule());
  });
}

TEST_F(SnapshotTest, QuiescenceOracleStateSurvivesTheBoundary) {
  // Drive with a history-keeping oracle and split the run at the cut:
  // reset() alone would restart the lull window, so the restored side must
  // also restore_state() -- the exact sequence the campaign layer runs.
  const std::uint32_t n = 30;
  const auto group_of = [&] {
    std::vector<ppk::pp::GroupId> groups;
    for (StateId s = 0; s < protocol_.num_states(); ++s) {
      groups.push_back(protocol_.group(s));
    }
    return groups;
  }();

  ppk::pp::AgentSimulator a(table_, population(n), kSeed);
  ppk::pp::QuiescenceOracle oracle_a(group_of, 400);
  const auto first = a.run(oracle_a, kCut);
  const Snapshot snap = a.snapshot();
  const Counts at_cut = a.population().counts();
  const auto oracle_words = oracle_a.save_state();
  const auto rest_a = first.stabilized || first.interactions < kCut
                          ? first
                          : a.resume(oracle_a, kRest);

  ppk::pp::AgentSimulator b(table_, population(n), kSeed);
  b.restore(snap);
  ppk::pp::QuiescenceOracle oracle_b(group_of, 400);
  oracle_b.reset(at_cut);
  oracle_b.restore_state(oracle_words);
  const auto rest_b = first.stabilized || first.interactions < kCut
                          ? first
                          : b.resume(oracle_b, kRest);

  EXPECT_EQ(rest_a.interactions, rest_b.interactions);
  EXPECT_EQ(rest_a.effective, rest_b.effective);
  EXPECT_EQ(rest_a.stabilized, rest_b.stabilized);
  EXPECT_EQ(a.snapshot(), b.snapshot());
}

TEST_F(SnapshotTest, SerializationRejectsMalformedText) {
  std::string error;
  EXPECT_FALSE(ppk::io::parse_snapshot("", &error).has_value());
  EXPECT_FALSE(ppk::io::parse_snapshot("bogus agent 0", &error).has_value());
  EXPECT_FALSE(
      ppk::io::parse_snapshot("ppk-snapshot-v1 agent 2 ff", &error)
          .has_value())
      << "word count must match";
  EXPECT_FALSE(error.empty());
}

TEST_F(SnapshotTest, RestoreRejectsTheWrongEngineTag) {
  ppk::pp::JumpSimulator sim(table_, initial(20), kSeed);
  NeverStable oracle;
  (void)sim.run(oracle, 100);
  Snapshot snap = sim.snapshot();
  snap.engine = "agent";
  EXPECT_DEATH(sim.restore(snap), "precondition");
}

}  // namespace
