// Scenario-spec tests: canonical round trips (random spec -> serialize ->
// parse -> re-serialize byte-equal), fail-fast diagnostics at the server
// boundary, the seed-masked cache hash, and the scenario <-> conformance
// case bridge.

#include "serve/scenario.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/rng.hpp"

namespace ppk::serve {
namespace {

TEST(ServeScenario, DefaultSpecIsValidAndRoundTrips) {
  const ScenarioSpec spec;
  EXPECT_EQ(validate_scenario(spec), "");
  const std::string text = serialize_scenario(spec);
  std::string error;
  const std::optional<ScenarioSpec> parsed = parse_scenario(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(serialize_scenario(*parsed), text);
}

TEST(ServeScenario, AcceptanceSpecParses) {
  // The ISSUE's end-to-end scenario: k-partition, n = 1e5, epsilon-fair,
  // ring topology, submitted as a literal document.
  const std::string text = R"({
    "schema": "ppk-scenario-v1",
    "protocol": "kpartition",
    "k": 3,
    "n": 100000,
    "topology": {"kind": "ring", "p": 0.5},
    "fairness": {"policy": "epsilon-fair", "epsilon": 0.5},
    "oracle": {"kind": "quiescence", "window": 100000},
    "engine": "auto",
    "mode": "simulate",
    "trials": 2,
    "seed": 42,
    "budget": 200000,
    "faults": []
  })";
  std::string error;
  const std::optional<ScenarioSpec> spec = parse_scenario(text, &error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_EQ(spec->n, 100000u);
  EXPECT_EQ(spec->topology, ScenarioTopology::kRing);
  EXPECT_TRUE(spec->fairness.needs_adversarial_engine());
}

// ---------------------------------------------------------------------------
// Round-trip fuzz net

/// Draws one *valid* spec: every axis randomized within the validation
/// envelope (engine drawn from the set the fairness x topology rules
/// allow).
ScenarioSpec random_valid_spec(SplitMix64& rng) {
  ScenarioSpec spec;
  switch (rng.next() % 3) {
    case 0: spec.family = ScenarioFamily::kKPartition; break;
    case 1: spec.family = ScenarioFamily::kWeakKPartition; break;
    default: spec.family = ScenarioFamily::kGraphBipartition; break;
  }
  spec.k = spec.family == ScenarioFamily::kGraphBipartition
               ? 2
               : static_cast<pp::GroupId>(2 + rng.next() % 4);
  spec.n = static_cast<std::uint32_t>(spec.k + 3 + rng.next() % 40);
  switch (rng.next() % 5) {
    case 0: spec.topology = ScenarioTopology::kComplete; break;
    case 1: spec.topology = ScenarioTopology::kRing; break;
    case 2: spec.topology = ScenarioTopology::kStar; break;
    case 3: spec.topology = ScenarioTopology::kPath; break;
    default: spec.topology = ScenarioTopology::kErdosRenyi; break;
  }
  spec.er_p = 0.1 + 0.9 * (static_cast<double>(rng.next() % 1000) / 1000.0);
  switch (rng.next() % 3) {
    case 0: spec.fairness = pp::FairnessSpec::uniform_random(); break;
    case 1:
      spec.fairness = pp::FairnessSpec::epsilon_fair(
          0.25 + 0.75 * (static_cast<double>(rng.next() % 100) / 100.0));
      break;
    default: spec.fairness = pp::FairnessSpec::weak_round_robin(); break;
  }
  spec.oracle = rng.next() % 2 == 0
                    ? ScenarioOracle::kQuiescence
                    : (spec.family == ScenarioFamily::kWeakKPartition
                           ? ScenarioOracle::kSilence
                           : ScenarioOracle::kStablePattern);
  spec.quiescence_window = 1 + rng.next() % 1'000'000;
  if (spec.fairness.needs_adversarial_engine()) {
    spec.engine = rng.next() % 2 == 0 ? pp::Engine::kAuto
                                      : pp::Engine::kAgentArray;
  } else if (spec.topology == ScenarioTopology::kComplete) {
    const pp::Engine engines[] = {pp::Engine::kAuto, pp::Engine::kAgentArray,
                                  pp::Engine::kJump, pp::Engine::kBatch,
                                  pp::Engine::kBatchSharded};
    spec.engine = engines[rng.next() % 5];
  } else {
    const pp::Engine engines[] = {pp::Engine::kAuto, pp::Engine::kGraph,
                                  pp::Engine::kGraphJump};
    spec.engine = engines[rng.next() % 3];
  }
  spec.mode = ScenarioMode::kSimulate;
  spec.trials = static_cast<std::uint32_t>(1 + rng.next() % 20);
  spec.seed = rng.next();
  spec.budget = 1 + rng.next() % 1'000'000;
  if (rng.next() % 4 == 0) {
    // A sorted, in-range fault schedule exercises the fault grammar.
    std::uint64_t at = 0;
    const std::size_t events = 1 + rng.next() % 3;
    const std::uint32_t num_states =
        spec.family == ScenarioFamily::kGraphBipartition
            ? 5u
            : (spec.family == ScenarioFamily::kWeakKPartition
                   ? 3u * spec.k + 1u
                   : 3u * spec.k - 2u);
    for (std::size_t i = 0; i < events; ++i) {
      pp::FaultEvent f;
      at += rng.next() % 1000;
      f.at = at;
      switch (rng.next() % 5) {
        case 0: f.kind = pp::FaultKind::kCrash; break;
        case 1: f.kind = pp::FaultKind::kJoin; break;
        case 2: f.kind = pp::FaultKind::kCorrupt; break;
        case 3: f.kind = pp::FaultKind::kSleep; break;
        default: f.kind = pp::FaultKind::kReset; break;
      }
      if (rng.next() % 2 == 0) {
        f.agent = static_cast<std::uint32_t>(rng.next() % spec.n);
      }
      if (rng.next() % 2 == 0) {
        f.state = static_cast<pp::StateId>(rng.next() % num_states);
      }
      if (f.kind == pp::FaultKind::kSleep) f.duration = 1 + rng.next() % 5000;
      spec.faults.push_back(f);
    }
  }
  return spec;
}

TEST(ServeScenario, RandomSpecsRoundTripByteEqual) {
  SplitMix64 rng(0xC0FFEEULL);
  for (int i = 0; i < 300; ++i) {
    const ScenarioSpec spec = random_valid_spec(rng);
    ASSERT_EQ(validate_scenario(spec), "")
        << "draw " << i << ":\n" << serialize_scenario(spec);
    const std::string text = serialize_scenario(spec);
    std::string error;
    const std::optional<ScenarioSpec> parsed = parse_scenario(text, &error);
    ASSERT_TRUE(parsed.has_value()) << "draw " << i << ": " << error;
    EXPECT_EQ(serialize_scenario(*parsed), text) << "draw " << i;
    EXPECT_EQ(scenario_hash(*parsed), scenario_hash(spec)) << "draw " << i;
  }
}

TEST(ServeScenario, HashMasksTheSeedAndNothingElse) {
  ScenarioSpec a;
  ScenarioSpec b = a;
  b.seed = a.seed + 999;  // seed is the per-entry cache axis, not the hash's
  EXPECT_EQ(scenario_hash(a), scenario_hash(b));

  ScenarioSpec c = a;
  c.n += 1;
  EXPECT_NE(scenario_hash(a), scenario_hash(c));
  ScenarioSpec d = a;
  d.fairness = pp::FairnessSpec::epsilon_fair(0.5);
  EXPECT_NE(scenario_hash(a), scenario_hash(d));
  ScenarioSpec e = a;
  e.topology = ScenarioTopology::kRing;
  EXPECT_NE(scenario_hash(a), scenario_hash(e));

  EXPECT_EQ(scenario_hash_hex(a).size(), 16u);
}

// ---------------------------------------------------------------------------
// Diagnostics

/// Parses the default spec's serialization after applying `edit` to the
/// text, expecting failure; returns the diagnostic.
std::string diagnose(const std::string& text) {
  std::string error;
  const std::optional<ScenarioSpec> spec = parse_scenario(text, &error);
  EXPECT_FALSE(spec.has_value()) << text;
  return error;
}

std::string with_replacement(std::string text, const std::string& from,
                             const std::string& to) {
  const std::size_t pos = text.find(from);
  EXPECT_NE(pos, std::string::npos) << from;
  text.replace(pos, from.size(), to);
  return text;
}

TEST(ServeScenario, DiagnosticsNameTheOffendingField) {
  const std::string good = serialize_scenario(ScenarioSpec{});

  EXPECT_NE(diagnose(with_replacement(good, "ppk-scenario-v1", "ppk-v0"))
                .find("schema"),
            std::string::npos);
  EXPECT_NE(diagnose(with_replacement(good, "\"kpartition\"", "\"tripartition\""))
                .find("protocol"),
            std::string::npos);
  EXPECT_NE(diagnose(with_replacement(good, "\"complete\"", "\"torus\""))
                .find("topology.kind"),
            std::string::npos);
  EXPECT_NE(diagnose(with_replacement(good, "\"uniform-random\"", "\"unfair\""))
                .find("fairness.policy"),
            std::string::npos);
  EXPECT_NE(diagnose(with_replacement(good, "\"mode\": \"simulate\"",
                                      "\"mode\": \"dream\""))
                .find("mode"),
            std::string::npos);
  // "count" named the deleted count-vector engine; aliasing it to another
  // engine would run a different trajectory under the same cache key.
  for (const char* engine : {"\"warp\"", "\"count\""}) {
    const std::string why = diagnose(
        with_replacement(good, "\"engine\": \"auto\"",
                         std::string("\"engine\": ") + engine));
    EXPECT_NE(why.find("engine"), std::string::npos) << engine;
    EXPECT_NE(why.find("unknown engine"), std::string::npos) << engine;
  }
  // Unknown members fail loudly instead of silently running a default.
  EXPECT_NE(diagnose(with_replacement(good, "\"seed\": 1",
                                      "\"sede\": 1"))
                .find("unknown member 'sede'"),
            std::string::npos);
  EXPECT_NE(diagnose("[1, 2, 3]").find("object"), std::string::npos);
  EXPECT_NE(diagnose("{\"schema\": \"ppk-scenario-v1\"").find("scenario:"),
            std::string::npos);
}

TEST(ServeScenario, ValidationCrossChecksTheAxes) {
  ScenarioSpec spec;

  spec.oracle = ScenarioOracle::kSilence;  // kpartition never goes silent
  EXPECT_NE(validate_scenario(spec).find("oracle.kind"), std::string::npos);

  spec = ScenarioSpec{};
  spec.family = ScenarioFamily::kWeakKPartition;
  spec.oracle = ScenarioOracle::kStablePattern;
  EXPECT_NE(validate_scenario(spec).find("oracle.kind"), std::string::npos);

  spec = ScenarioSpec{};
  spec.engine = pp::Engine::kGraph;  // graph engine on the complete graph
  EXPECT_NE(validate_scenario(spec).find("engine"), std::string::npos);

  spec = ScenarioSpec{};
  spec.topology = ScenarioTopology::kRing;
  spec.engine = pp::Engine::kBatch;  // batch engine cannot take a topology
  EXPECT_NE(validate_scenario(spec).find("engine"), std::string::npos);

  spec = ScenarioSpec{};
  spec.fairness = pp::FairnessSpec::weak_round_robin();
  spec.engine = pp::Engine::kJump;
  EXPECT_NE(validate_scenario(spec).find("engine"), std::string::npos);

  spec = ScenarioSpec{};
  spec.fairness = pp::FairnessSpec::weak_round_robin();
  spec.n = 100'000;  // a full ordered round per lap is 1e10 pairs
  EXPECT_NE(validate_scenario(spec).find("n"), std::string::npos);

  spec = ScenarioSpec{};
  spec.mode = ScenarioMode::kVerify;
  spec.n = 513;  // past the static bound it shares with markov
  EXPECT_NE(validate_scenario(spec).find("n"), std::string::npos);

  spec = ScenarioSpec{};
  spec.mode = ScenarioMode::kMarkov;
  spec.family = ScenarioFamily::kWeakKPartition;
  spec.oracle = ScenarioOracle::kSilence;
  EXPECT_NE(validate_scenario(spec).find("protocol"), std::string::npos);

  spec = ScenarioSpec{};
  spec.mode = ScenarioMode::kVerify;
  spec.n = 6;
  spec.fairness = pp::FairnessSpec::epsilon_fair(0.5);
  EXPECT_NE(validate_scenario(spec).find("fairness.policy"),
            std::string::npos);

  spec = ScenarioSpec{};
  spec.faults.push_back({100, pp::FaultKind::kCrash, std::nullopt,
                         std::nullopt, 0});
  spec.faults.push_back({50, pp::FaultKind::kCrash, std::nullopt,
                         std::nullopt, 0});  // unsorted
  EXPECT_NE(validate_scenario(spec).find("sorted"), std::string::npos);

  spec = ScenarioSpec{};
  spec.faults.push_back({0, pp::FaultKind::kCorrupt, std::nullopt,
                         pp::StateId{200}, 0});  // kpartition k=3 has 7 states
  EXPECT_NE(validate_scenario(spec).find("state"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Conformance bridge

TEST(ServeScenario, ConformanceBridgeRoundTrips) {
  ScenarioSpec spec;
  spec.mode = ScenarioMode::kConformance;
  spec.n = 10;
  spec.k = 4;
  spec.trials = 12;
  spec.seed = 77;
  spec.budget = 50'000;
  ASSERT_EQ(validate_scenario(spec), "");

  std::string why;
  const std::optional<verify::ConformanceCase> c =
      scenario_to_conformance(spec, &why);
  ASSERT_TRUE(c.has_value()) << why;
  EXPECT_EQ(c->protocol.family, verify::ConformanceProtocol::Family::kKPartition);
  EXPECT_EQ(c->protocol.k, 4);
  EXPECT_EQ(c->n, 10u);
  EXPECT_EQ(c->seed, 77u);
  EXPECT_EQ(c->trials, 12);
  EXPECT_EQ(c->budget, 50'000u);

  const std::optional<ScenarioSpec> back = scenario_from_conformance(*c);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(serialize_scenario(*back), serialize_scenario(spec));
}

TEST(ServeScenario, ConformanceBridgeRefusesUnrepresentableAxes) {
  ScenarioSpec spec;
  spec.topology = ScenarioTopology::kRing;
  std::string why;
  EXPECT_FALSE(scenario_to_conformance(spec, &why).has_value());
  EXPECT_NE(why.find("topology"), std::string::npos);

  spec = ScenarioSpec{};
  spec.fairness = pp::FairnessSpec::epsilon_fair(0.5);
  EXPECT_FALSE(scenario_to_conformance(spec, &why).has_value());
  EXPECT_NE(why.find("fairness"), std::string::npos);

  verify::ConformanceCase candidate;
  candidate.protocol.family = verify::ConformanceProtocol::Family::kCandidate;
  EXPECT_FALSE(scenario_from_conformance(candidate).has_value());

  verify::ConformanceCase mutated;
  mutated.mutation = verify::TableMutation{};
  EXPECT_FALSE(scenario_from_conformance(mutated).has_value());
}

// ---------------------------------------------------------------------------
// Runtime

TEST(ServeScenario, RuntimeFillsCampaignOptionsFromTheSpec) {
  ScenarioSpec spec;
  spec.topology = ScenarioTopology::kErdosRenyi;
  spec.er_p = 0.25;
  spec.fairness = pp::FairnessSpec::epsilon_fair(0.5);
  spec.trials = 5;
  spec.seed = 1234;
  spec.budget = 77'000;
  ASSERT_EQ(validate_scenario(spec), "");

  const ScenarioRuntime runtime(spec);
  EXPECT_EQ(runtime.protocol().num_groups(), spec.k);
  const core::CampaignOptions options = runtime.campaign_options();
  EXPECT_EQ(options.mc.trials, 5u);
  EXPECT_EQ(options.mc.master_seed, 1234u);
  EXPECT_EQ(options.mc.max_interactions, 77'000u);
  EXPECT_EQ(options.mc.fairness.policy, pp::FairnessPolicy::kEpsilonFair);
  ASSERT_TRUE(static_cast<bool>(options.mc.graph));
  EXPECT_EQ(options.mc.graph(1).num_agents(), spec.n);

  // A fresh oracle per trial, bound to the runtime's protocol objects.
  const pp::OracleFactory factory = runtime.oracle_factory();
  const auto oracle = factory();
  ASSERT_NE(oracle, nullptr);
}

}  // namespace
}  // namespace ppk::serve
