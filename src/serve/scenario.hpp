// Declarative scenario specs: the `ppkd` daemon's request format and the
// conformance fuzzer's case format (docs/ppkd.md has the full schema).
//
// A scenario names one experiment on the axes the repo has grown since
// PR 1 -- protocol family x n x k x topology x fault schedule x fairness
// x oracle x engine -- plus an execution mode:
//
//   simulate     Monte-Carlo trials through the checkpointed campaign
//                layer (core/campaign.hpp): budget-chunked, cancellable,
//                crash-resumable, streamed per trial.
//   verify       the exhaustive model checkers (verify/global_fairness,
//                verify/weak_fairness): exact, seed-independent.
//   markov       exact expected stabilization time via the absorbing
//                -chain analysis (verify/markov.hpp); seed-independent.
//   conformance  the differential cross-engine harness
//                (verify/conformance.hpp) on the equivalent case -- every
//                fuzz case is a replayable server request and vice versa
//                (scenario_to_conformance / scenario_from_conformance).
//
// Specs are JSON (schema "ppk-scenario-v1") parsed with io/json_reader
// and validated fail-fast: parse_scenario returns either a spec that the
// executors accept by construction or a one-line diagnostic naming the
// offending field.  serialize_scenario emits the canonical form -- fixed
// member order, normalized values -- so serialize(parse(serialize(s)))
// is byte-identical to serialize(s), which is what makes scenario_hash
// (FNV-1a over the canonical form with the seed masked) a stable cache
// key: results are cached by (scenario-hash, seed), with the
// seed-independent verify/markov answers cached by hash alone.

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/campaign.hpp"
#include "io/json_reader.hpp"
#include "pp/fairness.hpp"
#include "pp/faults.hpp"
#include "pp/interaction_graph.hpp"
#include "pp/monte_carlo.hpp"
#include "pp/protocol.hpp"
#include "pp/stability.hpp"
#include "pp/transition_table.hpp"
#include "verify/conformance.hpp"

namespace ppk::serve {

/// Schema tag of the scenario-spec format.
inline constexpr std::string_view kScenarioSchema = "ppk-scenario-v1";

/// Protocol families a scenario can run (the repo's named families; the
/// conformance harness's randomized candidate space has no scenario form).
enum class ScenarioFamily : std::uint8_t {
  kKPartition,        // the paper's 3k-2-state protocol (global fairness)
  kWeakKPartition,    // 3k+1 states, correct under weak fairness
  kGraphBipartition,  // 5 states, arbitrary connected graphs
};

/// Interaction topologies (pp/interaction_graph.hpp factories).
enum class ScenarioTopology : std::uint8_t {
  kComplete,
  kRing,
  kStar,
  kPath,
  kErdosRenyi,
};

/// Stopping rules (pp/stability.hpp, core/invariants.hpp).
enum class ScenarioOracle : std::uint8_t {
  kStablePattern,  // the family's exact count pattern
  kSilence,        // no effective pair left (weak family goes silent)
  kQuiescence,     // heuristic: outputs unchanged for `window` interactions
};

/// Execution modes (header comment).
enum class ScenarioMode : std::uint8_t {
  kSimulate,
  kVerify,
  kMarkov,
  kConformance,
};

/// Stable serialization name of a protocol family.
[[nodiscard]] const char* to_string(ScenarioFamily family) noexcept;
/// Stable serialization name of a topology.
[[nodiscard]] const char* to_string(ScenarioTopology topology) noexcept;
/// Stable serialization name of an oracle kind.
[[nodiscard]] const char* to_string(ScenarioOracle oracle) noexcept;
/// Stable serialization name of an execution mode.
[[nodiscard]] const char* to_string(ScenarioMode mode) noexcept;
/// Inverse of to_string(ScenarioFamily); nullopt on unknown names.
[[nodiscard]] std::optional<ScenarioFamily> family_from_name(
    std::string_view name) noexcept;
/// Inverse of to_string(ScenarioTopology); nullopt on unknown names.
[[nodiscard]] std::optional<ScenarioTopology> topology_from_name(
    std::string_view name) noexcept;
/// Inverse of to_string(ScenarioOracle); nullopt on unknown names.
[[nodiscard]] std::optional<ScenarioOracle> oracle_from_name(
    std::string_view name) noexcept;
/// Inverse of to_string(ScenarioMode); nullopt on unknown names.
[[nodiscard]] std::optional<ScenarioMode> mode_from_name(
    std::string_view name) noexcept;

/// One declarative scenario.  Default-constructed, it is a valid simulate
/// spec (k-partition, k = 3, n = 12, complete graph, uniform fairness).
struct ScenarioSpec {
  ScenarioFamily family = ScenarioFamily::kKPartition;
  /// Number of groups (>= 2).  kGraphBipartition fixes k = 2.
  pp::GroupId k = 3;
  /// Population size.
  std::uint32_t n = 12;
  ScenarioTopology topology = ScenarioTopology::kComplete;
  /// Edge probability of kErdosRenyi (ignored by the other topologies).
  double er_p = 0.5;
  pp::FairnessSpec fairness{};
  ScenarioOracle oracle = ScenarioOracle::kStablePattern;
  /// Effective-interaction lull of kQuiescence (ignored otherwise).
  std::uint64_t quiescence_window = 1ULL << 18;
  pp::Engine engine = pp::Engine::kAuto;
  ScenarioMode mode = ScenarioMode::kSimulate;
  std::uint32_t trials = 8;
  /// Master seed of the simulate/conformance trial streams; the exact
  /// modes (verify, markov) are seed-independent and ignore it.
  std::uint64_t seed = 1;
  /// Per-trial interaction budget.
  std::uint64_t budget = 10'000'000ULL;
  /// Declarative fault schedule (pp/faults.hpp grammar).  Parsed and
  /// validated; the campaign layer cannot yet schedule churn (no schedule
  /// field in MonteCarloOptions), so the server fails fast on non-empty
  /// schedules (docs/ppkd.md).
  std::vector<pp::FaultEvent> faults;
};

/// Canonical serialization: fixed member order, every field present,
/// normalized values.  serialize(parse(serialize(s))) == serialize(s).
[[nodiscard]] std::string serialize_scenario(const ScenarioSpec& spec);

/// Validates a spec the parser (or a caller) produced: empty string when
/// every executor precondition holds, else a one-line diagnostic naming
/// the offending field.  parse_scenario already calls this.
[[nodiscard]] std::string validate_scenario(const ScenarioSpec& spec);

/// Parses and validates one scenario document (or the value under
/// `scenario` in a submit request).  nullopt and a one-line reason in
/// `error` on malformed or invalid input.
[[nodiscard]] std::optional<ScenarioSpec> parse_scenario(
    std::string_view text, std::string* error = nullptr);

/// Parses a scenario from an already-parsed JSON value (the daemon embeds
/// specs inside request envelopes).
[[nodiscard]] std::optional<ScenarioSpec> parse_scenario_value(
    const io::JsonValue& value, std::string* error = nullptr);

/// FNV-1a 64 over the canonical serialization with the seed masked to 0:
/// specs that differ only in seed share a hash, which is exactly the
/// cache-key split -- results are cached by (scenario_hash, seed).
[[nodiscard]] std::uint64_t scenario_hash(const ScenarioSpec& spec);

/// scenario_hash as 16 lowercase hex digits (cache file names, frames).
[[nodiscard]] std::string scenario_hash_hex(const ScenarioSpec& spec);

/// The equivalent conformance case, making every scenario a fuzz case.
/// nullopt (reason in `why` when non-null) for scenarios the harness
/// cannot represent: non-complete topology, non-uniform fairness, or a
/// fault schedule (conformance cases carry their own topology rows).
[[nodiscard]] std::optional<verify::ConformanceCase> scenario_to_conformance(
    const ScenarioSpec& spec, std::string* why = nullptr);

/// The inverse: a replayable scenario from a conformance case, making
/// every fuzz case a server request.  nullopt for cases with no scenario
/// form (the randomized candidate family, table mutations).
[[nodiscard]] std::optional<ScenarioSpec> scenario_from_conformance(
    const verify::ConformanceCase& c);

/// Everything needed to execute a validated spec: the protocol objects
/// (owned), the oracle factory, and the campaign configuration.  Keep the
/// runtime alive for as long as anything runs on it -- the factory and
/// options capture the owned objects by reference.
class ScenarioRuntime {
 public:
  /// Precondition: validate_scenario(spec).empty().
  explicit ScenarioRuntime(const ScenarioSpec& spec);

  /// The validated spec this runtime was built from.
  [[nodiscard]] const ScenarioSpec& spec() const noexcept { return spec_; }
  /// The family's protocol object (owned by this runtime).
  [[nodiscard]] const pp::Protocol& protocol() const noexcept {
    return *protocol_;
  }
  /// The compiled transition table (owned by this runtime).
  [[nodiscard]] const pp::TransitionTable& table() const noexcept {
    return *table_;
  }

  /// Fresh stopping oracle per trial (bound to this runtime's objects).
  [[nodiscard]] pp::OracleFactory oracle_factory() const;

  /// The deterministic interaction topology of exact modes (verify on
  /// graph-bipartition).  Precondition: topology is not kErdosRenyi.
  [[nodiscard]] pp::InteractionGraph build_topology() const;

  /// Campaign configuration for mode kSimulate: trials, seed, budget,
  /// engine, fairness, topology factory + tag all filled from the spec.
  /// Checkpointing, cancellation and streaming stay with the caller.
  [[nodiscard]] core::CampaignOptions campaign_options() const;

 private:
  ScenarioSpec spec_;
  std::unique_ptr<pp::Protocol> protocol_;
  std::unique_ptr<pp::TransitionTable> table_;
};

}  // namespace ppk::serve
