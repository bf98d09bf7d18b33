#include "serve/scenario.hpp"

#include <cinttypes>
#include <cstdio>
#include <sstream>
#include <utility>

#include "core/graph_bipartition.hpp"
#include "core/invariants.hpp"
#include "core/kpartition.hpp"
#include "core/weak_kpartition.hpp"
#include "io/json.hpp"
#include "io/json_reader.hpp"
#include "util/assert.hpp"

namespace ppk::serve {

const char* to_string(ScenarioFamily family) noexcept {
  switch (family) {
    case ScenarioFamily::kKPartition: return "kpartition";
    case ScenarioFamily::kWeakKPartition: return "weak-kpartition";
    case ScenarioFamily::kGraphBipartition: return "graph-bipartition";
  }
  return "?";
}

const char* to_string(ScenarioTopology topology) noexcept {
  switch (topology) {
    case ScenarioTopology::kComplete: return "complete";
    case ScenarioTopology::kRing: return "ring";
    case ScenarioTopology::kStar: return "star";
    case ScenarioTopology::kPath: return "path";
    case ScenarioTopology::kErdosRenyi: return "erdos-renyi";
  }
  return "?";
}

const char* to_string(ScenarioOracle oracle) noexcept {
  switch (oracle) {
    case ScenarioOracle::kStablePattern: return "stable-pattern";
    case ScenarioOracle::kSilence: return "silence";
    case ScenarioOracle::kQuiescence: return "quiescence";
  }
  return "?";
}

const char* to_string(ScenarioMode mode) noexcept {
  switch (mode) {
    case ScenarioMode::kSimulate: return "simulate";
    case ScenarioMode::kVerify: return "verify";
    case ScenarioMode::kMarkov: return "markov";
    case ScenarioMode::kConformance: return "conformance";
  }
  return "?";
}

std::optional<ScenarioFamily> family_from_name(std::string_view name) noexcept {
  if (name == "kpartition") return ScenarioFamily::kKPartition;
  if (name == "weak-kpartition") return ScenarioFamily::kWeakKPartition;
  if (name == "graph-bipartition") return ScenarioFamily::kGraphBipartition;
  return std::nullopt;
}

std::optional<ScenarioTopology> topology_from_name(
    std::string_view name) noexcept {
  if (name == "complete") return ScenarioTopology::kComplete;
  if (name == "ring") return ScenarioTopology::kRing;
  if (name == "star") return ScenarioTopology::kStar;
  if (name == "path") return ScenarioTopology::kPath;
  if (name == "erdos-renyi") return ScenarioTopology::kErdosRenyi;
  return std::nullopt;
}

std::optional<ScenarioOracle> oracle_from_name(std::string_view name) noexcept {
  if (name == "stable-pattern") return ScenarioOracle::kStablePattern;
  if (name == "silence") return ScenarioOracle::kSilence;
  if (name == "quiescence") return ScenarioOracle::kQuiescence;
  return std::nullopt;
}

std::optional<ScenarioMode> mode_from_name(std::string_view name) noexcept {
  if (name == "simulate") return ScenarioMode::kSimulate;
  if (name == "verify") return ScenarioMode::kVerify;
  if (name == "markov") return ScenarioMode::kMarkov;
  if (name == "conformance") return ScenarioMode::kConformance;
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Serialization

std::string serialize_scenario(const ScenarioSpec& spec) {
  std::ostringstream out;
  io::JsonWriter w(out);
  w.begin_object();
  w.member("schema", kScenarioSchema);
  w.member("protocol", to_string(spec.family));
  w.member("k", static_cast<std::uint64_t>(spec.k));
  w.member("n", static_cast<std::uint64_t>(spec.n));
  w.key("topology");
  w.begin_object();
  w.member("kind", to_string(spec.topology));
  w.member("p", spec.er_p);
  w.end_object();
  w.key("fairness");
  w.begin_object();
  w.member("policy", pp::to_string(spec.fairness.policy));
  w.member("epsilon", spec.fairness.epsilon);
  w.end_object();
  w.key("oracle");
  w.begin_object();
  w.member("kind", to_string(spec.oracle));
  w.member("window", spec.quiescence_window);
  w.end_object();
  w.member("engine", pp::engine_name(spec.engine));
  w.member("mode", to_string(spec.mode));
  w.member("trials", static_cast<std::uint64_t>(spec.trials));
  w.member("seed", spec.seed);
  w.member("budget", spec.budget);
  w.key("faults");
  w.begin_array();
  for (const pp::FaultEvent& f : spec.faults) {
    w.begin_object();
    w.member("at", f.at);
    w.member("kind", pp::fault_kind_name(f.kind));
    if (f.agent) w.member("agent", static_cast<std::uint64_t>(*f.agent));
    if (f.state) w.member("state", static_cast<std::uint64_t>(*f.state));
    if (f.kind == pp::FaultKind::kSleep) w.member("duration", f.duration);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return out.str();
}

// ---------------------------------------------------------------------------
// Validation

namespace {

/// States per agent of the spec's protocol family (the fault grammar needs
/// it to range-check corrupt/join target states without building the
/// protocol).
std::uint32_t family_num_states(const ScenarioSpec& spec) {
  switch (spec.family) {
    case ScenarioFamily::kKPartition: return 3u * spec.k - 2u;
    case ScenarioFamily::kWeakKPartition: return 3u * spec.k + 1u;
    case ScenarioFamily::kGraphBipartition: return 5u;
  }
  return 0;
}

/// Ordered scheduling slots the adversarial engine must enumerate for this
/// spec (its hard UINT32_MAX precondition; weak round-robin additionally
/// walks a full round per lap, so it gets a tighter operational bound).
std::uint64_t adversarial_ordered_pairs(const ScenarioSpec& spec) {
  const std::uint64_t n = spec.n;
  switch (spec.topology) {
    case ScenarioTopology::kComplete:
    case ScenarioTopology::kErdosRenyi:  // worst case: every edge sampled in
      return n * (n - 1);                // -- bound by the complete graph
    case ScenarioTopology::kRing: return 2 * n;
    case ScenarioTopology::kStar:
    case ScenarioTopology::kPath: return 2 * (n - 1);
  }
  return 0;
}

std::string field_error(const char* field, const std::string& what) {
  return std::string("scenario: ") + field + ": " + what;
}

}  // namespace

std::string validate_scenario(const ScenarioSpec& spec) {
  if (spec.k < 2) return field_error("k", "need k >= 2");
  if (spec.family == ScenarioFamily::kGraphBipartition && spec.k != 2) {
    return field_error("k", "graph-bipartition fixes k = 2");
  }
  if (spec.n < 3) return field_error("n", "need n >= 3");
  if (spec.n < spec.k) return field_error("n", "need n >= k groups");
  if (spec.topology == ScenarioTopology::kErdosRenyi &&
      !(spec.er_p > 0.0 && spec.er_p <= 1.0)) {
    return field_error("topology.p", "need 0 < p <= 1");
  }
  if (spec.fairness.policy == pp::FairnessPolicy::kEpsilonFair &&
      !(spec.fairness.epsilon > 0.0 && spec.fairness.epsilon <= 1.0)) {
    return field_error("fairness.epsilon", "need 0 < epsilon <= 1");
  }

  // Oracle x family: which stopping rules are sound for which protocol.
  switch (spec.oracle) {
    case ScenarioOracle::kStablePattern:
      if (spec.family == ScenarioFamily::kWeakKPartition) {
        return field_error("oracle.kind",
                           "weak-kpartition has no count-pattern oracle; its "
                           "exact stopping rule is silence");
      }
      break;
    case ScenarioOracle::kSilence:
      if (spec.family != ScenarioFamily::kWeakKPartition) {
        return field_error("oracle.kind",
                           "only weak-kpartition goes silent (kpartition "
                           "free pairs and bipartition signals flip forever)");
      }
      break;
    case ScenarioOracle::kQuiescence:
      if (spec.quiescence_window == 0) {
        return field_error("oracle.window", "need window >= 1");
      }
      break;
  }

  // Engine x topology x fairness.
  const bool adversarial = spec.fairness.needs_adversarial_engine();
  if (adversarial) {
    if (spec.engine != pp::Engine::kAuto &&
        spec.engine != pp::Engine::kAgentArray) {
      return field_error("engine",
                         "non-uniform fairness runs on the adversarial "
                         "engine; use engine auto or agent");
    }
    if (adversarial_ordered_pairs(spec) > UINT32_MAX) {
      return field_error("n",
                         "too large for the adversarial engine (ordered "
                         "scheduling pairs exceed 2^32)");
    }
    if (spec.fairness.policy == pp::FairnessPolicy::kWeakRoundRobin &&
        adversarial_ordered_pairs(spec) > (1ULL << 22)) {
      return field_error("n",
                         "weak-round-robin walks a full ordered round per "
                         "lap; need at most 2^22 scheduling pairs");
    }
  } else if (spec.topology == ScenarioTopology::kComplete) {
    if (spec.engine == pp::Engine::kGraph ||
        spec.engine == pp::Engine::kGraphJump) {
      return field_error("engine",
                         "graph engines need a non-complete topology");
    }
  } else {
    if (spec.engine != pp::Engine::kAuto &&
        spec.engine != pp::Engine::kGraph &&
        spec.engine != pp::Engine::kGraphJump) {
      return field_error("engine",
                         "a non-complete topology needs engine auto, graph "
                         "or graph-jump (or adversarial fairness)");
    }
  }

  // Mode preconditions.
  const bool exact =
      spec.mode == ScenarioMode::kVerify || spec.mode == ScenarioMode::kMarkov;
  if (exact) {
    if (spec.engine != pp::Engine::kAuto) {
      return field_error("engine", "exact modes take engine auto");
    }
    if (!spec.faults.empty()) {
      return field_error("faults", "exact modes take no fault schedule");
    }
    if (adversarial) {
      return field_error(
          "fairness.policy",
          "exact modes pick their own scheduling semantics (verify explores "
          "all of them; markov is the uniform-random chain)");
    }
  }
  switch (spec.mode) {
    case ScenarioMode::kSimulate:
      if (spec.trials == 0) return field_error("trials", "need trials >= 1");
      if (spec.budget == 0) return field_error("budget", "need budget >= 1");
      break;
    case ScenarioMode::kVerify:
      if (spec.family == ScenarioFamily::kKPartition) {
        if (spec.topology != ScenarioTopology::kComplete) {
          return field_error("topology.kind",
                             "verify(kpartition) is the complete-graph "
                             "count-graph checker");
        }
        // As for markov, the real guard is the server's
        // --markov-max-orbits exploration cap (an error frame).
        if (spec.n > 512) {
          return field_error("n", "verify(kpartition) explores the "
                                  "reachable count graph exhaustively; need "
                                  "n <= 512");
        }
      } else {
        // The per-agent checkers (weak fairness; arbitrary topology).
        if (spec.family == ScenarioFamily::kWeakKPartition &&
            spec.topology != ScenarioTopology::kComplete) {
          return field_error("topology.kind",
                             "verify(weak-kpartition) models the complete "
                             "interaction graph");
        }
        if (spec.topology == ScenarioTopology::kErdosRenyi) {
          return field_error("topology.kind",
                             "verify needs a deterministic topology");
        }
        if (spec.n > 8) {
          return field_error("n", "per-agent verification explores state "
                                  "tuples exhaustively; need n <= 8");
        }
      }
      break;
    case ScenarioMode::kMarkov:
      if (spec.family != ScenarioFamily::kKPartition) {
        return field_error("protocol",
                           "markov analysis targets the kpartition stable "
                           "pattern");
      }
      if (spec.topology != ScenarioTopology::kComplete) {
        return field_error("topology.kind",
                           "markov is the complete-graph uniform chain");
      }
      // The real guard is the server's --markov-max-orbits exploration cap
      // (a recoverable error frame); this bound only rejects requests no
      // configuration could serve.  The lumped back end solves k = 2 at
      // n = 352 (BENCH_EXACT.json); k >= 3 has no state symmetry and hits
      // the orbit cap much earlier.
      if (spec.n > 512) {
        return field_error("n", "markov solves the reachable chain exactly "
                                "(symmetry-lumped sparse solver); need "
                                "n <= 512");
      }
      break;
    case ScenarioMode::kConformance: {
      std::string why;
      if (!scenario_to_conformance(spec, &why)) return why;
      if (spec.n > 64) {
        return field_error("n", "conformance ground-truths small cases; "
                                "need n <= 64");
      }
      if (spec.trials == 0 || spec.trials > 1000) {
        return field_error("trials", "need 1 <= trials <= 1000");
      }
      if (spec.budget == 0) return field_error("budget", "need budget >= 1");
      break;
    }
  }

  // Fault grammar (the schedule itself; whether an executor can honour it
  // is the server's decision -- docs/ppkd.md).
  if (!spec.faults.empty() && spec.mode != ScenarioMode::kSimulate) {
    return field_error("faults", "only mode simulate takes a fault schedule");
  }
  const std::uint32_t num_states = family_num_states(spec);
  for (std::size_t i = 0; i < spec.faults.size(); ++i) {
    const pp::FaultEvent& f = spec.faults[i];
    if (i > 0 && f.at < spec.faults[i - 1].at) {
      return field_error("faults", "events must be sorted by `at`");
    }
    if (f.agent && *f.agent >= spec.n) {
      return field_error("faults", "agent index out of range");
    }
    if (f.state && *f.state >= num_states) {
      return field_error("faults", "state id out of range for the protocol");
    }
    if (f.kind == pp::FaultKind::kSleep && f.duration == 0) {
      return field_error("faults", "sleep needs duration >= 1");
    }
  }

  return {};
}

// ---------------------------------------------------------------------------
// Parsing

namespace {

/// Reads one u64 member with a field-named diagnostic.
bool read_u64(const io::JsonValue& obj, const char* field, std::uint64_t* out,
              std::string* error) {
  const io::JsonValue* v = obj.find(field);
  if (v == nullptr) {
    *error = field_error(field, "missing");
    return false;
  }
  if (!v->is_number()) {
    *error = field_error(field, "expected a number");
    return false;
  }
  const std::optional<std::uint64_t> parsed = v->as_u64();
  if (!parsed) {
    *error = field_error(field, "not an unsigned 64-bit integer");
    return false;
  }
  *out = *parsed;
  return true;
}

bool read_string(const io::JsonValue& obj, const char* field,
                 std::string* out, std::string* error) {
  const io::JsonValue* v = obj.find(field);
  if (v == nullptr) {
    *error = field_error(field, "missing");
    return false;
  }
  if (!v->is_string()) {
    *error = field_error(field, "expected a string");
    return false;
  }
  *out = v->scalar;
  return true;
}

/// Rejects members outside `allowed` -- submit typos fail loudly instead
/// of silently running the defaulted axis.
bool check_members(const io::JsonValue& obj, const char* where,
                   std::initializer_list<std::string_view> allowed,
                   std::string* error) {
  for (const std::string& key : obj.keys) {
    bool known = false;
    for (std::string_view a : allowed) known = known || key == a;
    if (!known) {
      *error = std::string("scenario: ") + where + ": unknown member '" +
               key + "'";
      return false;
    }
  }
  return true;
}

std::optional<pp::FairnessPolicy> policy_from_name(
    std::string_view name) noexcept {
  if (name == "uniform-random") return pp::FairnessPolicy::kUniformRandom;
  if (name == "epsilon-fair") return pp::FairnessPolicy::kEpsilonFair;
  if (name == "weak-round-robin") return pp::FairnessPolicy::kWeakRoundRobin;
  return std::nullopt;
}

std::optional<pp::FaultKind> fault_kind_from_name(
    std::string_view name) noexcept {
  for (pp::FaultKind kind :
       {pp::FaultKind::kCrash, pp::FaultKind::kJoin, pp::FaultKind::kCorrupt,
        pp::FaultKind::kSleep, pp::FaultKind::kReset}) {
    if (name == pp::fault_kind_name(kind)) return kind;
  }
  return std::nullopt;
}

}  // namespace

std::optional<ScenarioSpec> parse_scenario_value(const io::JsonValue& value,
                                                 std::string* error) {
  std::string local;
  std::string* err = error != nullptr ? error : &local;

  if (!value.is_object()) {
    *err = "scenario: expected a JSON object";
    return std::nullopt;
  }
  if (!check_members(value, "document",
                     {"schema", "protocol", "k", "n", "topology", "fairness",
                      "oracle", "engine", "mode", "trials", "seed", "budget",
                      "faults"},
                     err)) {
    return std::nullopt;
  }

  ScenarioSpec spec;
  std::string text;
  std::uint64_t num = 0;

  if (!read_string(value, "schema", &text, err)) return std::nullopt;
  if (text != kScenarioSchema) {
    *err = field_error("schema", "expected \"" + std::string(kScenarioSchema) +
                                     "\", got \"" + text + "\"");
    return std::nullopt;
  }

  if (!read_string(value, "protocol", &text, err)) return std::nullopt;
  if (const auto family = family_from_name(text)) {
    spec.family = *family;
  } else {
    *err = field_error("protocol", "unknown family \"" + text + "\"");
    return std::nullopt;
  }

  if (!read_u64(value, "k", &num, err)) return std::nullopt;
  if (num < 2 || num > 1000) {
    *err = field_error("k", "need 2 <= k <= 1000");
    return std::nullopt;
  }
  spec.k = static_cast<pp::GroupId>(num);

  if (!read_u64(value, "n", &num, err)) return std::nullopt;
  if (num < 3 || num > UINT32_MAX) {
    *err = field_error("n", "need 3 <= n <= 2^32-1");
    return std::nullopt;
  }
  spec.n = static_cast<std::uint32_t>(num);

  const io::JsonValue* topology = value.find("topology");
  if (topology == nullptr || !topology->is_object()) {
    *err = field_error("topology", "expected an object {kind, p}");
    return std::nullopt;
  }
  if (!check_members(*topology, "topology", {"kind", "p"}, err)) {
    return std::nullopt;
  }
  if (!read_string(*topology, "kind", &text, err)) return std::nullopt;
  if (const auto kind = topology_from_name(text)) {
    spec.topology = *kind;
  } else {
    *err = field_error("topology.kind", "unknown topology \"" + text + "\"");
    return std::nullopt;
  }
  if (const io::JsonValue* p = topology->find("p")) {
    const std::optional<double> parsed = p->is_number()
                                             ? p->as_double()
                                             : std::nullopt;
    if (!parsed) {
      *err = field_error("topology.p", "expected a number");
      return std::nullopt;
    }
    spec.er_p = *parsed;
  }

  const io::JsonValue* fairness = value.find("fairness");
  if (fairness == nullptr || !fairness->is_object()) {
    *err = field_error("fairness", "expected an object {policy, epsilon}");
    return std::nullopt;
  }
  if (!check_members(*fairness, "fairness", {"policy", "epsilon"}, err)) {
    return std::nullopt;
  }
  if (!read_string(*fairness, "policy", &text, err)) return std::nullopt;
  if (const auto policy = policy_from_name(text)) {
    spec.fairness.policy = *policy;
  } else {
    *err = field_error("fairness.policy", "unknown policy \"" + text + "\"");
    return std::nullopt;
  }
  if (const io::JsonValue* eps = fairness->find("epsilon")) {
    const std::optional<double> parsed = eps->is_number()
                                             ? eps->as_double()
                                             : std::nullopt;
    if (!parsed) {
      *err = field_error("fairness.epsilon", "expected a number");
      return std::nullopt;
    }
    spec.fairness.epsilon = *parsed;
  }

  const io::JsonValue* oracle = value.find("oracle");
  if (oracle == nullptr || !oracle->is_object()) {
    *err = field_error("oracle", "expected an object {kind, window}");
    return std::nullopt;
  }
  if (!check_members(*oracle, "oracle", {"kind", "window"}, err)) {
    return std::nullopt;
  }
  if (!read_string(*oracle, "kind", &text, err)) return std::nullopt;
  if (const auto kind = oracle_from_name(text)) {
    spec.oracle = *kind;
  } else {
    *err = field_error("oracle.kind", "unknown oracle \"" + text + "\"");
    return std::nullopt;
  }
  if (oracle->find("window") != nullptr) {
    if (!read_u64(*oracle, "window", &spec.quiescence_window, err)) {
      return std::nullopt;
    }
  }

  if (!read_string(value, "engine", &text, err)) return std::nullopt;
  if (const auto engine = pp::parse_engine(text)) {
    spec.engine = *engine;
  } else {
    *err = field_error("engine", "unknown engine \"" + text + "\"");
    return std::nullopt;
  }

  if (!read_string(value, "mode", &text, err)) return std::nullopt;
  if (const auto mode = mode_from_name(text)) {
    spec.mode = *mode;
  } else {
    *err = field_error("mode", "unknown mode \"" + text + "\"");
    return std::nullopt;
  }

  if (!read_u64(value, "trials", &num, err)) return std::nullopt;
  if (num > UINT32_MAX) {
    *err = field_error("trials", "need trials <= 2^32-1");
    return std::nullopt;
  }
  spec.trials = static_cast<std::uint32_t>(num);
  if (!read_u64(value, "seed", &spec.seed, err)) return std::nullopt;
  if (!read_u64(value, "budget", &spec.budget, err)) return std::nullopt;

  if (const io::JsonValue* faults = value.find("faults")) {
    if (!faults->is_array()) {
      *err = field_error("faults", "expected an array");
      return std::nullopt;
    }
    for (const io::JsonValue& item : faults->items) {
      if (!item.is_object()) {
        *err = field_error("faults", "expected fault objects");
        return std::nullopt;
      }
      if (!check_members(item, "faults[]",
                         {"at", "kind", "agent", "state", "duration"}, err)) {
        return std::nullopt;
      }
      pp::FaultEvent f;
      if (!read_u64(item, "at", &f.at, err)) return std::nullopt;
      if (!read_string(item, "kind", &text, err)) return std::nullopt;
      if (const auto kind = fault_kind_from_name(text)) {
        f.kind = *kind;
      } else {
        *err = field_error("faults", "unknown fault kind \"" + text + "\"");
        return std::nullopt;
      }
      if (item.find("agent") != nullptr) {
        if (!read_u64(item, "agent", &num, err)) return std::nullopt;
        if (num > UINT32_MAX) {
          *err = field_error("faults", "agent index out of range");
          return std::nullopt;
        }
        f.agent = static_cast<std::uint32_t>(num);
      }
      if (item.find("state") != nullptr) {
        if (!read_u64(item, "state", &num, err)) return std::nullopt;
        if (num > UINT16_MAX) {
          *err = field_error("faults", "state id out of range");
          return std::nullopt;
        }
        f.state = static_cast<pp::StateId>(num);
      }
      if (item.find("duration") != nullptr) {
        if (!read_u64(item, "duration", &f.duration, err)) return std::nullopt;
      }
      spec.faults.push_back(f);
    }
  }

  std::string invalid = validate_scenario(spec);
  if (!invalid.empty()) {
    *err = std::move(invalid);
    return std::nullopt;
  }
  return spec;
}

std::optional<ScenarioSpec> parse_scenario(std::string_view text,
                                           std::string* error) {
  std::string local;
  std::string* err = error != nullptr ? error : &local;
  std::string parse_error;
  const std::optional<io::JsonValue> doc = io::parse_json(text, &parse_error);
  if (!doc) {
    *err = "scenario: " + parse_error;
    return std::nullopt;
  }
  return parse_scenario_value(*doc, error);
}

// ---------------------------------------------------------------------------
// Hashing

std::uint64_t scenario_hash(const ScenarioSpec& spec) {
  ScenarioSpec masked = spec;
  masked.seed = 0;  // specs differing only in seed share a hash (cache key)
  const std::string canonical = serialize_scenario(masked);
  std::uint64_t h = 14695981039346656037ULL;  // FNV-1a 64
  for (char c : canonical) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

std::string scenario_hash_hex(const ScenarioSpec& spec) {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016" PRIx64, scenario_hash(spec));
  return buffer;
}

// ---------------------------------------------------------------------------
// Conformance bridge

std::optional<verify::ConformanceCase> scenario_to_conformance(
    const ScenarioSpec& spec, std::string* why) {
  const auto fail = [&](const char* reason) -> std::optional<verify::ConformanceCase> {
    if (why != nullptr) *why = std::string("scenario: ") + reason;
    return std::nullopt;
  };
  if (spec.topology != ScenarioTopology::kComplete) {
    return fail("topology.kind: conformance cases carry their own per-engine "
                "topology rows; the scenario must say complete");
  }
  if (spec.fairness.policy != pp::FairnessPolicy::kUniformRandom) {
    return fail("fairness.policy: conformance pins the uniform-random "
                "scheduler (the adversarial row runs epsilon = 1)");
  }
  if (!spec.faults.empty()) {
    return fail("faults: conformance cases take no fault schedule (the "
                "churn row runs an empty one)");
  }
  verify::ConformanceCase c;
  switch (spec.family) {
    case ScenarioFamily::kKPartition:
      c.protocol.family = verify::ConformanceProtocol::Family::kKPartition;
      break;
    case ScenarioFamily::kWeakKPartition:
      c.protocol.family = verify::ConformanceProtocol::Family::kWeakKPartition;
      break;
    case ScenarioFamily::kGraphBipartition:
      c.protocol.family =
          verify::ConformanceProtocol::Family::kGraphBipartition;
      break;
  }
  c.protocol.k = spec.k;
  c.n = spec.n;
  c.seed = spec.seed;
  c.trials = static_cast<int>(spec.trials);
  c.budget = spec.budget;
  return c;
}

std::optional<ScenarioSpec> scenario_from_conformance(
    const verify::ConformanceCase& c) {
  if (c.mutation.has_value()) return std::nullopt;
  ScenarioSpec spec;
  switch (c.protocol.family) {
    case verify::ConformanceProtocol::Family::kKPartition:
      spec.family = ScenarioFamily::kKPartition;
      spec.oracle = ScenarioOracle::kStablePattern;
      break;
    case verify::ConformanceProtocol::Family::kWeakKPartition:
      spec.family = ScenarioFamily::kWeakKPartition;
      spec.oracle = ScenarioOracle::kSilence;
      break;
    case verify::ConformanceProtocol::Family::kGraphBipartition:
      spec.family = ScenarioFamily::kGraphBipartition;
      spec.oracle = ScenarioOracle::kStablePattern;
      break;
    case verify::ConformanceProtocol::Family::kCandidate:
      return std::nullopt;  // the randomized space has no declarative form
  }
  spec.k = c.protocol.family ==
                   verify::ConformanceProtocol::Family::kGraphBipartition
               ? 2
               : c.protocol.k;
  spec.n = c.n;
  spec.seed = c.seed;
  if (c.trials <= 0) return std::nullopt;
  spec.trials = static_cast<std::uint32_t>(c.trials);
  spec.budget = c.budget;
  spec.mode = ScenarioMode::kConformance;
  if (!validate_scenario(spec).empty()) return std::nullopt;
  return spec;
}

// ---------------------------------------------------------------------------
// Runtime

ScenarioRuntime::ScenarioRuntime(const ScenarioSpec& spec) : spec_(spec) {
  PPK_EXPECTS(validate_scenario(spec).empty());
  switch (spec_.family) {
    case ScenarioFamily::kKPartition:
      protocol_ = std::make_unique<core::KPartitionProtocol>(spec_.k);
      break;
    case ScenarioFamily::kWeakKPartition:
      protocol_ = std::make_unique<core::WeakKPartitionProtocol>(spec_.k);
      break;
    case ScenarioFamily::kGraphBipartition:
      protocol_ = std::make_unique<core::GraphBipartitionProtocol>();
      break;
  }
  table_ = std::make_unique<pp::TransitionTable>(*protocol_);
}

pp::OracleFactory ScenarioRuntime::oracle_factory() const {
  switch (spec_.oracle) {
    case ScenarioOracle::kStablePattern:
      if (spec_.family == ScenarioFamily::kGraphBipartition) {
        const auto* gb =
            static_cast<const core::GraphBipartitionProtocol*>(protocol_.get());
        const std::uint64_t n = spec_.n;
        return [gb, n] { return core::graph_bipartition_stable_oracle(*gb, n); };
      } else {
        const auto* kp =
            static_cast<const core::KPartitionProtocol*>(protocol_.get());
        const std::uint32_t n = spec_.n;
        return [kp, n] { return core::stable_pattern_oracle(*kp, n); };
      }
    case ScenarioOracle::kSilence: {
      const pp::TransitionTable* table = table_.get();
      return [table] { return std::make_unique<pp::SilenceOracle>(*table); };
    }
    case ScenarioOracle::kQuiescence: {
      const pp::Protocol* protocol = protocol_.get();
      const std::uint64_t window = spec_.quiescence_window;
      return [protocol, window] {
        return std::make_unique<pp::QuiescenceOracle>(
            pp::make_quiescence_oracle(*protocol, window));
      };
    }
  }
  PPK_ASSERT(false);
  return {};
}

pp::InteractionGraph ScenarioRuntime::build_topology() const {
  PPK_EXPECTS(spec_.topology != ScenarioTopology::kErdosRenyi);
  switch (spec_.topology) {
    case ScenarioTopology::kComplete:
      return pp::InteractionGraph::complete(spec_.n);
    case ScenarioTopology::kRing: return pp::InteractionGraph::ring(spec_.n);
    case ScenarioTopology::kStar: return pp::InteractionGraph::star(spec_.n);
    case ScenarioTopology::kPath: return pp::InteractionGraph::path(spec_.n);
    case ScenarioTopology::kErdosRenyi: break;
  }
  PPK_ASSERT(false);
  return pp::InteractionGraph::complete(spec_.n);
}

core::CampaignOptions ScenarioRuntime::campaign_options() const {
  core::CampaignOptions options;
  options.mc.trials = spec_.trials;
  options.mc.master_seed = spec_.seed;
  options.mc.max_interactions = spec_.budget;
  options.mc.engine = spec_.engine;
  options.mc.fairness = spec_.fairness;
  if (spec_.topology != ScenarioTopology::kComplete) {
    const ScenarioTopology kind = spec_.topology;
    const std::uint32_t n = spec_.n;
    const double p = spec_.er_p;
    options.mc.graph = [kind, n, p](std::uint64_t seed) {
      switch (kind) {
        case ScenarioTopology::kRing: return pp::InteractionGraph::ring(n);
        case ScenarioTopology::kStar: return pp::InteractionGraph::star(n);
        case ScenarioTopology::kPath: return pp::InteractionGraph::path(n);
        case ScenarioTopology::kErdosRenyi:
          return pp::InteractionGraph::erdos_renyi(n, p, seed);
        case ScenarioTopology::kComplete: break;
      }
      PPK_ASSERT(false);
      return pp::InteractionGraph::complete(n);
    };
  }
  return options;
}

}  // namespace ppk::serve
