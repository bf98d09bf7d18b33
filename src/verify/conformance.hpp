// Cross-engine conformance harness: differential fuzzing of every
// simulator in the tree against the repo's reference models, with
// auto-shrinking, replayable repro files.
//
// The repo carries many realizations of the *same* stochastic process (the
// uniform-random pairwise scheduler): the agent array, the jump and batch
// aggregators, the restricted-scheduler simulators specialized to
// unrestricted parameters (the agent array's topology draw on the complete
// graph, its fairness draw with epsilon = 1 and its churn draw with an
// empty fault schedule).  Any future sharding or parallelism PR adds more.
// Sparse topologies are covered too: the per-draw topology draw and the
// live-edge GraphJumpSimulator each run on the ring, star, path and a
// seeded G(n, 0.5), and every live-edge row is pinned against its per-draw
// counterpart by a dedicated distribution net (the two engines realize the
// same conditional law on the same graph; neither matches the complete
// -graph agent reference, so sparse rows are excluded from that net).
// Each engine is pinned by five independent nets:
//
//  1. kTrajectory     same seed => bit-identical oracle-visible trajectory
//                     (rerun determinism), and the oracle-tracked counts
//                     must agree with the engine's own final configuration
//                     (oracle-callback discipline).
//  2. kChunkedResume  a run split into budget chunks via run()+resume()
//                     must equal the unchunked run bit-for-bit (pairwise
//                     engines; the aggregated engines legitimately consume
//                     their RNG streams differently under truncation and
//                     are covered in distribution instead).  This is the
//                     oracle-reset bug class fixed in PR 1.
//  3. kSnapshotResume a run interrupted at a deterministic cut, its
//                     snapshot round-tripped through the text serialization
//                     (io/snapshot_io.hpp) and restored into a *freshly
//                     constructed* engine, must resume to a bit-identical
//                     trajectory, final configuration and totals versus an
//                     uninterrupted run driven with the same grant
//                     sequence.  Applies to every engine (the aggregated
//                     engines re-draw at grant boundaries, but both sides
//                     see identical boundaries); this is the crash-safe
//                     -campaign contract of core/campaign.hpp.
//  4. kDistribution   engines that only agree in law are compared by
//                     two-sample Kolmogorov-Smirnov tests on stabilization
//                     times and effective-interaction counts, with a
//                     confirm-on-fail rerun so a fuzz session's many tests
//                     do not trip over the significance level.
//  5. kLemma1 / kGroundTruth
//                     protocol-semantics references that do not depend on
//                     any engine: the paper's Lemma 1 counting invariant is
//                     checked at every oracle callback, and for small n the
//                     exact reachable set + the config_graph/global_fairness
//                     model checker ground-truth every configuration an
//                     engine visits.
//
// On divergence the harness shrinks the failing case deterministically
// (minimize n, then k, then the interaction-schedule prefix) and emits a
// replayable repro; `tests/corpus/` holds the committed corpus replayed by
// the regular test suite, and `conformance_fuzz` (tests/) is the time-boxed
// driver CI runs nightly.

#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "pp/protocol.hpp"
#include "pp/transition_table.hpp"
#include "verify/protocol_search.hpp"

namespace ppk::verify {

// ---------------------------------------------------------------------------
// Case description

/// Engines the harness can drive.  kModel is not an engine: it tags
/// divergences where the *reference model* itself refutes the expected
/// property (e.g. the Theorem 1 verdict fails on a mutated table).
enum class ConformanceEngine : std::uint8_t {
  kAgent,
  // Per-row RNG streams derive from the enumerator value, so the values
  // are pinned (1 is unused) to keep every row's stream, and with it every
  // committed repro's replay, fixed.
  kJump = 2,
  kBatchAuto,
  kBatchForced,
  kThinForced,
  // The sharded SoA batch engine (pp/batch_sharded_simulator.hpp), run with
  // pool dispatch forced (grain 0, 2 workers) so conformance exercises the
  // parallel path: sharding must be invisible to every net.  Like the batch
  // rows it is excluded from the pairwise chunked-resume net (budget
  // truncation legitimately moves RNG consumption) and covered by the
  // distribution net instead.
  kBatchSharded,
  kGraphComplete,
  kAdversarialEps1,
  kChurnNoFaults,
  // Sparse-topology rows.  graph-X is the agent array's topology draw on
  // topology X; live-edge-X is GraphJumpSimulator on the same graph
  // (G(n, 0.5) rows share one seeded graph derived from the case seed, so
  // a pair sees the identical topology).  live-edge-complete runs against
  // the agent reference like graph-complete does; the sparse rows are
  // checked pairwise against their per-draw counterpart instead.
  kGraphRing,
  kGraphStar,
  kGraphPath,
  kGraphEr,
  kLiveEdgeComplete,
  kLiveEdgeRing,
  kLiveEdgeStar,
  kLiveEdgePath,
  kLiveEdgeEr,
  kModel,
};

/// Stable identifier used in logs and repro files ("agent", "graph-complete",
/// ...).
[[nodiscard]] const char* conformance_engine_name(ConformanceEngine engine);

/// Inverse of conformance_engine_name; nullopt for unknown names.
[[nodiscard]] std::optional<ConformanceEngine> conformance_engine_from_name(
    const std::string& name);

/// Every drivable engine (excludes kModel).
[[nodiscard]] const std::vector<ConformanceEngine>& all_conformance_engines();

/// Which protocol a conformance case runs.
struct ConformanceProtocol {
  /// kKPartition is the paper's 3k-2-state protocol; kWeakKPartition the
  /// 3k+1-state weak-fairness variant (core/weak_kpartition.hpp);
  /// kGraphBipartition the 5-state arbitrary-graph bipartition
  /// (core/graph_bipartition.hpp); kCandidate a randomized symmetric
  /// protocol from the protocol_search enumeration space.
  enum class Family : std::uint8_t {
    kKPartition,
    kCandidate,
    kWeakKPartition,
    kGraphBipartition,
  };
  Family family = Family::kKPartition;
  /// kKPartition / kWeakKPartition: the number of groups (k >= 2).
  pp::GroupId k = 3;
  /// kCandidate: a randomized symmetric protocol from the protocol_search
  /// enumeration space.
  CandidateSpec candidate{};
};

/// A single flipped ordered transition, applied swap-consistently to the
/// table the *engines* run while every reference model keeps the true
/// semantics -- the mutation-testing hook that proves the harness can see.
struct TableMutation {
  pp::StateId p = 0;
  pp::StateId q = 0;
  pp::Transition out{0, 0};
};

/// One fuzz point: a protocol, a population size, and a master seed from
/// which every engine/trial stream is derived (so the whole check is a pure
/// function of this struct -- rerunning it reproduces the verdict bit for
/// bit, which is what makes shrinking and repro files possible).
struct ConformanceCase {
  ConformanceProtocol protocol{};
  std::optional<TableMutation> mutation{};
  std::uint32_t n = 12;
  std::uint64_t seed = 1;
  /// Per-engine sample size of the KS distribution net.
  int trials = 40;
  /// Per-trial interaction budget (drawn pairs).
  std::uint64_t budget = 250'000;
  /// Engines to drive; empty = all_conformance_engines().
  std::vector<ConformanceEngine> engines{};
};

// ---------------------------------------------------------------------------
// Verdicts

enum class ConformanceCheck : std::uint8_t {
  kTrajectory,
  kChunkedResume,
  kSnapshotResume,
  kDistribution,
  kLemma1,
  kGroundTruth,
  /// One-sample KS of each engine's empirical stabilization-time sample
  /// against the *exact* first-passage law of the true protocol's chain,
  /// computed by the symmetry-lumped Markov analysis
  /// (verify/lumped_markov.hpp).  Unlike kDistribution -- which can only
  /// say two engines agree with each other -- this net has an absolute
  /// reference, so a bias shared by every engine still fails it.
  kExactDistribution,
};

/// Stable identifier used in logs and repro files ("trajectory", ...).
[[nodiscard]] const char* conformance_check_name(ConformanceCheck check);

/// Inverse of conformance_check_name; nullopt for unknown names.
[[nodiscard]] std::optional<ConformanceCheck> conformance_check_from_name(
    const std::string& name);

/// One observed divergence.
struct Divergence {
  ConformanceCheck check = ConformanceCheck::kTrajectory;
  ConformanceEngine engine = ConformanceEngine::kModel;
  /// For trajectory-local failures: the 1-based oracle-callback ordinal at
  /// which the violation was first observed (0 when not applicable).
  std::uint64_t event = 0;
  std::string detail;
};

struct ConformanceReport {
  std::vector<Divergence> divergences;
  /// Engines x checks actually executed (for coverage accounting).
  int checks_run = 0;

  [[nodiscard]] bool ok() const noexcept { return divergences.empty(); }
  /// One line per divergence, for logs and assertion messages.
  [[nodiscard]] std::string summary() const;
};

struct ConformanceOptions {
  /// Reachable-set + model-checker ground truth is built only when the
  /// population is at most this large (the exact check is exponential).
  std::uint32_t ground_truth_max_n = 10;
  /// Exploration cap; incomplete explorations disable ground truth for the
  /// case instead of failing it.
  std::size_t ground_truth_max_configs = 200'000;
  /// Stop collecting divergences after this many.
  std::size_t max_divergences = 8;
  /// The exact-distribution net runs only when the population is at most
  /// this large (the lumped chain must be enumerable and the CDF stepped).
  std::uint32_t exact_max_n = 10;
  /// Orbit cap for the lumped analysis backing the exact-distribution net;
  /// a case whose symmetry-lumped configuration space exceeds it skips the
  /// net (like an incomplete ground-truth exploration) instead of failing.
  std::size_t exact_max_orbits = 10'000;
  /// Stabilization-time samples (and the exact CDF they are tested
  /// against) are censored at min(budget, exact_max_horizon): the censored
  /// laws still match exactly, and the cap bounds the CDF stepping work.
  std::uint64_t exact_max_horizon = 20'000;
};

/// Runs every conformance net on one case.  Deterministic: the verdict is a
/// pure function of (c, options).
[[nodiscard]] ConformanceReport check_conformance(
    const ConformanceCase& c, const ConformanceOptions& options = {});

// ---------------------------------------------------------------------------
// Shrinking and repro files

/// A shrunken, replayable failure.
struct ConformanceRepro {
  ConformanceCase shrunk{};
  ConformanceCheck check = ConformanceCheck::kTrajectory;
  ConformanceEngine engine = ConformanceEngine::kModel;
  /// For trajectory-local checks (kLemma1 / kGroundTruth): a minimized
  /// explicit interaction schedule (initiator, responder agent indices)
  /// that reproduces the violation through the reference interpreter.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> schedule{};
  std::string detail;
  /// Corpus semantics: true = replay must pass (a fixed bug's regression
  /// guard), false = replay must still diverge (a detector-sensitivity pin,
  /// e.g. the committed mutation repro).
  bool expect_pass = false;
};

/// Deterministically shrinks a failing case: minimize n, then k, then -- for
/// trajectory-local checks -- derive and minimize an explicit interaction
/// schedule.  Reruns the checks at every step; the result still fails.
[[nodiscard]] ConformanceRepro shrink_failure(
    const ConformanceCase& failing, const Divergence& divergence,
    const ConformanceOptions& options = {});

/// Repro file text (ppk-conformance-repro-v1, line oriented, `#` comments).
[[nodiscard]] std::string serialize_repro(const ConformanceRepro& repro);

/// Parses serialize_repro output; on failure returns nullopt and, when
/// `error` is non-null, a one-line reason.
[[nodiscard]] std::optional<ConformanceRepro> parse_repro(
    const std::string& text, std::string* error = nullptr);

/// Replays a repro: schedule repros run the reference interpreter over the
/// recorded pairs; case repros rerun check_conformance restricted to the
/// recorded engine (plus the agent reference).  The caller compares
/// report.ok() against repro.expect_pass.
[[nodiscard]] ConformanceReport replay_repro(
    const ConformanceRepro& repro, const ConformanceOptions& options = {});

// ---------------------------------------------------------------------------
// Fuzzing

struct FuzzOptions {
  std::uint64_t seed = 0;
  /// Number of random cases (ignored while `deadline_seconds` > 0 still has
  /// budget left; whichever limit is hit first stops the session).
  int num_cases = 16;
  /// Wall-clock bound in seconds; 0 = no time bound.
  double deadline_seconds = 0.0;
  /// Case-size knobs.
  std::uint32_t max_n = 36;
  pp::GroupId max_k = 6;
  int trials = 30;
  std::uint64_t kpartition_budget = 250'000;
  std::uint64_t candidate_budget = 30'000;
  /// Fraction of cases drawn from the 3-state symmetric candidate space
  /// (the protocol_search generators) instead of the named families
  /// (k-partition, weak k-partition, graph bipartition -- which share
  /// kpartition_budget).
  double candidate_fraction = 0.35;
  /// Optional cooperative-stop latch, polled between cases: when the
  /// pointee becomes true the in-flight case finishes normally and the
  /// session returns with whatever it has (conformance_fuzz wires SIGINT
  /// here so Ctrl-C flushes partial results instead of dying mid-case).
  const std::atomic<bool>* stop = nullptr;
  ConformanceOptions check{};
};

struct FuzzResult {
  int cases_run = 0;
  /// First divergence found, already shrunk; nullopt = session clean.
  std::optional<ConformanceRepro> failure{};
};

/// Runs random conformance cases until the case or time budget is spent or
/// a divergence is found (which is then shrunk).  Deterministic for a fixed
/// seed when deadline_seconds = 0.
[[nodiscard]] FuzzResult fuzz_conformance(const FuzzOptions& options);

// ---------------------------------------------------------------------------
// Mutation helper

/// Wraps a protocol with one flipped ordered transition (mirrored
/// swap-consistently), leaving states, groups and everything else intact.
/// The base protocol must outlive the wrapper.
class MutantProtocol final : public pp::Protocol {
 public:
  MutantProtocol(const pp::Protocol& base, const TableMutation& mutation)
      : base_(&base), mutation_(mutation) {}

  [[nodiscard]] std::string name() const override {
    return base_->name() + "+mutant";
  }
  [[nodiscard]] pp::StateId num_states() const override {
    return base_->num_states();
  }
  [[nodiscard]] pp::StateId initial_state() const override {
    return base_->initial_state();
  }
  [[nodiscard]] pp::Transition delta(pp::StateId p,
                                     pp::StateId q) const override {
    if (p == mutation_.p && q == mutation_.q) return mutation_.out;
    if (p == mutation_.q && q == mutation_.p) {
      return pp::Transition{mutation_.out.responder, mutation_.out.initiator};
    }
    return base_->delta(p, q);
  }
  [[nodiscard]] pp::GroupId group(pp::StateId s) const override {
    return base_->group(s);
  }
  [[nodiscard]] pp::GroupId num_groups() const override {
    return base_->num_groups();
  }
  [[nodiscard]] std::string state_name(pp::StateId s) const override {
    return base_->state_name(s);
  }

 private:
  const pp::Protocol* base_;
  TableMutation mutation_;
};

}  // namespace ppk::verify
