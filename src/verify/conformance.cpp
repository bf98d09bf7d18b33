#include "verify/conformance.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <set>
#include <sstream>

#include "core/graph_bipartition.hpp"
#include "core/invariants.hpp"
#include "core/kpartition.hpp"
#include "core/weak_kpartition.hpp"
#include "io/snapshot_io.hpp"
#include "pp/agent_simulator.hpp"
#include "pp/interaction_graph.hpp"
#include "pp/stability.hpp"
#include "pp/trial.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "verify/global_fairness.hpp"
#include "verify/lumped_markov.hpp"

namespace ppk::verify {

namespace {

// ---------------------------------------------------------------------------
// Rows and names

/// The topology a row's scheduler is restricted to.  kNone (no topology)
/// and kComplete realize the agent reference's process; the others are the
/// sparse rows.
enum class RowTopology : std::uint8_t {
  kNone,
  kComplete,
  kRing,
  kStar,
  kPath,
  kEr,
};

/// Everything the harness knows about one ConformanceEngine.
struct EngineRow {
  ConformanceEngine engine;
  /// Stable identifier used in logs and repro files.
  const char* name;
  /// The engine pp::with_engine() builds for the row; nullopt for the rows
  /// built directly (adversarial-eps1, churn-nofaults) and for kModel.
  std::optional<pp::Engine> plain;
  RowTopology topology;
  pp::BatchMode batch_mode;
  /// Per-step RNG consumption independent of budget boundaries, so a
  /// chunked run()+resume() is bit-identical to one unchunked run.  The
  /// aggregated engines (jump, batch) clamp geometric skips / batch lengths
  /// at the budget and only agree in law.  The live-edge engine skips like
  /// jump but *parks* a truncated run at the budget boundary instead of
  /// re-drawing it, so it is held to the bit-identical contract.
  bool pairwise;
  /// For a sparse live-edge row: the per-draw row it is distribution-pinned
  /// against (same topology, same conditional law).
  std::optional<ConformanceEngine> counterpart;
};

using CE = ConformanceEngine;
using pp::BatchMode;
using pp::Engine;
using Topo = RowTopology;

// Rows in all_conformance_engines() order; kModel (no engine) last.
constexpr EngineRow kRows[] = {
    {CE::kAgent, "agent", Engine::kAgentArray, Topo::kNone, BatchMode::kAuto,
     true, std::nullopt},
    {CE::kJump, "jump", Engine::kJump, Topo::kNone, BatchMode::kAuto, false,
     std::nullopt},
    {CE::kBatchAuto, "batch-auto", Engine::kBatch, Topo::kNone,
     BatchMode::kAuto, false, std::nullopt},
    {CE::kBatchForced, "batch-forced", Engine::kBatch, Topo::kNone,
     BatchMode::kForceBatch, false, std::nullopt},
    {CE::kThinForced, "thin-forced", Engine::kBatch, Topo::kNone,
     BatchMode::kForceThin, false, std::nullopt},
    {CE::kBatchSharded, "batch-sharded", Engine::kBatchSharded, Topo::kNone,
     BatchMode::kAuto, false, std::nullopt},
    {CE::kGraphComplete, "graph-complete", Engine::kGraph, Topo::kComplete,
     BatchMode::kAuto, true, std::nullopt},
    {CE::kAdversarialEps1, "adversarial-eps1", std::nullopt, Topo::kNone,
     BatchMode::kAuto, true, std::nullopt},
    {CE::kChurnNoFaults, "churn-nofaults", std::nullopt, Topo::kNone,
     BatchMode::kAuto, true, std::nullopt},
    {CE::kGraphRing, "graph-ring", Engine::kGraph, Topo::kRing,
     BatchMode::kAuto, true, std::nullopt},
    {CE::kGraphStar, "graph-star", Engine::kGraph, Topo::kStar,
     BatchMode::kAuto, true, std::nullopt},
    {CE::kGraphPath, "graph-path", Engine::kGraph, Topo::kPath,
     BatchMode::kAuto, true, std::nullopt},
    {CE::kGraphEr, "graph-er", Engine::kGraph, Topo::kEr, BatchMode::kAuto,
     true, std::nullopt},
    {CE::kLiveEdgeComplete, "live-edge-complete", Engine::kGraphJump,
     Topo::kComplete, BatchMode::kAuto, true, std::nullopt},
    {CE::kLiveEdgeRing, "live-edge-ring", Engine::kGraphJump, Topo::kRing,
     BatchMode::kAuto, true, CE::kGraphRing},
    {CE::kLiveEdgeStar, "live-edge-star", Engine::kGraphJump, Topo::kStar,
     BatchMode::kAuto, true, CE::kGraphStar},
    {CE::kLiveEdgePath, "live-edge-path", Engine::kGraphJump, Topo::kPath,
     BatchMode::kAuto, true, CE::kGraphPath},
    {CE::kLiveEdgeEr, "live-edge-er", Engine::kGraphJump, Topo::kEr,
     BatchMode::kAuto, true, CE::kGraphEr},
    {CE::kModel, "model", std::nullopt, Topo::kNone, BatchMode::kAuto, false,
     std::nullopt},
};

const EngineRow& row_of(ConformanceEngine engine) {
  for (const EngineRow& row : kRows) {
    if (row.engine == engine) return row;
  }
  PPK_ASSERT(false);
  return kRows[0];
}

/// True for the sparse-topology rows -- the engines whose scheduler is
/// restricted to a non-complete graph and therefore realizes a *different*
/// stochastic process than the agent reference.
bool is_sparse_topology(ConformanceEngine engine) {
  const RowTopology t = row_of(engine).topology;
  return t != RowTopology::kNone && t != RowTopology::kComplete;
}

struct CheckName {
  ConformanceCheck check;
  const char* name;
};

constexpr CheckName kCheckNames[] = {
    {ConformanceCheck::kTrajectory, "trajectory"},
    {ConformanceCheck::kChunkedResume, "chunked-resume"},
    {ConformanceCheck::kSnapshotResume, "snapshot-resume"},
    {ConformanceCheck::kDistribution, "distribution"},
    {ConformanceCheck::kLemma1, "lemma1"},
    {ConformanceCheck::kGroundTruth, "ground-truth"},
    {ConformanceCheck::kExactDistribution, "exact-distribution"},
};

// ---------------------------------------------------------------------------
// Reference models

/// Engine-independent semantics the trajectories are checked against.
struct Reference {
  /// Non-null for the k-partition family: enables the Lemma 1 invariant.
  const core::KPartitionProtocol* kpartition = nullptr;
  /// Non-null when the exact reachable set was built (small n): every
  /// oracle-visible configuration must be a member.
  const std::set<pp::Counts>* reachable = nullptr;
};

struct Violation {
  ConformanceCheck check;
  std::uint64_t event;
  std::string detail;
};

std::string counts_to_string(const pp::Counts& counts) {
  std::ostringstream out;
  out << '[';
  for (std::size_t s = 0; s < counts.size(); ++s) {
    if (s > 0) out << ' ';
    out << counts[s];
  }
  out << ']';
  return out.str();
}

/// Forwarding oracle that fingerprints the oracle-visible trajectory and
/// checks the reference models at every callback.  A violation forces
/// stable() so the run stops at the first bad event (which localizes the
/// failure for shrinking); the caller reads violation() afterwards.
class CheckingOracle final : public pp::StabilityOracle {
 public:
  CheckingOracle(pp::StabilityOracle& inner, const Reference& ref)
      : inner_(&inner), ref_(ref) {}

  void reset(const pp::Counts& counts) override {
    counts_ = counts;
    inner_->reset(counts);
    check_counts();
  }

  void on_transition(pp::StateId p, pp::StateId q, pp::StateId p_next,
                     pp::StateId q_next) override {
    --counts_[p];
    --counts_[q];
    ++counts_[p_next];
    ++counts_[q_next];
    ++events_;
    mix(1);
    mix(p);
    mix(q);
    mix(p_next);
    mix(q_next);
    inner_->on_transition(p, q, p_next, q_next);
    check_counts();
  }

  void on_batch(const pp::Counts& counts, std::uint64_t interactions,
                std::uint64_t effective) override {
    counts_ = counts;
    ++events_;
    mix(2);
    mix(interactions);
    mix(effective);
    for (auto c : counts) mix(c);
    inner_->on_batch(counts, interactions, effective);
    check_counts();
  }

  void on_external_change(const pp::Counts& counts) override {
    counts_ = counts;
    inner_->on_external_change(counts);
  }

  [[nodiscard]] bool stable() const override {
    return violation_.has_value() || inner_->stable();
  }

  /// FNV-1a accumulator over every oracle-visible event.
  [[nodiscard]] std::uint64_t fingerprint() const noexcept { return hash_; }

  /// 1-based ordinal of the last callback.
  [[nodiscard]] std::uint64_t events() const noexcept { return events_; }

  /// Oracle-tracked configuration (must equal the engine's own).
  [[nodiscard]] const pp::Counts& tracked_counts() const noexcept {
    return counts_;
  }

  [[nodiscard]] const std::optional<Violation>& violation() const noexcept {
    return violation_;
  }

  /// Continues a fingerprint stream across a snapshot/restore boundary:
  /// seeds the accumulator, event ordinal and tracked configuration from
  /// the pre-snapshot oracle so the resumed half's fingerprint is directly
  /// comparable against an uninterrupted run's.
  void adopt(std::uint64_t hash, std::uint64_t events, pp::Counts counts) {
    hash_ = hash;
    events_ = events;
    counts_ = std::move(counts);
  }

 private:
  void mix(std::uint64_t v) noexcept {
    hash_ ^= v + 0x9e3779b97f4a7c15ULL;
    hash_ *= 0x100000001b3ULL;
  }

  void check_counts() {
    if (violation_.has_value()) return;
    if (ref_.kpartition != nullptr &&
        !core::lemma1_holds(*ref_.kpartition, counts_)) {
      violation_ = Violation{ConformanceCheck::kLemma1, events_,
                             "Lemma 1 counting invariant violated at " +
                                 counts_to_string(counts_)};
      return;
    }
    if (ref_.reachable != nullptr && !ref_.reachable->contains(counts_)) {
      violation_ = Violation{
          ConformanceCheck::kGroundTruth, events_,
          "configuration " + counts_to_string(counts_) +
              " is not reachable under the reference transition function"};
    }
  }

  pp::StabilityOracle* inner_;
  Reference ref_;
  pp::Counts counts_;
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
  std::uint64_t events_ = 0;
  std::optional<Violation> violation_;
};

// ---------------------------------------------------------------------------
// Materialized case context

struct CaseContext {
  std::unique_ptr<core::KPartitionProtocol> kpartition;  // family-dependent
  std::unique_ptr<core::WeakKPartitionProtocol> weak;
  std::unique_ptr<core::GraphBipartitionProtocol> graphbip;
  std::unique_ptr<EnumeratedProtocol> candidate;
  const pp::Protocol* true_protocol = nullptr;
  std::unique_ptr<MutantProtocol> mutant;       // set iff case has mutation
  const pp::Protocol* engine_protocol = nullptr;  // what engines execute
  std::unique_ptr<pp::TransitionTable> engine_table;
  pp::Counts initial;
  std::uint32_t n = 0;
  /// Seed for the G(n, p) topology rows, derived from the case seed only --
  /// never from an engine or trial stream -- so a live-edge row and its
  /// per-draw counterpart run the *same* sampled graph.
  std::uint64_t topology_seed = 0;
};

CaseContext materialize(const ConformanceCase& c) {
  CaseContext ctx;
  switch (c.protocol.family) {
    case ConformanceProtocol::Family::kKPartition:
      ctx.kpartition =
          std::make_unique<core::KPartitionProtocol>(c.protocol.k);
      ctx.true_protocol = ctx.kpartition.get();
      break;
    case ConformanceProtocol::Family::kWeakKPartition:
      ctx.weak = std::make_unique<core::WeakKPartitionProtocol>(c.protocol.k);
      ctx.true_protocol = ctx.weak.get();
      break;
    case ConformanceProtocol::Family::kGraphBipartition:
      ctx.graphbip = std::make_unique<core::GraphBipartitionProtocol>();
      ctx.true_protocol = ctx.graphbip.get();
      break;
    case ConformanceProtocol::Family::kCandidate:
      ctx.candidate =
          std::make_unique<EnumeratedProtocol>(c.protocol.candidate);
      ctx.true_protocol = ctx.candidate.get();
      break;
  }
  ctx.engine_protocol = ctx.true_protocol;
  if (c.mutation.has_value()) {
    PPK_EXPECTS(c.mutation->p < ctx.true_protocol->num_states() &&
                c.mutation->q < ctx.true_protocol->num_states() &&
                c.mutation->out.initiator < ctx.true_protocol->num_states() &&
                c.mutation->out.responder < ctx.true_protocol->num_states());
    ctx.mutant =
        std::make_unique<MutantProtocol>(*ctx.true_protocol, *c.mutation);
    ctx.engine_protocol = ctx.mutant.get();
  }
  ctx.engine_table = std::make_unique<pp::TransitionTable>(*ctx.engine_protocol);
  ctx.n = c.n;
  ctx.initial.assign(ctx.true_protocol->num_states(), 0);
  ctx.initial[ctx.true_protocol->initial_state()] = c.n;
  ctx.topology_seed = derive_stream_seed(c.seed, 0x746f'706fULL);  // "topo"
  return ctx;
}

pp::InteractionGraph topology_for(RowTopology topology,
                                  const CaseContext& ctx) {
  switch (topology) {
    case RowTopology::kRing: return pp::InteractionGraph::ring(ctx.n);
    case RowTopology::kStar: return pp::InteractionGraph::star(ctx.n);
    case RowTopology::kPath: return pp::InteractionGraph::path(ctx.n);
    case RowTopology::kEr:
      // Dense enough that every n >= 3 connects within the resample bound.
      return pp::InteractionGraph::erdos_renyi(ctx.n, 0.5, ctx.topology_seed);
    case RowTopology::kNone:
    case RowTopology::kComplete: break;
  }
  return pp::InteractionGraph::complete(ctx.n);
}

enum class OracleKind { kStabilization, kQuiescence };

std::unique_ptr<pp::StabilityOracle> make_oracle(const CaseContext& ctx,
                                                 OracleKind kind) {
  if (kind == OracleKind::kQuiescence) {
    return std::make_unique<pp::QuiescenceOracle>(
        make_quiescence_oracle(*ctx.engine_protocol, 200));
  }
  if (ctx.kpartition != nullptr) {
    return core::stable_pattern_oracle(*ctx.kpartition, ctx.n);
  }
  if (ctx.graphbip != nullptr) {
    return core::graph_bipartition_stable_oracle(*ctx.graphbip, ctx.n);
  }
  // Weak k-partition and candidates: silence is the stopping rule.
  return std::make_unique<pp::SilenceOracle>(*ctx.engine_table);
}

struct TrialRun {
  pp::SimResult result;
  pp::Counts final_counts;
  std::uint64_t fingerprint = 0;
  std::optional<Violation> violation;
  bool counts_consistent = true;  // engine state == oracle-tracked state
};

/// Constructs the simulator a conformance row denotes (fresh engine, RNG
/// stream from `seed`) and invokes `fn` on it.  Shared by the trial driver
/// and the snapshot net: the latter must rebuild a *new* engine with
/// constructor arguments identical to the snapshotted one's, and routing
/// both through one visitor makes that equality structural.  Rows that
/// denote a pp::Engine are built by pp::with_engine() -- the factory the
/// Monte-Carlo and campaign runners use -- so the nets test the engines
/// exactly as the drivers construct them.
template <typename Fn>
void with_engine(ConformanceEngine engine, const CaseContext& ctx,
                 std::uint64_t seed, Fn&& fn) {
  const pp::TransitionTable& table = *ctx.engine_table;
  const EngineRow& row = row_of(engine);
  if (row.plain) {
    pp::MonteCarloOptions mc;
    mc.engine = *row.plain;
    // Two workers with the parallel grain forced to zero (below): every
    // sharded batch takes the pool-dispatched path, so the conformance nets
    // exercise exactly the machinery whose determinism the engine claims.
    mc.engine_threads = 2;
    if (row.topology != RowTopology::kNone) {
      mc.graph = [&](std::uint64_t) {
        return topology_for(row.topology, ctx);
      };
    }
    pp::with_engine(ctx.engine_protocol, table, ctx.initial, mc, seed,
                    nullptr, nullptr, [&](auto& sim) {
                      if constexpr (requires {
                                      sim.set_batch_mode(row.batch_mode);
                                    }) {
                        sim.set_batch_mode(row.batch_mode);
                      }
                      if constexpr (requires { sim.set_parallel_grain(0); }) {
                        sim.set_parallel_grain(0);
                      }
                      fn(sim);
                    });
    return;
  }
  if (engine == ConformanceEngine::kAdversarialEps1) {
    pp::AgentSimulator sim(*ctx.engine_protocol, table,
                           pp::Population(ctx.initial),
                           pp::FairnessSpec::epsilon_fair(1.0), seed);
    fn(sim);
    return;
  }
  PPK_ASSERT(engine == ConformanceEngine::kChurnNoFaults);  // kModel: no engine
  pp::AgentSimulator sim(table, pp::Population(ctx.initial), seed, {});
  fn(sim);
}

/// Runs one trial of `engine` with the given seed; chunk = 0 runs the whole
/// budget in one grant, otherwise the budget is granted `chunk` pairs at a
/// time through run()+resume().
TrialRun run_engine_trial(ConformanceEngine engine, const CaseContext& ctx,
                          const Reference& ref, std::uint64_t seed,
                          OracleKind oracle_kind, std::uint64_t budget,
                          std::uint64_t chunk) {
  auto base_oracle = make_oracle(ctx, oracle_kind);
  CheckingOracle oracle(*base_oracle, ref);

  TrialRun run;
  with_engine(engine, ctx, seed, [&](auto& sim) {
    pp::TrialResult total;
    // An engine that returns short of its grant without stabilizing has
    // stalled (zero live edges / silence): drive_trial() stops there.
    const pp::TrialEnd end = pp::drive_trial(
        sim, oracle, {budget, chunk == 0 ? budget : chunk, std::nullopt},
        &total);
    run.result = {total.interactions, total.effective,
                  end == pp::TrialEnd::kStabilized};
    run.final_counts = sim.counts();
  });
  run.fingerprint = oracle.fingerprint();
  run.violation = oracle.violation();
  run.counts_consistent = run.final_counts == oracle.tracked_counts();
  return run;
}

std::uint64_t trial_seed(const ConformanceCase& c, ConformanceEngine engine,
                         std::uint64_t purpose, std::uint64_t trial) {
  const std::uint64_t stream =
      (purpose << 8) | static_cast<std::uint64_t>(engine);
  return derive_stream_seed(derive_stream_seed(c.seed, stream), trial);
}

// Purpose tags for trial_seed (distinct RNG stream families).
constexpr std::uint64_t kPurposeTrajectory = 1;
constexpr std::uint64_t kPurposeChunked = 2;
constexpr std::uint64_t kPurposeDistribution = 3;
constexpr std::uint64_t kPurposeConfirm = 4;
constexpr std::uint64_t kPurposeSnapshot = 5;
constexpr std::uint64_t kPurposeExact = 6;
constexpr std::uint64_t kPurposeExactConfirm = 7;

// ---------------------------------------------------------------------------
// Kolmogorov-Smirnov machinery (two-sample, tie-aware)

double ks_statistic(std::vector<double> a, std::vector<double> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  const auto na = static_cast<double>(a.size());
  const auto nb = static_cast<double>(b.size());
  double d = 0.0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    const double x = std::min(a[i], b[j]);
    while (i < a.size() && a[i] <= x) ++i;
    while (j < b.size() && b[j] <= x) ++j;
    d = std::max(d, std::abs(static_cast<double>(i) / na -
                             static_cast<double>(j) / nb));
  }
  return d;
}

/// Critical value at alpha = 0.001: c(alpha) * sqrt((m+n)/(mn)) with
/// c(0.001) = sqrt(-ln(0.0005) / 2) ~= 1.949.  The strict level plus the
/// confirm-on-fail rerun keeps a long fuzz session's family-wise false
/// positive rate negligible while a genuinely shifted distribution still
/// fails both rounds.
double ks_threshold(std::size_t m, std::size_t n) {
  const auto md = static_cast<double>(m);
  const auto nd = static_cast<double>(n);
  return 1.949 * std::sqrt((md + nd) / (md * nd));
}

/// One-sample KS distance between an integer-valued empirical sample
/// (censored at `censor`) and the exact discrete CDF `cdf` (cdf[t] =
/// P(T <= t); values at or beyond `censor` count as 1, matching the
/// censored law min(T, censor)).  `cdf` must cover every uncensored sample
/// value.  The sup of |F_emp - F| over two step functions is attained at
/// the sample's jump points, so only those are evaluated.
double ks_one_sample(std::vector<double> samples,
                     const std::vector<double>& cdf, std::uint64_t censor) {
  std::sort(samples.begin(), samples.end());
  const auto m = static_cast<double>(samples.size());
  const auto exact_at = [&](std::int64_t t) {
    if (t < 0) return 0.0;
    if (static_cast<std::uint64_t>(t) >= censor) return 1.0;
    return cdf[static_cast<std::size_t>(t)];
  };
  double d = 0.0;
  std::size_t i = 0;
  while (i < samples.size()) {
    const double x = samples[i];
    std::size_t j = i;
    while (j < samples.size() && samples[j] == x) ++j;
    const auto t = static_cast<std::int64_t>(x);
    d = std::max(d, std::abs(static_cast<double>(i) / m - exact_at(t - 1)));
    d = std::max(d, std::abs(static_cast<double>(j) / m - exact_at(t)));
    i = j;
  }
  return d;
}

/// One-sample critical value at alpha = 0.001: c(alpha) / sqrt(m) with the
/// same c(0.001) ~= 1.949 as the two-sample net (and the same
/// confirm-on-fail discipline keeping the family-wise rate negligible).
double ks_one_sample_threshold(std::size_t m) {
  return 1.949 / std::sqrt(static_cast<double>(m));
}

/// The count-level target predicate behind the engines' stabilization
/// oracles (make_oracle, OracleKind::kStabilization), evaluated against the
/// TRUE protocol: the exact net's reference must keep true semantics even
/// when the engines execute a mutated table.  Families only -- candidates
/// stop at silence of a table with no symmetry declared, which the exact
/// net does not model.
ConfigPredicate exact_target(const CaseContext& ctx,
                             const pp::TransitionTable& true_table) {
  if (ctx.kpartition != nullptr) {
    const core::KPartitionProtocol* protocol = ctx.kpartition.get();
    const std::uint32_t n = ctx.n;
    return [protocol, n](const pp::Counts& counts) {
      return core::matches_stable_pattern(*protocol, n, counts);
    };
  }
  if (ctx.graphbip != nullptr) {
    const std::uint32_t n = ctx.n;
    return [n](const pp::Counts& counts) {
      using P = core::GraphBipartitionProtocol;
      return counts[P::kInitial] == 0 &&
             counts[P::kRSig] + counts[P::kBSig] == n % 2u;
    };
  }
  // Weak k-partition: the stopping rule is silence; its count-level form
  // is "no present ordered pair is effective".
  const pp::TransitionTable* table = &true_table;
  return [table](const pp::Counts& counts) {
    for (std::size_t p = 0; p < counts.size(); ++p) {
      if (counts[p] == 0) continue;
      for (std::size_t q = 0; q < counts.size(); ++q) {
        if (counts[q] == 0) continue;
        if (p == q && counts[p] < 2) continue;
        if (table->effective(static_cast<pp::StateId>(p),
                             static_cast<pp::StateId>(q))) {
          return false;
        }
      }
    }
    return true;
  };
}

// ---------------------------------------------------------------------------
// check_conformance

void add_divergence(ConformanceReport* report,
                    const ConformanceOptions& options, Divergence d) {
  if (report->divergences.size() < options.max_divergences) {
    report->divergences.push_back(std::move(d));
  }
}

void add_violation(ConformanceReport* report,
                   const ConformanceOptions& options, ConformanceEngine engine,
                   const Violation& v) {
  add_divergence(report, options, Divergence{v.check, engine, v.event,
                                             v.detail});
}

/// Snapshot/restore net.  Drives the engine to a deterministic cut, round
/// -trips its snapshot through the text serialization, restores it into a
/// freshly constructed engine (same constructor arguments, via the shared
/// with_engine visitor) with a freshly constructed oracle rebuilt through
/// reset() + restore_state(), and resumes.  The resumed run must be bit
/// -identical -- trajectory fingerprint, final configuration, totals -- to
/// an uninterrupted engine driven with the same grant sequence (run(cut) +
/// resume(budget - cut)).  This holds for *every* engine, aggregated ones
/// included, because both sides see the same grant boundaries; it is the
/// contract the crash-safe campaign runner (core/campaign.hpp) rests on.
void check_snapshot_resume(const ConformanceCase& c, const CaseContext& ctx,
                           const Reference& ref, ConformanceEngine engine,
                           const ConformanceOptions& options,
                           ConformanceReport* report) {
  if (c.budget < 2) return;  // no interior cut exists
  const std::uint64_t seed = trial_seed(c, engine, kPurposeSnapshot, 0);
  // The cut is a pure function of the case seed, interior to the budget.
  const std::uint64_t cut =
      1 + derive_stream_seed(c.seed, 0x736e'6170ULL) % (c.budget - 1);

  // --- Uninterrupted baseline, same grant sequence as the restored run.
  // The quiescence oracle is deliberate: it carries mutable state (the
  // unchanged-streak counter) across the cut, so a save_state()/
  // restore_state() hole shows up as a divergence too.
  auto base_inner = make_oracle(ctx, OracleKind::kQuiescence);
  CheckingOracle base(*base_inner, ref);
  pp::SimResult base_total;
  pp::Counts base_counts;
  with_engine(engine, ctx, seed, [&](auto& sim) {
    base_total = sim.run(base, cut);
    if (!base_total.stabilized && base_total.interactions == cut) {
      const pp::SimResult r2 = sim.resume(base, c.budget - cut);
      base_total.interactions += r2.interactions;
      base_total.effective += r2.effective;
      base_total.stabilized = r2.stabilized;
    }
    base_counts = sim.counts();
  });

  // --- Interrupted run: identical first phase, then snapshot -> bytes ->
  // parse -> restore into a fresh engine -> resume.
  auto inner_a = make_oracle(ctx, OracleKind::kQuiescence);
  CheckingOracle oracle_a(*inner_a, ref);
  pp::SimResult first_phase;
  std::optional<pp::Snapshot> restored;
  std::string roundtrip_error;
  with_engine(engine, ctx, seed, [&](auto& sim) {
    first_phase = sim.run(oracle_a, cut);
    const std::string bytes = io::serialize_snapshot(sim.snapshot());
    restored = io::parse_snapshot(bytes, &roundtrip_error);
  });
  ++report->checks_run;
  if (!restored.has_value()) {
    add_divergence(
        report, options,
        Divergence{ConformanceCheck::kSnapshotResume, engine,
                   first_phase.interactions,
                   "snapshot failed to round-trip through its text "
                   "serialization: " +
                       roundtrip_error});
    return;
  }

  pp::SimResult total = first_phase;
  pp::Counts final_counts;
  std::uint64_t fingerprint = 0;
  with_engine(engine, ctx, seed, [&](auto& sim) {
    sim.restore(*restored);
    auto inner_b = make_oracle(ctx, OracleKind::kQuiescence);
    inner_b->reset(oracle_a.tracked_counts());
    inner_b->restore_state(inner_a->save_state());
    CheckingOracle oracle_b(*inner_b, ref);
    oracle_b.adopt(oracle_a.fingerprint(), oracle_a.events(),
                   oracle_a.tracked_counts());
    if (!first_phase.stabilized && first_phase.interactions == cut) {
      const pp::SimResult r2 = sim.resume(oracle_b, c.budget - cut);
      total.interactions += r2.interactions;
      total.effective += r2.effective;
      total.stabilized = r2.stabilized;
    }
    final_counts = sim.counts();
    fingerprint = oracle_b.fingerprint();
  });

  if (base.violation().has_value()) {
    add_violation(report, options, engine, *base.violation());
  }
  if (fingerprint != base.fingerprint() || final_counts != base_counts ||
      total.interactions != base_total.interactions ||
      total.effective != base_total.effective ||
      total.stabilized != base_total.stabilized) {
    std::ostringstream detail;
    detail << "restore()+resume() diverges from the uninterrupted run after "
           << "a snapshot at pair " << cut << " (baseline: "
           << base_total.interactions << " pairs, "
           << (base_total.stabilized ? "stable" : "unstable")
           << ", fingerprint " << base.fingerprint() << "; restored: "
           << total.interactions << " pairs, "
           << (total.stabilized ? "stable" : "unstable") << ", fingerprint "
           << fingerprint << ") -- snapshot() or restore() is losing engine "
           << "or oracle state";
    add_divergence(report, options,
                   Divergence{ConformanceCheck::kSnapshotResume, engine, cut,
                              detail.str()});
  }
}

struct DistributionSample {
  /// Stabilization time, censored at the budget: a trial that did not
  /// stabilize contributes `budget` whether the engine burned it drawing
  /// null pairs (agent, graph) or proved the dead end early and stopped
  /// (jump, live-edge) -- stall detection is an efficiency property, not a
  /// distributional one, and must not register as a KS shift.
  std::vector<double> interactions;
  std::vector<double> effective;
  std::optional<Violation> violation;  // first semantic violation seen
};

DistributionSample sample_engine(const ConformanceCase& c,
                                 const CaseContext& ctx, const Reference& ref,
                                 ConformanceEngine engine,
                                 std::uint64_t purpose, int trials) {
  DistributionSample sample;
  sample.interactions.reserve(static_cast<std::size_t>(trials));
  sample.effective.reserve(static_cast<std::size_t>(trials));
  for (int t = 0; t < trials; ++t) {
    const TrialRun run = run_engine_trial(
        engine, ctx, ref,
        trial_seed(c, engine, purpose, static_cast<std::uint64_t>(t)),
        OracleKind::kStabilization, c.budget, 0);
    if (run.violation.has_value() && !sample.violation.has_value()) {
      sample.violation = run.violation;
    }
    sample.interactions.push_back(static_cast<double>(
        run.result.stabilized ? run.result.interactions : c.budget));
    sample.effective.push_back(static_cast<double>(run.result.effective));
  }
  return sample;
}

/// KS-compares two engines' samples on both axes, with the confirm-on-fail
/// rerun; appends a kDistribution divergence attributed to `blamed` when a
/// shift survives confirmation.  `what` names the reference in the detail
/// line ("the agent reference", "the per-draw counterpart").
void compare_distributions(const ConformanceCase& c, const CaseContext& ctx,
                           const Reference& ref, ConformanceEngine reference,
                           ConformanceEngine blamed,
                           const DistributionSample& ref_sample,
                           const DistributionSample& blamed_sample,
                           const char* what, const ConformanceOptions& options,
                           ConformanceReport* report) {
  struct Axis {
    const char* name;
    std::vector<double> DistributionSample::* field;
  };
  constexpr Axis kAxes[] = {
      {"stabilization-time", &DistributionSample::interactions},
      {"effective-count", &DistributionSample::effective},
  };
  for (const Axis& axis : kAxes) {
    const std::vector<double>& a = ref_sample.*axis.field;
    const std::vector<double>& b = blamed_sample.*axis.field;
    const double d = ks_statistic(a, b);
    if (d < ks_threshold(a.size(), b.size())) continue;
    // Confirm on an independent stream with twice the trials before
    // declaring: a single KS exceedance at alpha = 0.001 can still be
    // sampling noise across a long fuzz campaign.
    const DistributionSample ref2 = sample_engine(
        c, ctx, ref, reference, kPurposeConfirm, 2 * c.trials);
    const DistributionSample blamed2 =
        sample_engine(c, ctx, ref, blamed, kPurposeConfirm, 2 * c.trials);
    const std::vector<double>& a2 = ref2.*axis.field;
    const std::vector<double>& b2 = blamed2.*axis.field;
    const double d2 = ks_statistic(a2, b2);
    const double threshold2 = ks_threshold(a2.size(), b2.size());
    if (d2 < threshold2) continue;
    std::ostringstream detail;
    detail << axis.name << " distribution diverges from " << what << ": KS D="
           << d << " (confirm D=" << d2 << " > " << threshold2
           << " at alpha=0.001, " << 2 * c.trials << " trials/side)";
    add_divergence(report, options,
                   Divergence{ConformanceCheck::kDistribution, blamed, 0,
                              detail.str()});
  }
}

/// The storage a Reference points into; it must outlive the Reference.
struct ReferenceStorage {
  std::set<pp::Counts> reachable;
  std::unique_ptr<pp::TransitionTable> true_table;
};

/// Builds the Reference (and its backing storage) for a case.  At
/// n <= ground_truth_max_n one exploration of the true protocol's
/// configuration graph gives the reachable set and, when `verdict` is
/// non-null, the model checker's global-fairness verdict on the same graph.
Reference build_reference(const CaseContext& ctx,
                          const ConformanceOptions& options,
                          ReferenceStorage* storage,
                          std::optional<Verdict>* verdict = nullptr) {
  Reference ref;
  ref.kpartition = ctx.kpartition.get();
  if (ctx.n <= options.ground_truth_max_n) {
    storage->true_table =
        std::make_unique<pp::TransitionTable>(*ctx.true_protocol);
    ExploreOptions explore;
    explore.max_configs = options.ground_truth_max_configs;
    const std::optional<LumpedMarkovAnalysis> graph =
        explore_configurations(*storage->true_table, ctx.initial, explore);
    if (graph.has_value()) {
      pp::Counts config;
      for (std::size_t i = 0; i < graph->num_orbits(); ++i) {
        const auto rep = graph->representative(i);
        config.assign(rep.begin(), rep.end());
        storage->reachable.insert(config);
      }
      ref.reachable = &storage->reachable;
      if (verdict != nullptr) {
        *verdict = verify_uniform_partition(*ctx.true_protocol,
                                            *storage->true_table, *graph);
      }
    }
  }
  return ref;
}

}  // namespace

const char* conformance_engine_name(ConformanceEngine engine) {
  for (const auto& row : kRows) {
    if (row.engine == engine) return row.name;
  }
  return "?";
}

std::optional<ConformanceEngine> conformance_engine_from_name(
    const std::string& name) {
  for (const auto& row : kRows) {
    if (name == row.name) return row.engine;
  }
  return std::nullopt;
}

const std::vector<ConformanceEngine>& all_conformance_engines() {
  static const std::vector<ConformanceEngine> kAll = [] {
    std::vector<ConformanceEngine> all;
    for (const auto& row : kRows) {
      if (row.engine != ConformanceEngine::kModel) all.push_back(row.engine);
    }
    return all;
  }();
  return kAll;
}

const char* conformance_check_name(ConformanceCheck check) {
  for (const auto& e : kCheckNames) {
    if (e.check == check) return e.name;
  }
  return "?";
}

std::optional<ConformanceCheck> conformance_check_from_name(
    const std::string& name) {
  for (const auto& e : kCheckNames) {
    if (name == e.name) return e.check;
  }
  return std::nullopt;
}

std::string ConformanceReport::summary() const {
  if (divergences.empty()) return "conformant";
  std::ostringstream out;
  for (const auto& d : divergences) {
    out << conformance_check_name(d.check) << '/'
        << conformance_engine_name(d.engine);
    if (d.event != 0) out << " @event " << d.event;
    out << ": " << d.detail << '\n';
  }
  return out.str();
}

ConformanceReport check_conformance(const ConformanceCase& c,
                                    const ConformanceOptions& options) {
  PPK_EXPECTS(c.n >= 3);
  PPK_EXPECTS(c.trials >= 4);
  PPK_EXPECTS(c.budget >= 1);

  const CaseContext ctx = materialize(c);
  ConformanceReport report;

  // --- Reference models --------------------------------------------------
  // Model checker ground truth.  Every named family promises uniform
  // partition under global fairness on the complete graph (the paper's
  // Theorem 1 for kpartition; the silence argument for the weak variant;
  // the signal-conservation argument for the graph bipartition): a
  // refutation means the protocol (or a mutation the caller injected into
  // the *reference*) is broken.  Candidates make no such promise and are
  // exempt.
  ReferenceStorage storage;
  std::optional<Verdict> verdict;
  const Reference ref = build_reference(
      ctx, options, &storage, ctx.candidate == nullptr ? &verdict : nullptr);
  std::unique_ptr<pp::TransitionTable>& true_table = storage.true_table;
  if (verdict.has_value()) {
    ++report.checks_run;
    if (!verdict->solves) {
      add_divergence(&report, options,
                     Divergence{ConformanceCheck::kGroundTruth,
                                ConformanceEngine::kModel, 0,
                                "model checker refutes the family's "
                                "correctness theorem at n=" +
                                    std::to_string(c.n) + ": " +
                                    verdict->failure});
    }
  }

  const std::vector<ConformanceEngine>& engines =
      c.engines.empty() ? all_conformance_engines() : c.engines;

  // --- Per-engine trajectory nets -----------------------------------------
  for (const ConformanceEngine engine : engines) {
    const std::uint64_t seed = trial_seed(c, engine, kPurposeTrajectory, 0);

    const TrialRun first =
        run_engine_trial(engine, ctx, ref, seed, OracleKind::kStabilization,
                         c.budget, 0);
    const TrialRun second =
        run_engine_trial(engine, ctx, ref, seed, OracleKind::kStabilization,
                         c.budget, 0);
    ++report.checks_run;
    if (first.fingerprint != second.fingerprint ||
        first.final_counts != second.final_counts ||
        first.result.interactions != second.result.interactions) {
      add_divergence(&report, options,
                     Divergence{ConformanceCheck::kTrajectory, engine, 0,
                                "same seed produced different trajectories "
                                "(engine is not deterministic)"});
    }
    if (!first.counts_consistent) {
      add_divergence(
          &report, options,
          Divergence{ConformanceCheck::kTrajectory, engine, first.result.effective,
                     "oracle-visible transitions do not reproduce the "
                     "engine's final configuration " +
                         counts_to_string(first.final_counts) +
                         " (oracle callback discipline broken)"});
    }
    if (first.violation.has_value()) {
      add_violation(&report, options, engine, *first.violation);
    }
    // Stabilized k-partition runs must land exactly on the Lemma 4-6
    // pattern of the *true* protocol.
    if (ctx.kpartition != nullptr && first.result.stabilized &&
        !first.violation.has_value() &&
        !core::matches_stable_pattern(*ctx.kpartition, c.n,
                                      first.final_counts)) {
      add_divergence(&report, options,
                     Divergence{ConformanceCheck::kGroundTruth, engine,
                                first.result.effective,
                                "stabilized on " +
                                    counts_to_string(first.final_counts) +
                                    ", which is not the Lemma 4-6 pattern"});
    }
    // The weak and graph-bipartition families promise a *uniform* output
    // partition at every stabilized configuration (silence resp. the
    // count-pattern), judged by the true protocol's output map.
    if ((ctx.weak != nullptr || ctx.graphbip != nullptr) &&
        first.result.stabilized && !first.violation.has_value()) {
      std::vector<std::uint32_t> sizes(ctx.true_protocol->num_groups(), 0);
      for (pp::StateId s = 0; s < ctx.true_protocol->num_states(); ++s) {
        sizes[ctx.true_protocol->group(s)] += first.final_counts[s];
      }
      if (!pp::is_uniform_partition(sizes)) {
        add_divergence(
            &report, options,
            Divergence{ConformanceCheck::kGroundTruth, engine,
                       first.result.effective,
                       "stabilized on " +
                           counts_to_string(first.final_counts) +
                           ", whose output partition is not uniform"});
      }
    }

    // Chunked run()+resume() must be bit-identical for pairwise engines.
    if (row_of(engine).pairwise) {
      const std::uint64_t chunk_seed =
          trial_seed(c, engine, kPurposeChunked, 0);
      const TrialRun whole =
          run_engine_trial(engine, ctx, ref, chunk_seed,
                           OracleKind::kQuiescence, c.budget, 0);
      const TrialRun chunked =
          run_engine_trial(engine, ctx, ref, chunk_seed,
                           OracleKind::kQuiescence, c.budget, 64);
      ++report.checks_run;
      if (whole.fingerprint != chunked.fingerprint ||
          whole.result.interactions != chunked.result.interactions ||
          whole.result.stabilized != chunked.result.stabilized ||
          whole.final_counts != chunked.final_counts) {
        std::ostringstream detail;
        detail << "chunked run()+resume() diverges from the unchunked run "
               << "(whole: " << whole.result.interactions << " pairs, "
               << (whole.result.stabilized ? "stable" : "unstable")
               << "; chunked: " << chunked.result.interactions << " pairs, "
               << (chunked.result.stabilized ? "stable" : "unstable")
               << ") -- resume() is losing oracle or RNG state";
        add_divergence(&report, options,
                       Divergence{ConformanceCheck::kChunkedResume, engine, 0,
                                  detail.str()});
      }
    }

    // Snapshot -> serialize -> restore -> resume must be bit-identical to
    // the uninterrupted run for every engine (same grant boundaries on
    // both sides, so even the aggregated engines are held to it).
    check_snapshot_resume(c, ctx, ref, engine, options, &report);
    if (report.divergences.size() >= options.max_divergences) return report;
  }

  // --- Distribution net ----------------------------------------------------
  // Complete-graph engines against the agent reference.  Sparse-topology
  // rows realize a different stochastic process (the scheduler is
  // restricted to the graph) and are excluded here; they are pinned by the
  // sparse-pair net below instead.
  const bool has_agent =
      std::find(engines.begin(), engines.end(), ConformanceEngine::kAgent) !=
      engines.end();
  if (has_agent && engines.size() > 1) {
    const DistributionSample agent = sample_engine(
        c, ctx, ref, ConformanceEngine::kAgent, kPurposeDistribution,
        c.trials);
    if (agent.violation.has_value()) {
      add_violation(&report, options, ConformanceEngine::kAgent,
                    *agent.violation);
    }
    for (const ConformanceEngine engine : engines) {
      if (engine == ConformanceEngine::kAgent) continue;
      if (is_sparse_topology(engine)) continue;
      const DistributionSample xs = sample_engine(
          c, ctx, ref, engine, kPurposeDistribution, c.trials);
      ++report.checks_run;
      if (xs.violation.has_value()) {
        add_violation(&report, options, engine, *xs.violation);
        continue;
      }
      compare_distributions(c, ctx, ref, ConformanceEngine::kAgent, engine,
                            agent, xs, "the agent reference", options,
                            &report);
      if (report.divergences.size() >= options.max_divergences) return report;
    }
  }

  // --- Sparse-pair distribution net ----------------------------------------
  // Each live-edge row against its per-draw graph row on the *same*
  // graph: the exact geometric null-skip must realize the identical
  // conditional law, so stabilization times (censored at the budget) and
  // effective counts are KS-compared engine-to-engine.  The counterpart is
  // sampled directly -- it need not be in the case's engine list, which
  // keeps shrunken repros (restricted to agent + the diverging engine)
  // replayable.
  for (const ConformanceEngine engine : engines) {
    const auto counterpart = row_of(engine).counterpart;
    if (!counterpart.has_value()) continue;
    const DistributionSample per_draw = sample_engine(
        c, ctx, ref, *counterpart, kPurposeDistribution, c.trials);
    const DistributionSample live_edge =
        sample_engine(c, ctx, ref, engine, kPurposeDistribution, c.trials);
    ++report.checks_run;
    if (per_draw.violation.has_value()) {
      add_violation(&report, options, *counterpart, *per_draw.violation);
      continue;
    }
    if (live_edge.violation.has_value()) {
      add_violation(&report, options, engine, *live_edge.violation);
      continue;
    }
    compare_distributions(c, ctx, ref, *counterpart, engine, per_draw,
                          live_edge, "the per-draw counterpart", options,
                          &report);
    if (report.divergences.size() >= options.max_divergences) return report;
  }

  // --- Exact-distribution net ----------------------------------------------
  // Every complete-topology engine's stabilization-time sample against the
  // exact first-passage law of the true protocol's chain, computed by the
  // symmetry-lumped Markov analysis.  The reference is absolute -- not
  // another engine -- so a bias shared by every engine, or a mutation the
  // engines execute while the reference keeps true semantics, fails here
  // even when the engines agree with each other.  Both sides are censored
  // at min(budget, exact_max_horizon); a case whose lumped orbit space
  // exceeds exact_max_orbits skips the net (like an incomplete ground-truth
  // exploration) rather than failing.
  if (ctx.candidate == nullptr && c.n <= options.exact_max_n) {
    if (true_table == nullptr) {
      true_table = std::make_unique<pp::TransitionTable>(*ctx.true_protocol);
    }
    const ConfigPredicate target = exact_target(ctx, *true_table);
    LumpedOptions lumped_options;
    lumped_options.max_orbits = options.exact_max_orbits;
    const std::optional<LumpedMarkovAnalysis> lumped =
        LumpedMarkovAnalysis::try_build(*true_table,
                                        ctx.true_protocol->symmetry(),
                                        ctx.initial, lumped_options);
    if (lumped.has_value()) {
      const std::uint64_t censor =
          std::min(c.budget, options.exact_max_horizon);
      // The CDF is stepped lazily, only as far as the largest sample seen:
      // stabilization times at these n are usually far below the censor
      // point, and re-stepping on the rare extension is cheaper than
      // always paying the full horizon.
      std::vector<double> cdf;
      std::uint64_t cdf_horizon = 0;
      const auto ensure_horizon = [&](std::uint64_t h) {
        if (!cdf.empty() && h <= cdf_horizon) return;
        cdf_horizon = h;
        cdf = lumped->hitting_time_cdf(target, h);
      };
      const auto censor_samples = [&](std::vector<double>* samples) {
        std::uint64_t max_sample = 0;
        for (double& s : *samples) {
          s = std::min(s, static_cast<double>(censor));
          max_sample = std::max(max_sample, static_cast<std::uint64_t>(s));
        }
        // A censored sample evaluates the exact CDF just below the censor
        // point; an uncensored one exactly at its value.
        ensure_horizon(std::min(max_sample, censor - 1));
      };
      for (const ConformanceEngine engine : engines) {
        if (is_sparse_topology(engine)) continue;
        DistributionSample sample =
            sample_engine(c, ctx, ref, engine, kPurposeExact, c.trials);
        ++report.checks_run;
        if (sample.violation.has_value()) {
          add_violation(&report, options, engine, *sample.violation);
          continue;
        }
        censor_samples(&sample.interactions);
        const double d = ks_one_sample(sample.interactions, cdf, censor);
        if (d < ks_one_sample_threshold(sample.interactions.size())) continue;
        // Confirm on an independent stream with twice the trials, exactly
        // like the engine-to-engine net.
        DistributionSample confirm = sample_engine(
            c, ctx, ref, engine, kPurposeExactConfirm, 2 * c.trials);
        if (confirm.violation.has_value()) {
          add_violation(&report, options, engine, *confirm.violation);
          continue;
        }
        censor_samples(&confirm.interactions);
        const double d2 = ks_one_sample(confirm.interactions, cdf, censor);
        const double threshold2 =
            ks_one_sample_threshold(confirm.interactions.size());
        if (d2 < threshold2) continue;
        std::ostringstream detail;
        detail << "stabilization-time sample diverges from the exact "
               << "first-passage law of the true protocol: KS D=" << d
               << " (confirm D=" << d2 << " > " << threshold2
               << " at alpha=0.001, " << 2 * c.trials
               << " trials; lumped chain: " << lumped->num_orbits()
               << " orbits over " << lumped->raw_config_count()
               << " configurations, censored at " << censor << " pairs)";
        add_divergence(&report, options,
                       Divergence{ConformanceCheck::kExactDistribution,
                                  engine, 0, detail.str()});
        if (report.divergences.size() >= options.max_divergences) {
          return report;
        }
      }
    }
  }

  return report;
}

// ---------------------------------------------------------------------------
// Reference interpreter (schedule derivation + replay)

namespace {

struct InterpreterResult {
  /// 0-based index of the first pair whose application (or whose resulting
  /// configuration) violates the reference; nullopt = clean.
  std::optional<std::uint64_t> violating_index;
  std::string detail;
  /// Pairs actually drawn (sampling mode only; capped).
  std::vector<std::pair<std::uint32_t, std::uint32_t>> drawn;
  /// effective[i] = pair i changed some agent (replay/sampling alike).
  std::vector<bool> effective;
};

/// Drives the engine table over an explicit schedule (or, when `schedule`
/// is null, pairs sampled from `seed`), checking the reference after every
/// effective application.  This is deliberately the dumbest possible
/// executor -- no engine code on this path, so a repro's verdict cannot
/// depend on the engine under suspicion.
InterpreterResult interpret(
    const CaseContext& ctx, const Reference& ref,
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>* schedule,
    std::uint64_t seed, std::uint64_t budget, std::uint64_t capture_cap) {
  InterpreterResult out;
  pp::Population population(ctx.n, ctx.true_protocol->num_states(),
                            ctx.true_protocol->initial_state());
  Xoshiro256 rng(seed);
  const std::uint64_t limit =
      schedule != nullptr ? schedule->size() : budget;
  for (std::uint64_t index = 0; index < limit; ++index) {
    std::uint32_t i = 0;
    std::uint32_t j = 0;
    if (schedule != nullptr) {
      i = (*schedule)[index].first;
      j = (*schedule)[index].second;
      if (i >= ctx.n || j >= ctx.n || i == j) {
        out.violating_index = index;
        out.detail = "malformed schedule pair";
        return out;
      }
    } else {
      i = static_cast<std::uint32_t>(rng.below(ctx.n));
      j = static_cast<std::uint32_t>(rng.below(ctx.n - 1));
      if (j >= i) ++j;
      if (out.drawn.size() < capture_cap) out.drawn.emplace_back(i, j);
    }
    const pp::StateId p = population.state_of(i);
    const pp::StateId q = population.state_of(j);
    const bool effective = ctx.engine_table->effective(p, q);
    out.effective.push_back(effective);
    if (!effective) continue;
    population.apply(i, j, ctx.engine_table->apply(p, q));
    if (ref.kpartition != nullptr &&
        !core::lemma1_holds(*ref.kpartition, population.counts())) {
      out.violating_index = index;
      out.detail = "Lemma 1 counting invariant violated at " +
                   counts_to_string(population.counts());
      return out;
    }
    if (ref.reachable != nullptr &&
        !ref.reachable->contains(population.counts())) {
      out.violating_index = index;
      out.detail = "configuration " + counts_to_string(population.counts()) +
                   " is not reachable under the reference transition function";
      return out;
    }
  }
  return out;
}

bool schedule_still_fails(
    const CaseContext& ctx, const Reference& ref,
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& schedule) {
  const InterpreterResult r = interpret(ctx, ref, &schedule, 0, 0, 0);
  return r.violating_index.has_value();
}

std::uint32_t min_population(const ConformanceCase& c) {
  if (c.protocol.family == ConformanceProtocol::Family::kKPartition) {
    // The paper assumes n >= 3; below k the stable pattern still exists but
    // engines and oracles are exercised far from the intended regime.
    return std::max<std::uint32_t>(3, c.protocol.k);
  }
  return 3;
}

/// Reruns the failing check class on a candidate case (restricted to the
/// originally diverging engine plus the agent reference) and reports
/// whether the same class of divergence persists.
bool case_still_fails(const ConformanceCase& c, ConformanceCheck check,
                      const ConformanceOptions& options) {
  const ConformanceReport report = check_conformance(c, options);
  for (const auto& d : report.divergences) {
    if (d.check == check) return true;
  }
  return false;
}

}  // namespace

ConformanceRepro shrink_failure(const ConformanceCase& failing,
                                const Divergence& divergence,
                                const ConformanceOptions& options) {
  ConformanceRepro repro;
  repro.check = divergence.check;
  repro.engine = divergence.engine;
  repro.detail = divergence.detail;
  repro.shrunk = failing;
  // Restrict to the diverging engine plus the agent reference (the
  // distribution net needs agent; the others only speed up).
  repro.shrunk.engines.clear();
  repro.shrunk.engines.push_back(ConformanceEngine::kAgent);
  if (divergence.engine != ConformanceEngine::kAgent &&
      divergence.engine != ConformanceEngine::kModel) {
    repro.shrunk.engines.push_back(divergence.engine);
  }

  // --- Minimize n ---------------------------------------------------------
  // Halving descent (cheap on big n), then an ascending scan over the last
  // interval pins the true minimum.  Every probe is a deterministic rerun.
  {
    const std::uint32_t lo = min_population(repro.shrunk);
    std::uint32_t best = repro.shrunk.n;
    std::uint32_t floor_known_good = lo;  // nothing known below lo
    while (best > lo) {
      const std::uint32_t half = std::max(lo, floor_known_good +
                                                  (best - floor_known_good) / 2);
      if (half == best) break;
      ConformanceCase probe = repro.shrunk;
      probe.n = half;
      if (case_still_fails(probe, repro.check, options)) {
        best = half;
      } else {
        if (half == floor_known_good) break;
        floor_known_good = half;
      }
      if (best - floor_known_good <= 1) break;
    }
    // Ascending scan between the last known-good and the best failing n.
    for (std::uint32_t n = std::max(lo, floor_known_good); n < best; ++n) {
      ConformanceCase probe = repro.shrunk;
      probe.n = n;
      if (case_still_fails(probe, repro.check, options)) {
        best = n;
        break;
      }
    }
    repro.shrunk.n = best;
  }

  // --- Minimize k (the k-parameterized families) ---------------------------
  if (repro.shrunk.protocol.family ==
          ConformanceProtocol::Family::kKPartition ||
      repro.shrunk.protocol.family ==
          ConformanceProtocol::Family::kWeakKPartition) {
    const bool weak = repro.shrunk.protocol.family ==
                      ConformanceProtocol::Family::kWeakKPartition;
    for (pp::GroupId k = 2; k < repro.shrunk.protocol.k; ++k) {
      const auto num_states =
          static_cast<pp::StateId>(weak ? 3 * k + 1 : 3 * k - 2);
      if (repro.shrunk.mutation.has_value() &&
          (repro.shrunk.mutation->p >= num_states ||
           repro.shrunk.mutation->q >= num_states ||
           repro.shrunk.mutation->out.initiator >= num_states ||
           repro.shrunk.mutation->out.responder >= num_states)) {
        continue;  // mutation references states this k does not have
      }
      ConformanceCase probe = repro.shrunk;
      probe.protocol.k = k;
      probe.n = std::max(probe.n, std::max<std::uint32_t>(3, k));
      if (case_still_fails(probe, repro.check, options)) {
        repro.shrunk.protocol.k = k;
        repro.shrunk.n = probe.n;
        break;
      }
    }
  }

  // --- Minimize the schedule prefix (trajectory-local checks) -------------
  if (repro.check == ConformanceCheck::kLemma1 ||
      repro.check == ConformanceCheck::kGroundTruth) {
    const CaseContext ctx = materialize(repro.shrunk);
    ReferenceStorage storage;
    const Reference ref = build_reference(ctx, options, &storage);
    constexpr std::uint64_t kCaptureCap = 1u << 20;
    const InterpreterResult probe =
        interpret(ctx, ref, nullptr,
                  derive_stream_seed(repro.shrunk.seed, 0xC0FFEE),
                  repro.shrunk.budget, kCaptureCap);
    if (probe.violating_index.has_value() &&
        *probe.violating_index < probe.drawn.size()) {
      // 1. Truncate at the violating pair.
      std::vector<std::pair<std::uint32_t, std::uint32_t>> schedule(
          probe.drawn.begin(),
          probe.drawn.begin() +
              static_cast<std::ptrdiff_t>(*probe.violating_index + 1));
      // 2. Null interactions cannot contribute; drop them.
      std::vector<std::pair<std::uint32_t, std::uint32_t>> dense;
      for (std::size_t i = 0; i < schedule.size(); ++i) {
        if (probe.effective[i]) dense.push_back(schedule[i]);
      }
      if (schedule_still_fails(ctx, ref, dense)) schedule = std::move(dense);
      // 3. Greedy one-at-a-time removal, newest first (bounded).
      if (schedule.size() <= 256) {
        for (std::size_t i = schedule.size(); i-- > 0;) {
          auto candidate = schedule;
          candidate.erase(candidate.begin() +
                          static_cast<std::ptrdiff_t>(i));
          if (schedule_still_fails(ctx, ref, candidate)) {
            schedule = std::move(candidate);
          }
        }
      }
      if (schedule_still_fails(ctx, ref, schedule)) {
        repro.schedule = std::move(schedule);
        const InterpreterResult final_run =
            interpret(ctx, ref, &repro.schedule, 0, 0, 0);
        repro.detail = final_run.detail;
      }
    }
  }

  return repro;
}

// ---------------------------------------------------------------------------
// Repro file IO

std::string serialize_repro(const ConformanceRepro& repro) {
  std::ostringstream out;
  out << "ppk-conformance-repro-v1\n";
  const ConformanceCase& c = repro.shrunk;
  switch (c.protocol.family) {
    case ConformanceProtocol::Family::kKPartition:
      out << "protocol kpartition " << c.protocol.k << '\n';
      break;
    case ConformanceProtocol::Family::kWeakKPartition:
      out << "protocol weak-kpartition " << c.protocol.k << '\n';
      break;
    case ConformanceProtocol::Family::kGraphBipartition:
      out << "protocol graph-bipartition\n";
      break;
    case ConformanceProtocol::Family::kCandidate:
      out << "protocol candidate " << int{c.protocol.candidate.num_states}
          << ' ' << c.protocol.candidate.delta_index << ' '
          << int{c.protocol.candidate.initial} << ' '
          << c.protocol.candidate.output_bits << '\n';
      break;
  }
  if (c.mutation.has_value()) {
    out << "mutation " << int{c.mutation->p} << ' ' << int{c.mutation->q}
        << ' ' << int{c.mutation->out.initiator} << ' '
        << int{c.mutation->out.responder} << '\n';
  }
  out << "n " << c.n << '\n';
  out << "seed " << c.seed << '\n';
  out << "trials " << c.trials << '\n';
  out << "budget " << c.budget << '\n';
  out << "engine " << conformance_engine_name(repro.engine) << '\n';
  out << "check " << conformance_check_name(repro.check) << '\n';
  if (!repro.schedule.empty()) {
    out << "schedule";
    for (const auto& [i, j] : repro.schedule) out << ' ' << i << '-' << j;
    out << '\n';
  }
  if (!repro.detail.empty()) {
    std::string one_line = repro.detail;
    std::replace(one_line.begin(), one_line.end(), '\n', ' ');
    out << "detail " << one_line << '\n';
  }
  out << "expect " << (repro.expect_pass ? "pass" : "fail") << '\n';
  return out.str();
}

std::optional<ConformanceRepro> parse_repro(const std::string& text,
                                            std::string* error) {
  auto fail = [&](const std::string& why) -> std::optional<ConformanceRepro> {
    if (error != nullptr) *error = why;
    return std::nullopt;
  };
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != "ppk-conformance-repro-v1") {
    return fail("missing ppk-conformance-repro-v1 header");
  }
  ConformanceRepro repro;
  bool saw_protocol = false;
  bool saw_engine = false;
  bool saw_check = false;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    if (key == "protocol") {
      std::string family;
      fields >> family;
      if (family == "kpartition" || family == "weak-kpartition") {
        repro.shrunk.protocol.family =
            family == "kpartition"
                ? ConformanceProtocol::Family::kKPartition
                : ConformanceProtocol::Family::kWeakKPartition;
        unsigned k = 0;
        if (!(fields >> k) || k < 2) return fail("bad kpartition k");
        repro.shrunk.protocol.k = static_cast<pp::GroupId>(k);
      } else if (family == "graph-bipartition") {
        repro.shrunk.protocol.family =
            ConformanceProtocol::Family::kGraphBipartition;
      } else if (family == "candidate") {
        repro.shrunk.protocol.family = ConformanceProtocol::Family::kCandidate;
        unsigned states = 0;
        unsigned initial = 0;
        CandidateSpec spec;
        if (!(fields >> states >> spec.delta_index >> initial >>
              spec.output_bits)) {
          return fail("bad candidate spec");
        }
        spec.num_states = static_cast<pp::StateId>(states);
        spec.initial = static_cast<pp::StateId>(initial);
        if (states < 2 || initial >= states ||
            spec.delta_index >= num_symmetric_deltas(spec.num_states) ||
            spec.output_bits < 1 || spec.output_bits + 1 >= (1u << states)) {
          return fail("candidate spec out of range");
        }
        repro.shrunk.protocol.candidate = spec;
      } else {
        return fail("unknown protocol family '" + family + "'");
      }
      saw_protocol = true;
    } else if (key == "mutation") {
      unsigned p = 0;
      unsigned q = 0;
      unsigned a = 0;
      unsigned b = 0;
      if (!(fields >> p >> q >> a >> b)) return fail("bad mutation");
      repro.shrunk.mutation =
          TableMutation{static_cast<pp::StateId>(p),
                        static_cast<pp::StateId>(q),
                        pp::Transition{static_cast<pp::StateId>(a),
                                       static_cast<pp::StateId>(b)}};
    } else if (key == "n") {
      if (!(fields >> repro.shrunk.n) || repro.shrunk.n < 3) {
        return fail("bad n");
      }
    } else if (key == "seed") {
      if (!(fields >> repro.shrunk.seed)) return fail("bad seed");
    } else if (key == "trials") {
      if (!(fields >> repro.shrunk.trials) || repro.shrunk.trials < 4) {
        return fail("bad trials");
      }
    } else if (key == "budget") {
      if (!(fields >> repro.shrunk.budget) || repro.shrunk.budget == 0) {
        return fail("bad budget");
      }
    } else if (key == "engine") {
      std::string name;
      fields >> name;
      const auto engine = conformance_engine_from_name(name);
      if (!engine.has_value()) return fail("unknown engine '" + name + "'");
      repro.engine = *engine;
      saw_engine = true;
    } else if (key == "check") {
      std::string name;
      fields >> name;
      const auto check = conformance_check_from_name(name);
      if (!check.has_value()) return fail("unknown check '" + name + "'");
      repro.check = *check;
      saw_check = true;
    } else if (key == "schedule") {
      std::string pair;
      while (fields >> pair) {
        const auto dash = pair.find('-');
        if (dash == std::string::npos) return fail("bad schedule pair");
        try {
          const unsigned long i = std::stoul(pair.substr(0, dash));
          const unsigned long j = std::stoul(pair.substr(dash + 1));
          repro.schedule.emplace_back(static_cast<std::uint32_t>(i),
                                      static_cast<std::uint32_t>(j));
        } catch (...) {
          return fail("bad schedule pair");
        }
      }
    } else if (key == "detail") {
      std::string rest;
      std::getline(fields, rest);
      if (!rest.empty() && rest.front() == ' ') rest.erase(0, 1);
      repro.detail = rest;
    } else if (key == "expect") {
      std::string what;
      fields >> what;
      if (what == "pass") {
        repro.expect_pass = true;
      } else if (what == "fail") {
        repro.expect_pass = false;
      } else {
        return fail("expect must be pass or fail");
      }
    } else {
      return fail("unknown key '" + key + "'");
    }
  }
  if (!saw_protocol) return fail("missing protocol line");
  if (!saw_engine) return fail("missing engine line");
  if (!saw_check) return fail("missing check line");
  return repro;
}

ConformanceReport replay_repro(const ConformanceRepro& repro,
                               const ConformanceOptions& options) {
  if (!repro.schedule.empty()) {
    const CaseContext ctx = materialize(repro.shrunk);
    ReferenceStorage storage;
    const Reference ref = build_reference(ctx, options, &storage);
    const InterpreterResult r =
        interpret(ctx, ref, &repro.schedule, 0, 0, 0);
    ConformanceReport report;
    report.checks_run = 1;
    if (r.violating_index.has_value()) {
      report.divergences.push_back(Divergence{
          repro.check, repro.engine, *r.violating_index + 1, r.detail});
    }
    return report;
  }
  ConformanceCase c = repro.shrunk;
  if (c.engines.empty()) {
    c.engines.push_back(ConformanceEngine::kAgent);
    if (repro.engine != ConformanceEngine::kAgent &&
        repro.engine != ConformanceEngine::kModel) {
      c.engines.push_back(repro.engine);
    }
  }
  return check_conformance(c, options);
}

// ---------------------------------------------------------------------------
// Fuzzing

FuzzResult fuzz_conformance(const FuzzOptions& options) {
  Xoshiro256 rng(options.seed);
  FuzzResult result;
  const auto start = std::chrono::steady_clock::now();
  auto out_of_time = [&] {
    if (options.deadline_seconds <= 0.0) return false;
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    return elapsed.count() >= options.deadline_seconds;
  };
  auto stop_requested = [&] {
    return options.stop != nullptr && options.stop->load();
  };

  for (int i = 0;
       (options.deadline_seconds > 0.0 || i < options.num_cases) &&
       !out_of_time() && !stop_requested();
       ++i) {
    ConformanceCase c;
    c.seed = rng();
    c.trials = options.trials;
    if (rng.uniform01() < options.candidate_fraction) {
      c.protocol.family = ConformanceProtocol::Family::kCandidate;
      CandidateSpec spec;
      spec.num_states = 3;
      spec.delta_index = rng.below(num_symmetric_deltas(3));
      spec.initial = static_cast<pp::StateId>(rng.below(3));
      spec.output_bits = static_cast<std::uint32_t>(1 + rng.below(6));
      c.protocol.candidate = spec;
      c.n = static_cast<std::uint32_t>(
          3 + rng.below(std::max<std::uint32_t>(1, options.max_n / 2 - 2)));
      c.budget = options.candidate_budget;
    } else {
      // Split the named-family mass: half the paper's protocol, a quarter
      // each for the weak-fairness and arbitrary-graph variants.
      const double which = rng.uniform01();
      if (which < 0.5) {
        c.protocol.family = ConformanceProtocol::Family::kKPartition;
      } else if (which < 0.75) {
        c.protocol.family = ConformanceProtocol::Family::kWeakKPartition;
      } else {
        c.protocol.family = ConformanceProtocol::Family::kGraphBipartition;
      }
      c.protocol.k = static_cast<pp::GroupId>(
          2 + rng.below(std::max<pp::GroupId>(1, options.max_k - 1)));
      const std::uint32_t lo = std::max<std::uint32_t>(3, c.protocol.k);
      c.n = static_cast<std::uint32_t>(
          lo + rng.below(std::max<std::uint32_t>(1, options.max_n - lo)));
      c.budget = options.kpartition_budget;
    }
    const ConformanceReport report = check_conformance(c, options.check);
    ++result.cases_run;
    if (!report.ok()) {
      result.failure =
          shrink_failure(c, report.divergences.front(), options.check);
      break;
    }
  }
  return result;
}

}  // namespace ppk::verify
