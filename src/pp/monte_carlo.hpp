// Repeated-trial driver: runs T independent simulations of a protocol and
// aggregates stabilization statistics, exactly as the paper's Section 5
// does ("we conduct a simulation 100 times and show the average values").
//
// Trials are deterministic functions of (master_seed, trial_index) -- stream
// seeds come from SplitMix64 -- so results are bit-reproducible regardless
// of how trials are spread over threads.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "pp/agent_simulator.hpp"
#include "pp/batch_simulator.hpp"
#include "pp/fairness.hpp"
#include "pp/batch_sharded_simulator.hpp"
#include "pp/graph_jump_simulator.hpp"
#include "pp/interaction_graph.hpp"
#include "pp/jump_simulator.hpp"
#include "pp/population.hpp"
#include "pp/protocol.hpp"
#include "pp/stability.hpp"
#include "pp/transition_table.hpp"

namespace ppk::obs {
class MetricsRegistry;
}  // namespace ppk::obs

namespace ppk::pp {

/// Which engine executes the trials.  kAuto picks per trial from the
/// population size, the requested instrumentation and whether a topology
/// is set (see resolve_engine(); docs/engines.md walks through the
/// policy).  kGraph (the agent array's per-draw topology rule) and
/// kGraphJump (live-edge skip-ahead; docs/topologies.md) require
/// MonteCarloOptions::graph.
enum class Engine {
  kAgentArray,
  kJump,
  kBatch,
  kBatchSharded,
  kGraph,
  kGraphJump,
  kAuto,
};

/// Stable name of an engine ("agent", "jump", "batch", "batch-sharded",
/// "graph", "graph-jump", "auto"): the spelling scenario specs and
/// command-line flags use.
[[nodiscard]] std::string_view engine_name(Engine engine) noexcept;

/// Inverse of engine_name(); nullopt on unknown names.
[[nodiscard]] std::optional<Engine> parse_engine(
    std::string_view name) noexcept;

/// Population size above which kAuto prefers kBatchSharded over kBatch:
/// the batch engine's log-factorial table stops at 2^20 agents, so past it
/// every hypergeometric draw pays live lgamma while the sharded engine's
/// shared-table + Stirling sampler keeps amortizing (docs/engines.md).
inline constexpr std::uint64_t kShardedCrossover = 1ULL << 20;

/// Population size from which kAuto prefers kJump over kAgentArray on the
/// complete graph.  At these sizes almost every drawn pair is null, and the
/// jump engine skips null runs in O(1) where the agent engine pays a full
/// draw per pair; the auto_crossover block of bench/batch_throughput
/// measures both engines to stabilization on either side of the constant
/// and gates it (docs/engines.md).  320 is the lowest grid n at which jump
/// is the faster engine at every point; at n = 256 Algorithm 1 with k = 16
/// (|Q| = 46) still runs faster on agent.
inline constexpr std::uint64_t kJumpCrossover = 320;

/// The engine kAuto resolves to for a population of n agents with (or
/// without) watch-mark instrumentation:
///  - a topology factory set: kGraphJump -- the live-edge engine records
///    exact watch marks and detects wedged configurations, so it strictly
///    dominates kGraph for unattended sweeps (pick kGraph explicitly for
///    per-drawn-pair observability).
///  - otherwise agent for small populations (n < kJumpCrossover, where
///    effective pairs are common enough that O(1) array steps beat the
///    jump engine's O(|Q|) per effective pair at large |Q|), then jump
///    (null pairs dominate and the jump engine skips them).  The rule sees
///    n only; below the constant the small-|Q| protocols would already be
///    faster on jump.  Watched runs stay on jump at every larger n: the
///    batch engines cannot record marks (aggregated draws have no
///    per-interaction indices).  Unwatched runs move on to batch from
///    n = 1024 (batching overhead beats per-pair engines only past that)
///    and to the sharded SoA batch engine past kShardedCrossover (where
///    the plain batch engine falls off its log-factorial table).
///    Protocols that keep a large share of draws effective (approximate
///    majority: ~26%, where agent is 1.4-1.8x faster at n = 320-1000)
///    should pick kAgentArray explicitly.
[[nodiscard]] Engine resolve_engine(Engine engine, std::uint64_t n,
                                    bool watch, bool graph = false);

/// Default per-trial interaction budget.  The most expensive configuration
/// in the paper's evaluation (n = 960, k = 8) stabilizes in ~7e8
/// interactions, so legitimate runs never come near this, yet a
/// non-stabilizing trial (e.g. a post-crash population whose stable pattern
/// is unreachable) terminates with stabilized = false instead of spinning
/// forever.  Pass UINT64_MAX explicitly to disable the budget.
inline constexpr std::uint64_t kDefaultInteractionBudget =
    10'000'000'000ULL;

struct MonteCarloOptions {
  std::uint32_t trials = 100;
  std::uint64_t master_seed = 0x9E3779B97F4A7C15ULL;
  std::uint64_t max_interactions = kDefaultInteractionBudget;
  Engine engine = Engine::kAgentArray;
  /// 0 = one thread per hardware core.
  std::size_t threads = 1;
  /// Worker threads *inside* one trial's engine (currently consumed by
  /// kBatchSharded's sharded matching; other engines ignore it).  Results
  /// are bit-identical for every value -- the sharded engine's draws are a
  /// pure function of the seed -- so this is a throughput knob, not an
  /// experiment parameter.  0 = one worker per hardware core.
  std::size_t engine_threads = 1;
  /// If set, every time the count of this state increases, the current
  /// interaction index is recorded (the paper's NI_i grouping marks).
  /// Every engine with a per-interaction index records marks through its
  /// set_watch() hook: the agent array under every draw rule (complete
  /// graph, kGraph topology, adversarial fairness), jump and graph-jump.
  /// Forcing kBatch or kBatchSharded with a watch set is a precondition
  /// violation (the batch engines aggregate draws -- failing fast beats
  /// silently returning empty marks).  kAuto never resolves to a batch
  /// engine when a watch is set: it picks agent below kJumpCrossover and
  /// jump from there up.
  std::optional<StateId> watch_state;
  /// If set, a per-trial wall-clock cap: a trial that exceeds it stops at
  /// the next check (every kDefaultChunkInteractions, pp/trial.hpp) and
  /// reports stabilized = false, timed_out = true.  Complements the
  /// interaction budget for configurations whose per-interaction cost is
  /// hard to predict.
  std::optional<double> wall_clock_limit_seconds;
  /// Interaction topology for the graph engines (kGraph / kGraphJump, or
  /// kAuto which resolves to kGraphJump when this is set): called once per
  /// trial with a seed derived from that trial's stream (so randomized
  /// topologies are independent across trials yet bit-reproducible), and
  /// must return a graph over exactly the population's agents.
  /// Deterministic topologies ignore the seed.  Unset for the
  /// complete-graph engines; setting it while forcing a non-graph engine
  /// is a precondition violation.
  std::function<InteractionGraph(std::uint64_t seed)> graph;
  /// Scheduling guarantee for the trials (pp/fairness.hpp).  The default
  /// uniform-random policy is what every count-based engine implements;
  /// kEpsilonFair (epsilon < 1) and kWeakRoundRobin route each trial to
  /// the AgentSimulator's fairness draw rule instead -- composed with
  /// `graph` when a topology factory is set, so fairness x topology is one
  /// scenario, and recording watch marks like every agent-array trial.
  /// The adversarial scheduler needs the protocol's group map (to probe
  /// for non-progressing pairs), so a non-default policy requires the
  /// run_monte_carlo overload that takes a Protocol; it also excludes
  /// forced non-agent engines (a precondition violation -- those engines
  /// cannot realize the policy).
  FairnessSpec fairness{};
  /// If non-null, every trial runs with an observability sink writing into
  /// a private per-trial registry; the driver folds the trial registries
  /// into this one as trials finish (mutex-guarded -- the merge operations
  /// commute, so the aggregate is identical regardless of the thread
  /// interleaving).  Adds engine metrics (sim.*) plus per-trial outcome
  /// counters (trials, trials.stabilized, trials.timed_out, trials.stalled)
  /// and distribution histograms (trial.interactions, trial.effective).
  /// Must outlive the run.
  obs::MetricsRegistry* metrics = nullptr;
};

struct TrialResult {
  std::uint64_t interactions = 0;
  std::uint64_t effective = 0;
  bool stabilized = false;
  /// True iff wall_clock_limit_seconds stopped this trial.
  bool timed_out = false;
  /// True iff the engine stopped short of the interaction budget without
  /// stabilizing or timing out: the configuration went silent with the
  /// oracle unsatisfied (a dead configuration), distinct from ordinary
  /// budget exhaustion where interactions == max_interactions.
  bool stalled = false;
  /// Interaction indices at which `watch_state`'s count increased.
  std::vector<std::uint64_t> watch_marks;
};

struct MonteCarloResult {
  std::vector<TrialResult> trials;

  [[nodiscard]] double mean_interactions() const;
  [[nodiscard]] double stddev_interactions() const;
  [[nodiscard]] std::uint32_t stabilized_count() const;
};

/// Factory producing a fresh stability oracle per trial (oracles are
/// stateful and trials may run concurrently).
using OracleFactory = std::function<std::unique_ptr<StabilityOracle>()>;

/// Runs `options.trials` independent simulations of `table` starting from
/// `initial` counts.
MonteCarloResult run_monte_carlo(const TransitionTable& table,
                                 const Counts& initial,
                                 const OracleFactory& make_oracle,
                                 const MonteCarloOptions& options);

/// Convenience overload: n agents, all in the protocol's designated initial
/// state.
MonteCarloResult run_monte_carlo(const Protocol& protocol,
                                 const TransitionTable& table, std::uint32_t n,
                                 const OracleFactory& make_oracle,
                                 const MonteCarloOptions& options);

}  // namespace ppk::pp
