// One trial, shared by the Monte-Carlo runner (pp/monte_carlo.hpp), the
// campaign runner (core/campaign.hpp) and the conformance nets: the engine
// factory (trial_engine() + with_engine()) and the chunked run()/resume()
// loop (drive_trial()).  A trial's trajectory is a function of (seed,
// budget, chunk) alone -- the deadline and the boundary callback only
// decide whether the loop keeps going -- so drivers that pass the same
// three values draw the same trial, interaction for interaction.

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "obs/sink.hpp"
#include "pp/monte_carlo.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace ppk::pp {

/// Interactions per run()/resume() grant of a chunked trial: the Monte-Carlo
/// runner's wall-clock check cadence and the campaign runner's default
/// chunk.  Large enough that chunking costs nothing measurable, small
/// enough that deadlines and checkpoints stay responsive.
inline constexpr std::uint64_t kDefaultChunkInteractions = 1ULL << 22;

/// Sub-stream (of a trial's stream seed) that seeds randomized topology
/// generation, keeping it independent of the interaction draws.
inline constexpr std::uint64_t kGraphTopologyStream = 0x6772'6170'68ULL;

/// The engine a trial of `options` from `initial` runs on: kAgentArray (the
/// agent array under the fairness draw rule) when the fairness policy needs
/// the adversarial scheduler, else resolve_engine() of the requested
/// engine.  Fails fast (PPK_EXPECTS) on every combination no engine can
/// realize: a watch state on a batch engine (no per-interaction marks), a
/// topology no engine consults or a graph engine without one, and
/// adversarial fairness with a forced non-agent engine.
[[nodiscard]] Engine trial_engine(const Counts& initial,
                                  const MonteCarloOptions& options);

/// Stamps one trial's outcome counters (trials, trials.stabilized,
/// trials.timed_out, trials.stalled) and distribution histograms
/// (trial.interactions, trial.effective) into its registry.
void record_trial_metrics(obs::MetricsRegistry& metrics,
                          const TrialResult& result);

/// Calls body(0), ..., body(trials - 1): inline with one thread or one
/// trial, otherwise on a pool of `threads` workers (0 = one per core).
void for_each_trial(std::uint32_t trials, std::size_t threads,
                    const std::function<void(std::size_t)>& body);

/// Constructs the engine trial_engine(initial, mc) names, seeded with
/// `seed`, and returns fn(engine).  The topology comes from its own
/// sub-stream of `seed`; non-uniform fairness runs on the AgentSimulator's
/// fairness draw rule (which needs `protocol` for its group map); with
/// `metrics` non-null the engine reports into it through an obs::ObsSink;
/// with mc.watch_state set, the watched state's count increases are
/// appended to `watch_marks`.
template <typename Fn>
auto with_engine(const Protocol* protocol, const TransitionTable& table,
                 const Counts& initial, const MonteCarloOptions& mc,
                 std::uint64_t seed, obs::MetricsRegistry* metrics,
                 std::vector<std::uint64_t>* watch_marks, Fn&& fn) {
  const Engine engine = trial_engine(initial, mc);
  std::optional<obs::ObsSink> sink;
  if (metrics != nullptr) sink.emplace(*metrics);
  const auto visit = [&](auto& sim) {
    if (sink) sim.set_obs_sink(&*sink);
    if (mc.watch_state) {
      if constexpr (requires { sim.set_watch(StateId{}, watch_marks); }) {
        sim.set_watch(*mc.watch_state, watch_marks);
      } else {
        PPK_ASSERT(false);  // trial_engine() rejects engines without a hook
      }
    }
    return fn(sim);
  };

  // The engines' constructors check that the topology spans the population.
  std::optional<InteractionGraph> graph;
  if (mc.graph) {
    graph.emplace(mc.graph(derive_stream_seed(seed, kGraphTopologyStream)));
  }
  if (mc.fairness.needs_adversarial_engine()) {
    PPK_EXPECTS(protocol != nullptr);
    AgentSimulator sim(*protocol, table, Population(initial), mc.fairness,
                       seed, graph ? &*graph : nullptr);
    return visit(sim);
  }
  switch (engine) {
    case Engine::kJump: {
      JumpSimulator sim(table, initial, seed);
      return visit(sim);
    }
    case Engine::kBatch: {
      BatchSimulator sim(table, initial, seed);
      return visit(sim);
    }
    case Engine::kBatchSharded: {
      BatchShardedSimulator sim(table, initial, seed, mc.engine_threads);
      return visit(sim);
    }
    case Engine::kGraph: {
      AgentSimulator sim(table, *graph, Population(initial), seed);
      return visit(sim);
    }
    case Engine::kGraphJump: {
      GraphJumpSimulator sim(table, std::move(*graph), Population(initial),
                             seed);
      return visit(sim);
    }
    case Engine::kAgentArray:
    case Engine::kAuto:  // trial_engine() never returns it
      break;
  }
  AgentSimulator sim(table, Population(initial), seed);
  return visit(sim);
}

/// How drive_trial() stopped.
enum class TrialEnd {
  kStabilized,  // the oracle reported stability
  kStalled,     // the engine went silent short of its grant (dead config)
  kBudget,      // the interaction budget ran out
  kTimedOut,    // the deadline passed at a chunk boundary
  kCensored,    // the boundary callback asked to stop
};

/// What drive_trial() may spend.
struct TrialLimits {
  /// Interactions for the whole trial (or campaign attempt).
  std::uint64_t budget = 0;
  /// Interactions per run()/resume() grant; chunk = budget makes the
  /// trial one run() call.
  std::uint64_t chunk = 0;
  /// Wall-clock cap, read at chunk boundaries and counted from the call.
  std::optional<double> deadline_seconds;
};

/// Drives `sim` against `oracle` in grants of min(chunk, budget left),
/// adding the drawn and effective interactions to `out`.  `consumed` is the
/// part of the budget an engine restored from a snapshot has already
/// spent: 0 starts with run() (which resets the oracle), anything else
/// continues with resume(), so a restored trial sees exactly the grants the
/// uninterrupted one would have.  At every chunk boundary short of the
/// budget, at_boundary(consumed) runs; returning true stops the trial
/// (kCensored) before the deadline is read.
template <typename Sim, typename AtBoundary>
TrialEnd drive_trial(Sim& sim, StabilityOracle& oracle,
                     const TrialLimits& limits, TrialResult* out,
                     std::uint64_t consumed, AtBoundary&& at_boundary) {
  const Stopwatch clock;
  bool first = consumed == 0;
  while (true) {
    const std::uint64_t grant =
        std::min(limits.chunk, limits.budget - consumed);
    const SimResult r =
        first ? sim.run(oracle, grant) : sim.resume(oracle, grant);
    first = false;
    consumed += r.interactions;
    out->interactions += r.interactions;
    out->effective += r.effective;
    if (r.stabilized) return TrialEnd::kStabilized;
    if (r.interactions < grant) return TrialEnd::kStalled;
    if (consumed >= limits.budget) return TrialEnd::kBudget;
    if (at_boundary(consumed)) return TrialEnd::kCensored;
    if (limits.deadline_seconds &&
        clock.seconds() >= *limits.deadline_seconds) {
      return TrialEnd::kTimedOut;
    }
  }
}

/// drive_trial() of a fresh trial with no boundary callback.
template <typename Sim>
TrialEnd drive_trial(Sim& sim, StabilityOracle& oracle,
                     const TrialLimits& limits, TrialResult* out) {
  return drive_trial(sim, oracle, limits, out, 0,
                     [](std::uint64_t) { return false; });
}

}  // namespace ppk::pp
