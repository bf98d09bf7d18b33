#include "pp/monte_carlo.hpp"

#include <algorithm>
#include <cmath>
#include <mutex>

#include "obs/metrics.hpp"
#include "pp/adversarial.hpp"
#include "obs/sink.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace ppk::pp {

double MonteCarloResult::mean_interactions() const {
  if (trials.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& t : trials) sum += static_cast<double>(t.interactions);
  return sum / static_cast<double>(trials.size());
}

double MonteCarloResult::stddev_interactions() const {
  if (trials.size() < 2) return 0.0;
  const double mean = mean_interactions();
  double ss = 0.0;
  for (const auto& t : trials) {
    const double d = static_cast<double>(t.interactions) - mean;
    ss += d * d;
  }
  return std::sqrt(ss / static_cast<double>(trials.size() - 1));
}

std::uint32_t MonteCarloResult::stabilized_count() const {
  std::uint32_t count = 0;
  for (const auto& t : trials) count += t.stabilized ? 1u : 0u;
  return count;
}

namespace {

/// Runs one engine to stability under both limits.  Without a wall-clock
/// limit this is a single run() call; with one, the budget is granted in
/// chunks so the clock is consulted without touching the engines' hot
/// loops.  The first chunk uses run() (which resets the oracle from the
/// initial configuration); every later chunk uses resume(), so both the
/// interaction sequence and the oracle's progress -- e.g. a quiescence
/// lull spanning a chunk boundary -- are exactly those of an unchunked run.
template <typename Sim>
void run_bounded(Sim& sim, StabilityOracle& oracle,
                 const MonteCarloOptions& options, TrialResult* out) {
  if (!options.wall_clock_limit_seconds) {
    const SimResult r = sim.run(oracle, options.max_interactions);
    out->interactions = r.interactions;
    out->effective = r.effective;
    out->stabilized = r.stabilized;
    // A run that ended short of the budget without stabilizing went silent
    // with the oracle unsatisfied (jump engine): a dead configuration.
    out->stalled = !r.stabilized && r.interactions < options.max_interactions;
    return;
  }
  const Stopwatch clock;
  constexpr std::uint64_t kChunk = 1ULL << 22;  // ~4M pairs per clock check
  std::uint64_t remaining = options.max_interactions;
  bool first = true;
  while (true) {
    const std::uint64_t grant = std::min<std::uint64_t>(kChunk, remaining);
    const SimResult r =
        first ? sim.run(oracle, grant) : sim.resume(oracle, grant);
    first = false;
    out->interactions += r.interactions;
    out->effective += r.effective;
    if (r.stabilized) {
      out->stabilized = true;
      return;
    }
    remaining -= r.interactions;
    if (remaining == 0) return;               // interaction budget exhausted
    if (r.interactions < grant) {             // engine stalled (silent)
      out->stalled = true;
      return;
    }
    if (clock.seconds() >= *options.wall_clock_limit_seconds) {
      out->timed_out = true;
      return;
    }
  }
}

/// Stamps the per-trial outcome metrics into the trial's registry.
void record_trial_metrics(obs::MetricsRegistry& metrics,
                          const TrialResult& result) {
  metrics.counter("trials").inc();
  if (result.stabilized) metrics.counter("trials.stabilized").inc();
  if (result.timed_out) metrics.counter("trials.timed_out").inc();
  if (result.stalled) metrics.counter("trials.stalled").inc();
  metrics.histogram("trial.interactions").record(result.interactions);
  metrics.histogram("trial.effective").record(result.effective);
}

TrialResult run_one_trial(const TransitionTable& table, const Counts& initial,
                          const OracleFactory& make_oracle,
                          const MonteCarloOptions& options, std::uint64_t seed,
                          obs::MetricsRegistry* trial_metrics,
                          const Protocol* protocol) {
  TrialResult result;
  auto oracle = make_oracle();
  PPK_ASSERT(oracle != nullptr);
  std::optional<obs::ObsSink> sink;
  if (trial_metrics != nullptr) sink.emplace(*trial_metrics);

  std::uint64_t n = 0;
  for (auto c : initial) n += c;

  if (options.fairness.needs_adversarial_engine()) {
    // Only the agent-level scheduler can realize a non-uniform fairness
    // policy; it needs the protocol's group map for its adversary probes.
    PPK_EXPECTS(protocol != nullptr);
    PPK_EXPECTS(!options.watch_state);
    PPK_EXPECTS(options.engine == Engine::kAuto ||
                options.engine == Engine::kAgentArray);
    std::optional<InteractionGraph> graph;
    if (options.graph) {
      graph.emplace(
          options.graph(derive_stream_seed(seed, kGraphTopologyStream)));
      PPK_EXPECTS(graph->num_agents() == n);
    }
    AdversarialSimulator sim(*protocol, table, Population(initial),
                             options.fairness, seed,
                             graph ? &*graph : nullptr);
    if (sink) sim.set_obs_sink(&*sink);
    run_bounded(sim, *oracle, options, &result);
    if (trial_metrics != nullptr) record_trial_metrics(*trial_metrics, result);
    return result;
  }

  const Engine engine =
      resolve_engine(options.engine, n, options.watch_state.has_value(),
                     static_cast<bool>(options.graph));
  // The batch engines aggregate draws; they cannot produce per-interaction
  // watch marks, and quietly returning none would corrupt downstream
  // statistics.  kAuto never picks them with a watch set, so reaching this
  // combination means the caller forced it.
  PPK_EXPECTS(!((engine == Engine::kBatch ||
                 engine == Engine::kBatchSharded) &&
                options.watch_state));
  // A topology that no engine consults (or a graph engine with no
  // topology) is a configuration error, not a silently different
  // experiment.
  const bool graph_engine =
      engine == Engine::kGraph || engine == Engine::kGraphJump;
  PPK_EXPECTS(graph_engine == static_cast<bool>(options.graph));

  if (graph_engine) {
    // The topology gets its own derived stream so randomized graphs are
    // independent of the interaction draws (and of each other across
    // trials) while staying a pure function of (master_seed, trial).
    InteractionGraph graph =
        options.graph(derive_stream_seed(seed, kGraphTopologyStream));
    PPK_EXPECTS(graph.num_agents() == n);
    if (engine == Engine::kGraph) {
      // The per-draw engine has no watch hook; the live-edge engine
      // records exact marks, so kAuto (and explicit kGraphJump) covers
      // watched topology runs.
      PPK_EXPECTS(!options.watch_state);
      GraphSimulator sim(table, std::move(graph), Population(initial), seed);
      if (sink) sim.set_obs_sink(&*sink);
      run_bounded(sim, *oracle, options, &result);
    } else {
      GraphJumpSimulator sim(table, std::move(graph), Population(initial),
                             seed);
      if (options.watch_state) {
        sim.set_watch(*options.watch_state, &result.watch_marks);
      }
      if (sink) sim.set_obs_sink(&*sink);
      run_bounded(sim, *oracle, options, &result);
    }
    if (trial_metrics != nullptr) record_trial_metrics(*trial_metrics, result);
    return result;
  }

  if (engine == Engine::kCountVector) {
    CountSimulator sim(table, initial, seed);
    if (options.watch_state) {
      sim.set_watch(*options.watch_state, &result.watch_marks);
    }
    if (sink) sim.set_obs_sink(&*sink);
    run_bounded(sim, *oracle, options, &result);
    if (trial_metrics != nullptr) record_trial_metrics(*trial_metrics, result);
    return result;
  }
  if (engine == Engine::kJump) {
    JumpSimulator sim(table, initial, seed);
    if (options.watch_state) {
      sim.set_watch(*options.watch_state, &result.watch_marks);
    }
    if (sink) sim.set_obs_sink(&*sink);
    run_bounded(sim, *oracle, options, &result);
    if (trial_metrics != nullptr) record_trial_metrics(*trial_metrics, result);
    return result;
  }
  if (engine == Engine::kBatch) {
    BatchSimulator sim(table, initial, seed);
    if (sink) sim.set_obs_sink(&*sink);
    run_bounded(sim, *oracle, options, &result);
    if (trial_metrics != nullptr) record_trial_metrics(*trial_metrics, result);
    return result;
  }
  if (engine == Engine::kBatchSharded) {
    BatchShardedSimulator sim(table, initial, seed, options.engine_threads);
    if (sink) sim.set_obs_sink(&*sink);
    run_bounded(sim, *oracle, options, &result);
    if (trial_metrics != nullptr) record_trial_metrics(*trial_metrics, result);
    return result;
  }

  AgentSimulator sim(table, Population(initial), seed);
  if (sink) sim.set_obs_sink(&*sink);
  if (options.watch_state) {
    const StateId watched = *options.watch_state;
    sim.set_observer([&result, watched](const SimEvent& event) {
      // The watched state's count increases iff an agent enters it while
      // its partner does not simultaneously leave it (and vice versa).
      const int delta = (event.p_next == watched ? 1 : 0) +
                        (event.q_next == watched ? 1 : 0) -
                        (event.p == watched ? 1 : 0) -
                        (event.q == watched ? 1 : 0);
      for (int i = 0; i < delta; ++i) {
        result.watch_marks.push_back(event.interaction);
      }
    });
  }
  run_bounded(sim, *oracle, options, &result);
  if (trial_metrics != nullptr) record_trial_metrics(*trial_metrics, result);
  return result;
}

}  // namespace

Engine resolve_engine(Engine engine, std::uint64_t n, bool watch,
                      bool graph) {
  if (engine != Engine::kAuto) return engine;
  // With a topology set the choice is between the two graph engines, and
  // the live-edge engine dominates for unattended runs: exact watch marks,
  // identical distribution, and O(1) wedge detection instead of budget
  // exhaustion.  kGraph remains an explicit choice for per-draw
  // observability.
  if (graph) return Engine::kGraphJump;
  if (watch) {
    // Exact marks require pairwise draws; past cache-friendly populations
    // the count engine's O(log |Q|) steps beat chasing n agent slots.
    return n < 4096 ? Engine::kAgentArray : Engine::kCountVector;
  }
  // Below kJumpCrossover effective pairs are common and the agent array's
  // O(1) steps win; from there null pairs dominate and the jump engine's
  // O(1) skip over each null run wins (measured to stabilization by the
  // auto_crossover block of bench/batch_throughput).  Past 1024 batching
  // overhead (O(|Q|^2) RNG work per ~sqrt(n) interactions) is amortized
  // and the batch engine takes over.  Past the log-factorial table bound
  // the plain batch engine degrades to live lgamma per hypergeometric
  // probe; the sharded SoA engine keeps the shared table + Stirling tail
  // and takes over (docs/engines.md).
  if (n < kJumpCrossover) return Engine::kAgentArray;
  if (n < 1024) return Engine::kJump;
  return n > kShardedCrossover ? Engine::kBatchSharded : Engine::kBatch;
}

namespace {

MonteCarloResult run_monte_carlo_impl(const TransitionTable& table,
                                      const Counts& initial,
                                      const OracleFactory& make_oracle,
                                      const MonteCarloOptions& options,
                                      const Protocol* protocol) {
  PPK_EXPECTS(options.trials > 0);
  MonteCarloResult result;
  result.trials.resize(options.trials);

  std::mutex metrics_mutex;
  auto body = [&](std::size_t trial) {
    const std::uint64_t seed = derive_stream_seed(options.master_seed, trial);
    if (options.metrics == nullptr) {
      result.trials[trial] = run_one_trial(table, initial, make_oracle,
                                           options, seed, nullptr, protocol);
      return;
    }
    // Each trial fills a private registry; folding into the shared one is
    // the only synchronized step.  merge() is commutative, so the aggregate
    // is bit-identical no matter which trial's merge wins a race.
    obs::MetricsRegistry trial_metrics;
    result.trials[trial] = run_one_trial(table, initial, make_oracle, options,
                                         seed, &trial_metrics, protocol);
    const std::lock_guard<std::mutex> lock(metrics_mutex);
    options.metrics->merge(trial_metrics);
  };

  if (options.threads == 1 || options.trials == 1) {
    for (std::size_t t = 0; t < options.trials; ++t) body(t);
  } else {
    ThreadPool pool(options.threads);
    pool.parallel_for_index(options.trials, body);
  }
  return result;
}

}  // namespace

MonteCarloResult run_monte_carlo(const TransitionTable& table,
                                 const Counts& initial,
                                 const OracleFactory& make_oracle,
                                 const MonteCarloOptions& options) {
  return run_monte_carlo_impl(table, initial, make_oracle, options, nullptr);
}

MonteCarloResult run_monte_carlo(const Protocol& protocol,
                                 const TransitionTable& table, std::uint32_t n,
                                 const OracleFactory& make_oracle,
                                 const MonteCarloOptions& options) {
  Counts initial(protocol.num_states(), 0);
  initial[protocol.initial_state()] = n;
  return run_monte_carlo_impl(table, initial, make_oracle, options,
                              &protocol);
}

}  // namespace ppk::pp
