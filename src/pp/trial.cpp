#include "pp/trial.hpp"

#include "obs/metrics.hpp"
#include "util/thread_pool.hpp"

namespace ppk::pp {

Engine trial_engine(const Counts& initial, const MonteCarloOptions& options) {
  const bool watch = options.watch_state.has_value();
  const bool graph = static_cast<bool>(options.graph);
  if (options.fairness.needs_adversarial_engine()) {
    // Only the agent array schedules agents, so only it realizes a
    // non-uniform policy.
    PPK_EXPECTS(options.engine == Engine::kAuto ||
                options.engine == Engine::kAgentArray);
    return Engine::kAgentArray;
  }
  std::uint64_t n = 0;
  for (const std::uint32_t c : initial) n += c;
  const Engine engine = resolve_engine(options.engine, n, watch, graph);
  // A topology that no engine consults (or a graph engine with no
  // topology) is a configuration error, not a silently different
  // experiment.
  PPK_EXPECTS((engine == Engine::kGraph || engine == Engine::kGraphJump) ==
              graph);
  // The batch engines aggregate draws, so they cannot produce
  // per-interaction watch marks; quietly returning none would corrupt
  // downstream statistics.  kAuto never picks them with a watch set, so
  // reaching this means the caller forced one.
  PPK_EXPECTS(!watch || (engine != Engine::kBatch &&
                         engine != Engine::kBatchSharded));
  return engine;
}

void record_trial_metrics(obs::MetricsRegistry& metrics,
                          const TrialResult& result) {
  metrics.counter("trials").inc();
  if (result.stabilized) metrics.counter("trials.stabilized").inc();
  if (result.timed_out) metrics.counter("trials.timed_out").inc();
  if (result.stalled) metrics.counter("trials.stalled").inc();
  metrics.histogram("trial.interactions").record(result.interactions);
  metrics.histogram("trial.effective").record(result.effective);
}

void for_each_trial(std::uint32_t trials, std::size_t threads,
                    const std::function<void(std::size_t)>& body) {
  if (threads == 1 || trials == 1) {
    for (std::size_t t = 0; t < trials; ++t) body(t);
    return;
  }
  ThreadPool pool(threads);
  pool.parallel_for_index(trials, body);
}

}  // namespace ppk::pp
