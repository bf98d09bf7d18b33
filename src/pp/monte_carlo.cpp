#include "pp/monte_carlo.hpp"

#include <cmath>
#include <mutex>
#include <utility>

#include "obs/metrics.hpp"
#include "pp/trial.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

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

/// The stable spellings of the engines (scenario specs, CLI flags): part of
/// canonical scenario text, so renaming one changes scenario hashes.
constexpr std::pair<Engine, std::string_view> kEngineNames[] = {
    {Engine::kAgentArray, "agent"},
    {Engine::kJump, "jump"},
    {Engine::kBatch, "batch"},
    {Engine::kBatchSharded, "batch-sharded"},
    {Engine::kGraph, "graph"},
    {Engine::kGraphJump, "graph-jump"},
    {Engine::kAuto, "auto"},
};

TrialResult run_trial(const Protocol* protocol, const TransitionTable& table,
                      const Counts& initial, const OracleFactory& make_oracle,
                      const MonteCarloOptions& options, std::uint64_t seed,
                      obs::MetricsRegistry* trial_metrics) {
  TrialResult result;
  auto oracle = make_oracle();
  PPK_ASSERT(oracle != nullptr);
  // Without a wall-clock limit the whole budget is one grant; with one, the
  // clock is read every kDefaultChunkInteractions without touching the
  // engines' hot loops.
  const TrialLimits limits{options.max_interactions,
                           options.wall_clock_limit_seconds
                               ? kDefaultChunkInteractions
                               : options.max_interactions,
                           options.wall_clock_limit_seconds};
  const TrialEnd end = with_engine(
      protocol, table, initial, options, seed, trial_metrics,
      &result.watch_marks,
      [&](auto& sim) { return drive_trial(sim, *oracle, limits, &result); });
  result.stabilized = end == TrialEnd::kStabilized;
  result.timed_out = end == TrialEnd::kTimedOut;
  result.stalled = end == TrialEnd::kStalled;
  if (trial_metrics != nullptr) record_trial_metrics(*trial_metrics, result);
  return result;
}

}  // namespace

std::string_view engine_name(Engine engine) noexcept {
  for (const auto& [e, name] : kEngineNames) {
    if (e == engine) return name;
  }
  return "?";
}

std::optional<Engine> parse_engine(std::string_view name) noexcept {
  for (const auto& [e, spelling] : kEngineNames) {
    if (spelling == name) return e;
  }
  return std::nullopt;
}

Engine resolve_engine(Engine engine, std::uint64_t n, bool watch,
                      bool graph) {
  if (engine != Engine::kAuto) return engine;
  // With a topology set the choice is between the two graph engines, and
  // the live-edge engine dominates for unattended runs: exact watch marks,
  // identical distribution, and O(1) wedge detection instead of budget
  // exhaustion.  kGraph remains an explicit choice for per-draw
  // observability.
  if (graph) return Engine::kGraphJump;
  // Below kJumpCrossover effective pairs are common and the agent array's
  // O(1) steps win; from there null pairs dominate and the jump engine's
  // O(1) skip over each null run wins (measured to stabilization by the
  // auto_crossover block of bench/batch_throughput).  Watched runs stop at
  // jump, the fastest engine that records exact marks.  Past 1024 batching
  // overhead (O(|Q|^2) RNG work per ~sqrt(n) interactions) is amortized
  // and the batch engine takes over.  Past the log-factorial table bound
  // the plain batch engine degrades to live lgamma per hypergeometric
  // probe; the sharded SoA engine keeps the shared table + Stirling tail
  // and takes over (docs/engines.md).
  if (n < kJumpCrossover) return Engine::kAgentArray;
  if (watch || n < 1024) return Engine::kJump;
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
  for_each_trial(options.trials, options.threads, [&](std::size_t trial) {
    const std::uint64_t seed = derive_stream_seed(options.master_seed, trial);
    // Each trial fills a private registry; folding into the shared one is
    // the only synchronized step.  merge() is commutative, so the aggregate
    // is bit-identical no matter which trial's merge wins a race.
    obs::MetricsRegistry trial_metrics;
    result.trials[trial] =
        run_trial(protocol, table, initial, make_oracle, options, seed,
                  options.metrics != nullptr ? &trial_metrics : nullptr);
    if (options.metrics == nullptr) return;
    const std::lock_guard<std::mutex> lock(metrics_mutex);
    options.metrics->merge(trial_metrics);
  });
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
