#include "analysis/recovery.hpp"

#include <algorithm>

#include "core/invariants.hpp"
#include "core/kpartition.hpp"
#include "core/recovery.hpp"
#include "pp/transition_table.hpp"
#include "pp/trial.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace ppk::analysis {

namespace {

/// Stream index 2 for the schedule; the churn engine itself consumes
/// streams 0 (pairs) and 1 (fault resolution) of the same trial seed.
constexpr std::uint64_t kScheduleStream = 2;

std::vector<pp::FaultEvent> schedule(const RecoveryOptions& options,
                                     std::uint64_t seed) {
  return pp::make_fault_schedule(options.rates, options.fault_horizon,
                                 derive_stream_seed(seed, kScheduleStream));
}

void finish_trial(const core::KPartitionProtocol& base,
                  const pp::Counts& base_counts, const pp::FaultTrace& trace,
                  RecoveryTrial* out) {
  std::uint64_t last_fault_at = 0;
  for (const pp::FaultRecord& rec : trace) {
    if (rec.kind == pp::FaultKind::kReset) continue;
    ++out->faults_applied;
    last_fault_at = std::max(last_fault_at, rec.at);
  }
  if (out->stabilized && out->faults_applied > 0) {
    out->rebalance_interactions = out->interactions - last_fault_at;
  }

  std::vector<std::uint64_t> g_sizes(base.k(), 0);
  for (pp::GroupId x = 1; x <= base.k(); ++x) {
    g_sizes[static_cast<std::size_t>(x) - 1] = base_counts[base.g(x)];
  }
  const auto [lo, hi] = std::minmax_element(g_sizes.begin(), g_sizes.end());
  out->final_spread = static_cast<std::uint32_t>(*hi - *lo);
  out->lemma1_ok = core::lemma1_holds(base, base_counts);
}

RecoveryTrial run_with_recovery(pp::GroupId k, std::uint32_t n,
                                const RecoveryOptions& options,
                                std::uint64_t seed) {
  const core::SelfHealingKPartitionProtocol protocol(k);
  const pp::TransitionTable table(protocol);
  pp::Counts initial(protocol.num_states(), 0);
  initial[protocol.initial_state()] = n;

  pp::AgentSimulator sim(table, pp::Population(initial), seed,
                         schedule(options, seed));
  core::RecoveryManager manager(protocol, sim);

  const pp::SimResult r = sim.run(manager.oracle(), options.max_interactions);

  RecoveryTrial out;
  out.interactions = r.interactions;
  out.effective = r.effective;
  out.stabilized = r.stabilized;
  out.waves = manager.waves_started();
  out.final_population = sim.population().size();

  // Project the epoch-stamped configuration onto base states; at stability
  // every agent carries one epoch, so the projection is exact.
  const pp::Counts& counts = sim.population().counts();
  pp::Counts base_counts(protocol.base().num_states(), 0);
  for (pp::StateId s = 0; s < counts.size(); ++s) {
    base_counts[protocol.base_of(s)] += counts[s];
  }
  finish_trial(protocol.base(), base_counts, sim.trace(), &out);
  return out;
}

RecoveryTrial run_without_recovery(pp::GroupId k, std::uint32_t n,
                                   const RecoveryOptions& options,
                                   std::uint64_t seed) {
  const core::KPartitionProtocol protocol(k);
  const pp::TransitionTable table(protocol);
  pp::Counts initial(protocol.num_states(), 0);
  initial[protocol.initial_state()] = n;

  pp::AgentSimulator sim(table, pp::Population(initial), seed,
                         schedule(options, seed));
  sim.set_default_join_state(protocol.initial_state());
  const auto oracle = core::churn_aware_stable_oracle(protocol);

  const pp::SimResult r = sim.run(*oracle, options.max_interactions);

  RecoveryTrial out;
  out.interactions = r.interactions;
  out.effective = r.effective;
  out.stabilized = r.stabilized;
  out.final_population = sim.population().size();
  finish_trial(protocol, sim.population().counts(), sim.trace(), &out);
  return out;
}

}  // namespace

RecoveryResult measure_recovery(pp::GroupId k, std::uint32_t n,
                                const RecoveryOptions& options) {
  PPK_EXPECTS(n >= 3);
  PPK_EXPECTS(options.trials > 0);

  RecoveryResult result;
  result.k = k;
  result.n = n;
  result.trials.resize(options.trials);

  Stopwatch timer;
  pp::for_each_trial(options.trials, options.threads, [&](std::size_t trial) {
    const std::uint64_t seed = derive_stream_seed(options.master_seed, trial);
    result.trials[trial] = options.with_recovery
                               ? run_with_recovery(k, n, options, seed)
                               : run_without_recovery(k, n, options, seed);
  });
  result.wall_seconds = timer.seconds();

  std::uint32_t recovered = 0;
  std::vector<double> rebalance;
  std::vector<double> spread;
  spread.reserve(result.trials.size());
  for (const RecoveryTrial& t : result.trials) {
    if (t.stabilized) ++recovered;
    if (t.stabilized && t.faults_applied > 0) {
      rebalance.push_back(static_cast<double>(t.rebalance_interactions));
    }
    spread.push_back(static_cast<double>(t.final_spread));
  }
  result.recovered_fraction =
      static_cast<double>(recovered) / static_cast<double>(options.trials);
  result.rebalance = summarize(rebalance);
  result.spread = summarize(spread);
  return result;
}

}  // namespace ppk::analysis
