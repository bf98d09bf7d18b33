// Extension experiment: global fairness guarantees *eventual* progress
// but puts no bound on an adversary's stalling.  The epsilon-fair
// adversary (the fairness draw rule of pp/agent_simulator.hpp) steers
// interactions toward null pairs and free-agent flips with probability
// 1 - epsilon; because every pair keeps an epsilon-proportional chance,
// its infinite executions remain globally fair w.p. 1, so stabilization
// is still guaranteed (Theorem 1) -- only slower.  This bench sweeps
// epsilon and reports the slowdown relative to the uniform scheduler
// (epsilon = 1).

#include <optional>

#include "bench_common.hpp"
#include "core/invariants.hpp"
#include "core/kpartition.hpp"
#include "pp/agent_simulator.hpp"
#include "pp/transition_table.hpp"
#include "util/rng.hpp"

namespace {

double mean_to_stabilize(const ppk::core::KPartitionProtocol& protocol,
                         const ppk::pp::TransitionTable& table,
                         std::uint32_t n, double epsilon, int trials,
                         std::uint64_t master_seed) {
  double total = 0.0;
  for (int trial = 0; trial < trials; ++trial) {
    ppk::pp::AgentSimulator sim(
        protocol, table,
        ppk::pp::Population(n, protocol.num_states(),
                            protocol.initial_state()),
        ppk::pp::FairnessSpec::epsilon_fair(epsilon),
        ppk::derive_stream_seed(master_seed,
                                static_cast<std::uint64_t>(trial)));
    auto oracle = ppk::core::stable_pattern_oracle(protocol, n);
    const auto result = sim.run(*oracle, 4'000'000'000ULL);
    total += static_cast<double>(result.interactions);
  }
  return total / trials;
}

}  // namespace

int main(int argc, char** argv) {
  ppk::Cli cli("fairness_stress",
               "Stabilization time under an epsilon-fair adversarial "
               "scheduler.");
  ppk::bench::CommonFlags common(cli, /*default_trials=*/30);
  auto n_flag = cli.flag<int>("n", 24, "population size");
  cli.parse(argc, argv);
  const auto n = static_cast<std::uint32_t>(*n_flag);
  const int trials = *common.paper ? 100 : *common.trials;
  const auto seed = static_cast<std::uint64_t>(*common.seed);

  ppk::bench::print_header("Fairness stress",
                           "epsilon-fair adversary vs the uniform scheduler");

  std::optional<ppk::io::CsvFile> csv;
  if (!common.csv->empty()) {
    csv.emplace(*common.csv, std::vector<std::string>{
                                 "k", "n", "epsilon", "mean_interactions",
                                 "slowdown", "trials"});
  }

  for (ppk::pp::GroupId k : {ppk::pp::GroupId{3}, ppk::pp::GroupId{4}}) {
    const ppk::core::KPartitionProtocol protocol(k);
    const ppk::pp::TransitionTable table(protocol);
    std::printf("--- k = %d, n = %u ---\n", int{k}, n);
    ppk::analysis::Table out({"epsilon", "mean interactions", "slowdown"});
    const double baseline =
        mean_to_stabilize(protocol, table, n, 1.0, trials, seed);
    for (double epsilon : {1.0, 0.5, 0.2, 0.1, 0.05, 0.02}) {
      const double mean = epsilon == 1.0
                              ? baseline
                              : mean_to_stabilize(protocol, table, n, epsilon,
                                                  trials, seed);
      out.row(epsilon, mean, mean / baseline);
      if (csv) {
        csv->row(int{k}, n, epsilon, mean, mean / baseline, trials);
      }
    }
    out.print(std::cout);
    std::printf("\n");
  }
  std::printf(
      "Reading: every epsilon stabilizes eventually (the adversary is still\n"
      "globally fair), but the cost scales roughly like 1/epsilon: global\n"
      "fairness gives correctness, not speed -- the paper's open question 3\n"
      "(time under probabilistic fairness) in miniature.\n");
  return 0;
}
