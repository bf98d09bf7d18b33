// Validation bench: the paper's Section 5 quantity (expected interactions
// to stabilization) computed two independent ways --
//
//   analytic   exact expected hitting time of the Lemma 6 stable pattern,
//              from the Markov chain over the reachable configuration
//              space (verify/markov.hpp), and
//   empirical  the paper's methodology: the mean over repeated random
//              simulations.
//
// Agreement within the Monte-Carlo confidence interval validates the whole
// measurement pipeline.  Also prints the *exact* wedge probability of the
// basic-strategy ablation next to its sampled estimate.
//
// The lumped blocks benchmark the library's one exact solver, the
// symmetry-lumped sparse chain (verify/lumped_markov.hpp), against the
// tests' dense-elimination reference over the raw chain
// (tests/dense_markov_reference.hpp):
//
//   agreement  at every size the dense reference reaches, both must
//              produce the same expectation to <= 1e-9 relative error
//              (gated by scripts/check_bench_regression.py), and
//   ceiling    per family, one chain at least 10x past the dense
//              reference's 3000-unknown cap that the lumped path still
//              answers.
//
// Every gated figure is exact (a count or a solver answer), so the report
// needs no timing calibration; --json writes the machine-readable report
// (schema ppk-bench-exact-v1, committed baseline BENCH_EXACT.json).

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/bipartition.hpp"
#include "core/invariants.hpp"
#include "core/kpartition.hpp"
#include "core/weak_kpartition.hpp"
#include "dense_markov_reference.hpp"
#include "pp/monte_carlo.hpp"
#include "pp/transition_table.hpp"
#include "verify/markov.hpp"

namespace {

using ppk::verify::ConfigPredicate;

ppk::pp::Counts all_initial(const ppk::pp::Protocol& protocol,
                            std::uint32_t n) {
  ppk::pp::Counts counts(protocol.num_states(), 0);
  counts[protocol.initial_state()] = n;
  return counts;
}

/// Silence with respect to `table`: no present ordered pair is effective
/// (the weak family's stopping rule).
ConfigPredicate silence_predicate(const ppk::pp::TransitionTable& table) {
  return [&table](const ppk::pp::Counts& counts) {
    for (std::size_t p = 0; p < counts.size(); ++p) {
      if (counts[p] == 0) continue;
      for (std::size_t q = 0; q < counts.size(); ++q) {
        if (counts[q] == 0) continue;
        if (p == q && counts[p] < 2) continue;
        if (table.effective(static_cast<ppk::pp::StateId>(p),
                            static_cast<ppk::pp::StateId>(q))) {
          return false;
        }
      }
    }
    return true;
  };
}

/// One family instance the lumped blocks sweep: protocol + target factory.
struct Family {
  std::string name;
  int k;  // 0 = not parameterized
  std::function<std::unique_ptr<ppk::pp::Protocol>()> make;
  std::function<ConfigPredicate(const ppk::pp::Protocol&,
                                const ppk::pp::TransitionTable&,
                                std::uint32_t n)>
      target;
};

std::vector<Family> lumped_families() {
  std::vector<Family> families;
  families.push_back(
      {"kpartition", 2,
       [] { return std::make_unique<ppk::core::KPartitionProtocol>(2); },
       [](const ppk::pp::Protocol& p, const ppk::pp::TransitionTable&,
          std::uint32_t n) -> ConfigPredicate {
         return [&p, n](const ppk::pp::Counts& c) {
           return ppk::core::matches_stable_pattern(
               static_cast<const ppk::core::KPartitionProtocol&>(p), n, c);
         };
       }});
  families.push_back(
      {"weak-kpartition", 2,
       [] { return std::make_unique<ppk::core::WeakKPartitionProtocol>(2); },
       [](const ppk::pp::Protocol&, const ppk::pp::TransitionTable& table,
          std::uint32_t) { return silence_predicate(table); }});
  families.push_back(
      {"bipartition", 0,
       [] { return std::make_unique<ppk::core::BipartitionProtocol>(); },
       [](const ppk::pp::Protocol&, const ppk::pp::TransitionTable&,
          std::uint32_t n) -> ConfigPredicate {
         return [n](const ppk::pp::Counts& c) {
           using P = ppk::core::BipartitionProtocol;
           return c[P::kInitial] + c[P::kInitialPrime] == n % 2 &&
                  c[P::kG1] + c[P::kG2] == n - n % 2;
         };
       }});
  return families;
}

struct AgreementRow {
  std::string family;
  int k;
  std::uint32_t n;
  double dense;
  double lumped;
  double rel_error;
  std::uint64_t configs;      // reachable configurations (dense unknowns)
  std::uint64_t orbits;       // lumped unknowns
  std::uint64_t group_order;  // declared symmetry group's order
};

struct CeilingRow {
  std::string family;
  int k;
  std::uint32_t n;
  std::uint64_t reachable_configs;
  std::uint64_t orbits;
  std::uint64_t group_order;
  double expected_interactions;
  double seconds;
  bool solved;
  /// The hitting solve's work (util::SolveCertificate): exact counts, the
  /// same on every machine.
  std::uint32_t sweeps;
  std::uint64_t row_updates;
};

/// The dense reference's hard system-size cap (it throws past it); the
/// ceiling gate requires the lumped rows to sit >= 10x it.
constexpr std::uint64_t kDenseCap =
    ppk::verify::DenseMarkovReference::kMaxDenseSystem;

}  // namespace

int main(int argc, char** argv) {
  ppk::Cli cli("exact_vs_monte_carlo",
               "Analytic expected stabilization time vs sampled mean, and "
               "the lumped solver vs the dense reference.");
  ppk::bench::CommonFlags common(cli, /*default_trials=*/2000);
  auto smoke = cli.flag<bool>(
      "smoke", false,
      "CI-sized run: fewer Monte-Carlo trials (the lumped agreement and "
      "ceiling blocks are exact counts and keep their full size)");
  auto git_rev = cli.flag<std::string>(
      "git-rev", "unknown", "source revision recorded in the JSON report");
  cli.parse(argc, argv);
  ppk::bench::install_sigint_handler();
  const auto trials =
      *smoke ? std::uint32_t{200} : static_cast<std::uint32_t>(*common.trials);

  ppk::bench::print_header("Exact vs Monte Carlo",
                           "Markov-chain expectation vs sampled mean");

  std::optional<ppk::io::CsvFile> csv;
  if (!common.csv->empty()) {
    csv.emplace(*common.csv, std::vector<std::string>{
                                 "k", "n", "analytic", "empirical_mean",
                                 "ci95", "reachable_configs", "trials"});
  }

  struct McRow {
    int k;
    std::uint32_t n;
    double analytic;
    double mean;
    double ci;
    std::uint64_t configs;
  };
  std::vector<McRow> mc_rows;

  ppk::analysis::Table table({"k", "n", "analytic E[interactions]",
                              "empirical mean", "ci95", "configs",
                              "|diff|/analytic"});
  struct Case {
    ppk::pp::GroupId k;
    std::uint32_t n;
  };
  for (const Case& c : {Case{2, 6}, Case{2, 9}, Case{3, 6}, Case{3, 7},
                        Case{3, 9}, Case{4, 8}, Case{4, 9}, Case{5, 7}}) {
    if (ppk::bench::interrupted()) break;
    const ppk::core::KPartitionProtocol protocol(c.k);
    const ppk::pp::TransitionTable tt(protocol);

    const ppk::verify::MarkovAnalysis markov(tt, all_initial(protocol, c.n));
    const auto analytic = markov.expected_hitting_time(
        [&](const ppk::pp::Counts& config) {
          return ppk::core::matches_stable_pattern(protocol, c.n, config);
        });

    ppk::pp::MonteCarloOptions options;
    options.trials = trials;
    options.master_seed = static_cast<std::uint64_t>(*common.seed);
    const auto empirical = ppk::pp::run_monte_carlo(
        protocol, tt, c.n,
        [&] { return ppk::core::stable_pattern_oracle(protocol, c.n); },
        options);

    const double mean = empirical.mean_interactions();
    const double ci = 1.96 * empirical.stddev_interactions() /
                      std::sqrt(static_cast<double>(trials));
    const double a = analytic.value_or(-1.0);
    table.row(int{c.k}, c.n, a, mean, ci, markov.reachable_configs(),
              a > 0 ? std::abs(mean - a) / a : -1.0);
    mc_rows.push_back({int{c.k}, c.n, a, mean, ci, markov.reachable_configs()});
    if (csv) {
      csv->row(int{c.k}, c.n, a, mean, ci, markov.reachable_configs(), trials);
    }
  }
  table.print(std::cout);

  // --- Lumped vs dense agreement ------------------------------------------
  // The lumped solver and the dense reference over the same chain at
  // dense-reachable sizes; the regression gate pins every row to <= 1e-9
  // relative error.
  std::printf("\n--- symmetry-lumped solver vs dense elimination ---\n");
  std::vector<AgreementRow> agreement;
  ppk::analysis::Table agree_table(
      {"family", "k", "n", "dense", "lumped", "rel error", "configs",
       "orbits", "|G|"});
  const std::vector<Family> families = lumped_families();
  const std::vector<std::vector<std::uint32_t>> agreement_ns = {
      {6, 9, 12, 16}, {4, 6, 8}, {6, 9, 12, 16}};
  for (std::size_t f = 0; f < families.size(); ++f) {
    const Family& family = families[f];
    const auto protocol = family.make();
    const ppk::pp::TransitionTable tt(*protocol);
    for (const std::uint32_t n : agreement_ns[f]) {
      if (ppk::bench::interrupted()) break;
      const ppk::pp::Counts initial = all_initial(*protocol, n);
      const ConfigPredicate target = family.target(*protocol, tt, n);

      const ppk::verify::DenseMarkovReference dense(tt, initial);
      const auto dense_expected = dense.expected_hitting_time(target);

      ppk::verify::MarkovOptions lumped_options;
      lumped_options.symmetry = protocol->symmetry();
      const ppk::verify::MarkovAnalysis lumped(tt, initial,
                                               std::move(lumped_options));
      const auto lumped_expected = lumped.expected_hitting_time(target);

      const double d = dense_expected.value_or(-1.0);
      const double l = lumped_expected.value_or(-1.0);
      const double rel = d > 0 ? std::abs(l - d) / d : -1.0;
      agreement.push_back({family.name, family.k, n, d, l, rel,
                           dense.reachable_configs(),
                           lumped.lumped().num_orbits(),
                           lumped.lumped().group_order()});
      agree_table.row(family.name, family.k, n, d, l, rel,
                      dense.reachable_configs(),
                      lumped.lumped().num_orbits(),
                      lumped.lumped().group_order());
    }
  }
  agree_table.print(std::cout);

  // --- Lumped ceiling -------------------------------------------------------
  // Per family: walk n upward until the reachable space is >= 10x the
  // dense cap, then solve that chain with the lumped solver.  Every
  // figure here is a count or an exact answer -- no calibration needed.
  std::printf("\n--- lumped ceiling (10x past the dense %llu-unknown cap) "
              "---\n",
              static_cast<unsigned long long>(kDenseCap));
  std::vector<CeilingRow> ceiling;
  ppk::analysis::Table ceiling_table({"family", "k", "n", "configs",
                                      "orbits", "|G|", "E[interactions]",
                                      "sweeps", "row updates", "seconds"});
  for (const Family& family : families) {
    if (ppk::bench::interrupted()) break;
    const auto protocol = family.make();
    const ppk::pp::TransitionTable tt(*protocol);
    // Find the first n whose reachable space crosses 10x the cap.
    // Exploration is cheap next to the solve, so a linear probe with a
    // family-scaled stride is fine.
    std::uint32_t n = 0;
    std::uint64_t configs = 0;
    for (std::uint32_t probe = 8; probe <= 2048;
         probe += (probe < 64 ? 1 : 8)) {
      const ppk::verify::ConfigGraph graph(tt, all_initial(*protocol, probe));
      if (!graph.complete()) break;
      if (graph.num_configs() >= 10 * kDenseCap) {
        n = probe;
        configs = graph.num_configs();
        break;
      }
    }
    CeilingRow row{family.name, family.k, n, configs, 0, 0, -1.0, 0.0,
                   false, 0, 0};
    if (n != 0) {
      const auto start = std::chrono::steady_clock::now();
      ppk::verify::MarkovOptions options;
      options.symmetry = protocol->symmetry();
      const ppk::verify::MarkovAnalysis lumped(tt, all_initial(*protocol, n),
                                               std::move(options));
      ppk::util::SolveCertificate cert;
      const auto expected = lumped.expected_hitting_time(
          family.target(*protocol, tt, n), &cert);
      row.seconds = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count();
      row.orbits = lumped.lumped().num_orbits();
      row.group_order = lumped.lumped().group_order();
      row.sweeps = cert.sweeps;
      row.row_updates = cert.row_updates;
      if (expected.has_value()) {
        row.expected_interactions = *expected;
        row.solved = true;
      }
    }
    ceiling.push_back(row);
    ceiling_table.row(row.family, row.k, row.n, row.reachable_configs,
                      row.orbits, row.group_order,
                      row.expected_interactions, row.sweeps, row.row_updates,
                      row.seconds);
  }
  ceiling_table.print(std::cout);

  std::printf("\n--- exact wedge probability of the basic strategy ---\n");
  ppk::analysis::Table wedge_table({"k", "n", "exact P(wedge)", "configs"});
  for (const Case& c : {Case{3, 6}, Case{3, 9}, Case{4, 8}, Case{4, 12}}) {
    if (ppk::bench::interrupted()) break;
    const ppk::core::BasicStrategyProtocol protocol(c.k);
    const ppk::pp::TransitionTable tt(protocol);
    const ppk::verify::MarkovAnalysis markov(tt, all_initial(protocol, c.n));
    double wedge = 0.0;
    for (const auto& a : markov.absorption_probabilities()) {
      const auto& rep = a.representative;
      std::vector<std::uint32_t> sizes(protocol.num_groups(), 0);
      for (ppk::pp::StateId s = 0; s < rep.size(); ++s) {
        sizes[protocol.group(s)] += rep[s];
      }
      if (!ppk::pp::is_uniform_partition(sizes)) wedge += a.probability;
    }
    wedge_table.row(int{c.k}, c.n, wedge, markov.reachable_configs());
  }
  wedge_table.print(std::cout);

  if (!common.json->empty()) {
    // Atomic (temp + rename): an interrupted run cannot leave a truncated
    // report where the regression gate expects a baseline.
    ppk::io::AtomicFileWriter file(*common.json);
    ppk::io::JsonWriter json(file.stream());
    json.begin_object();
    json.member("schema", "ppk-bench-exact-v1");
    json.member("bench", "exact_vs_monte_carlo");
    json.member("git_rev", *git_rev);
    json.member("smoke", *smoke);
    json.member("interrupted", ppk::bench::interrupted());
    json.member("seed", static_cast<std::int64_t>(*common.seed));
    json.member("trials", static_cast<std::uint64_t>(trials));
    json.member("dense_cap", kDenseCap);
    json.key("machine");
    ppk::bench::write_machine_metadata(json);
    json.key("monte_carlo");
    json.begin_array();
    for (const McRow& row : mc_rows) {
      json.begin_object();
      json.member("k", static_cast<std::int64_t>(row.k));
      json.member("n", static_cast<std::uint64_t>(row.n));
      json.member("analytic", row.analytic);
      json.member("empirical_mean", row.mean);
      json.member("ci95", row.ci);
      json.member("configs", row.configs);
      json.end_object();
    }
    json.end_array();
    json.key("agreement");
    json.begin_array();
    for (const AgreementRow& row : agreement) {
      json.begin_object();
      json.member("family", row.family);
      json.member("k", static_cast<std::int64_t>(row.k));
      json.member("n", static_cast<std::uint64_t>(row.n));
      json.member("dense", row.dense);
      json.member("lumped", row.lumped);
      json.member("rel_error", row.rel_error);
      json.member("configs", row.configs);
      json.member("orbits", row.orbits);
      json.member("group_order", row.group_order);
      json.end_object();
    }
    json.end_array();
    json.key("ceiling");
    json.begin_array();
    for (const CeilingRow& row : ceiling) {
      json.begin_object();
      json.member("family", row.family);
      json.member("k", static_cast<std::int64_t>(row.k));
      json.member("n", static_cast<std::uint64_t>(row.n));
      json.member("reachable_configs", row.reachable_configs);
      json.member("orbits", row.orbits);
      json.member("group_order", row.group_order);
      json.member("expected_interactions", row.expected_interactions);
      json.member("seconds", row.seconds);
      json.member("solved", row.solved);
      json.member("sweeps", static_cast<std::uint64_t>(row.sweeps));
      json.member("row_updates", row.row_updates);
      json.end_object();
    }
    json.end_array();
    json.end_object();
    std::string error;
    if (!file.commit(&error)) {
      std::fprintf(stderr, "cannot write report: %s\n", error.c_str());
      return 1;
    }
    std::printf("\nreport written to %s\n", common.json->c_str());
  }

  std::printf(
      "\nReading: the sampled means land within their confidence interval\n"
      "of the exact expectations -- the simulation pipeline measures what\n"
      "the theory defines.  The lumped solver reproduces every dense\n"
      "reference answer to <= 1e-9 relative error and solves chains an\n"
      "order of magnitude past the dense cap.  The exact wedge probabilities\n"
      "quantify how often the D-state-free ablation fails (cf.\n"
      "ablation_dstates).\n");
  return 0;
}
