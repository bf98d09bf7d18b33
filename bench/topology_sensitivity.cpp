// Extension experiment: how sensitive is the protocol to the complete-
// interaction-graph assumption -- and what does exact wedge detection buy?
//
// The paper's reachability lemmas (2-5) let *any* two agents interact.  On
// restricted graphs that argument breaks: a builder (m state) can be
// walled in by committed neighbours with no free agent adjacent, and the
// execution stalls in a non-stable configuration forever.  This bench
// quantifies the effect three ways, and emits the machine-readable report
// (BENCH_TOPOLOGY.json, schema ppk-bench-topology-v1) that the CI
// topology-smoke job gates with scripts/check_bench_regression.py:
//
//  1. Sweep.  Stabilization rate and time on the complete graph,
//     Erdos-Renyi graphs of shrinking density, the star, and the ring,
//     under BOTH graph engines: the per-draw agent array (which burns
//     its whole budget on a wedged run -- it cannot tell a dead
//     configuration from a slow one) and the live-edge GraphJumpSimulator
//     (which reports `stalled` the moment zero directed edges are live).
//     Trials run through the thread-pooled Monte-Carlo driver; per-trial
//     seeds come from derive_stream_seed, so every row is bit-reproducible
//     at any --threads value.
//
//  2. Wedged-ring speedup.  A hand-wedged configuration (all g1 plus two
//     antipodal m2 builders on a ring of n >= 1e5) is dead-silent on the
//     graph but NOT globally silent, so the per-draw engine spins on null
//     draws until its budget runs out while the live-edge engine proves
//     the wedge in O(1) after setup.  The measured speedup understates the
//     real gap: the per-draw engine is charged a budget orders of
//     magnitude below the default (burning kDefaultInteractionBudget
//     would take hours), and its cost scales linearly with whatever
//     budget a user actually grants.
//
//  3. ER generation.  Building connected G(n, p = 2 ln n / n) at n = 1e6
//     via the geometric-skip sampler: expected O(n + m) work, timed, with
//     the connectivity double-checked.  (The quadratic rejection sampler
//     this replaced could not finish this row at all.)
//
// Calibration.  As in batch_throughput: timed measurements interleave
// slices of a fixed xoshiro256** kernel, whose aggregate rate samples the
// machine's momentary effective frequency; the report carries it as
// calibration_rate so the regression gate can divide it out, and
// rep_spread (fractional spread of per-rep calibrated figures) so the
// gate's tolerance widens exactly when the machine was noisy.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/invariants.hpp"
#include "core/kpartition.hpp"
#include "pp/graph_jump_simulator.hpp"
#include "pp/agent_simulator.hpp"
#include "pp/interaction_graph.hpp"
#include "pp/monte_carlo.hpp"
#include "pp/transition_table.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace {

using ppk::pp::InteractionGraph;

volatile std::uint64_t g_calibration_sink = 0;

/// One slice of the fixed ALU-bound calibration kernel; returns its
/// duration.  Aggregated slice rate tracks the machine's momentary
/// effective frequency (see batch_throughput.cpp for the full rationale).
double calibration_slice(std::uint64_t* draws) {
  constexpr std::uint64_t kSliceDraws = 1ULL << 21;
  ppk::Xoshiro256 rng(0x9E3779B97F4A7C15ULL);
  const ppk::Stopwatch clock;
  std::uint64_t acc = 0;
  for (std::uint64_t i = 0; i < kSliceDraws; ++i) acc += rng();
  g_calibration_sink = acc;
  *draws += kSliceDraws;
  return clock.seconds();
}

// ---------------------------------------------------------------------------
// 1. Topology sweep through the Monte-Carlo driver.

struct SweepRow {
  int k = 0;
  std::string topology;
  const char* engine = "";
  double avg_degree = 0.0;
  double stabilized_rate = 0.0;
  double stalled_rate = 0.0;
  double mean_interactions_when_stabilized = 0.0;
  int trials = 0;
};

SweepRow run_sweep_point(
    const ppk::core::KPartitionProtocol& protocol,
    const ppk::pp::TransitionTable& table, std::uint32_t n,
    const std::function<InteractionGraph(std::uint64_t)>& make_graph,
    ppk::pp::Engine engine, int trials, std::uint64_t master_seed,
    std::uint64_t budget, std::size_t threads) {
  ppk::pp::MonteCarloOptions options;
  options.trials = static_cast<std::uint32_t>(trials);
  options.master_seed = master_seed;
  options.max_interactions = budget;
  options.engine = engine;
  options.threads = threads;
  options.graph = make_graph;
  const auto result = ppk::pp::run_monte_carlo(
      protocol, table, n,
      [&] { return ppk::core::stable_pattern_oracle(protocol, n); }, options);

  SweepRow row;
  row.trials = trials;
  row.engine = engine == ppk::pp::Engine::kGraph ? "graph" : "live-edge";
  int stabilized = 0;
  int stalled = 0;
  double total = 0.0;
  for (const auto& trial : result.trials) {
    if (trial.stabilized) {
      ++stabilized;
      total += static_cast<double>(trial.interactions);
    }
    if (trial.stalled) ++stalled;
  }
  row.stabilized_rate = static_cast<double>(stabilized) / trials;
  row.stalled_rate = static_cast<double>(stalled) / trials;
  row.mean_interactions_when_stabilized =
      stabilized > 0 ? total / stabilized : 0.0;
  return row;
}

// ---------------------------------------------------------------------------
// 2. Wedged-ring speedup: per-draw budget burn vs O(1) wedge detection.

/// All agents g1 except two antipodal m2 builders: dead-silent on the ring
/// (every adjacent pair is null) yet globally non-stable, so only exact
/// wedge detection can end the run before the budget does.  Built with
/// per-agent placement: a Counts-constructed population would place the
/// two builders adjacently.
ppk::pp::Population wedged_population(
    const ppk::core::KPartitionProtocol& protocol, std::uint32_t n) {
  ppk::pp::Population population(n, protocol.num_states(), protocol.g(1));
  population.set_state(0, protocol.m(2));
  population.set_state(n / 2, protocol.m(2));
  return population;
}

struct SpeedupReport {
  std::uint32_t n = 0;
  int k = 0;
  std::uint64_t graph_budget = 0;
  double graph_seconds = 0.0;       // best per-trial seconds across reps
  double live_seconds = 0.0;        // best per-trial seconds across reps
  std::uint64_t live_trials = 0;    // trials timed per rep to fill the window
  double speedup = 0.0;
  double calibration_rate = 0.0;    // best across reps
  double graph_rep_spread = 0.0;
  double live_rep_spread = 0.0;
  bool live_detected_wedge = false;  // stalled at 0 interactions every trial
};

SpeedupReport measure_wedged_ring_speedup(std::uint32_t n,
                                          std::uint64_t graph_budget,
                                          std::uint64_t seed, int reps) {
  constexpr int kK = 4;
  constexpr double kMinLiveWindowSeconds = 0.05;
  const ppk::core::KPartitionProtocol protocol(kK);
  const ppk::pp::TransitionTable table(protocol);

  SpeedupReport report;
  report.n = n;
  report.k = kK;
  report.graph_budget = graph_budget;
  report.live_detected_wedge = true;

  double graph_lo = 0.0, graph_hi = 0.0, live_lo = 0.0, live_hi = 0.0;
  for (int rep = 0; rep < std::max(1, reps); ++rep) {
    std::uint64_t cal_draws = 0;
    double cal_seconds = calibration_slice(&cal_draws);

    // Per-draw engine: one full trial (construction included; the budget
    // burn dominates).  Same seed every rep -- identical work, so the
    // best time is a pure noise floor.
    const ppk::Stopwatch graph_clock;
    {
      ppk::pp::AgentSimulator sim(table, InteractionGraph::ring(n),
                                  wedged_population(protocol, n), seed);
      auto oracle = ppk::core::stable_pattern_oracle(protocol, n);
      const auto r = sim.run(*oracle, graph_budget);
      if (r.stabilized || r.interactions != graph_budget) {
        std::fprintf(stderr,
                     "wedged ring unexpectedly advanced (interactions=%llu)\n",
                     static_cast<unsigned long long>(r.interactions));
      }
    }
    const double graph_seconds = graph_clock.seconds();

    cal_seconds += calibration_slice(&cal_draws);

    // Live-edge engine: full trials (construction + liveness scan + O(1)
    // wedge proof) repeated until the window is long enough to time.
    std::uint64_t live_trials = 0;
    const ppk::Stopwatch live_clock;
    while (live_clock.seconds() < kMinLiveWindowSeconds) {
      ppk::pp::GraphJumpSimulator sim(table, InteractionGraph::ring(n),
                                      wedged_population(protocol, n), seed);
      auto oracle = ppk::core::stable_pattern_oracle(protocol, n);
      const auto r = sim.run(*oracle, graph_budget);
      if (r.stabilized || r.interactions != 0) report.live_detected_wedge = false;
      ++live_trials;
    }
    const double live_seconds =
        live_clock.seconds() / static_cast<double>(live_trials);

    cal_seconds += calibration_slice(&cal_draws);
    const double cal_rate = static_cast<double>(cal_draws) / cal_seconds;
    report.calibration_rate = std::max(report.calibration_rate, cal_rate);

    if (rep == 0 || graph_seconds < report.graph_seconds) {
      report.graph_seconds = graph_seconds;
    }
    if (rep == 0 || live_seconds < report.live_seconds) {
      report.live_seconds = live_seconds;
      report.live_trials = live_trials;
    }
    // Spread of calibrated per-rep costs: the row's own noise estimate.
    const double graph_norm = graph_seconds * cal_rate;
    const double live_norm = live_seconds * cal_rate;
    graph_lo = rep == 0 ? graph_norm : std::min(graph_lo, graph_norm);
    graph_hi = rep == 0 ? graph_norm : std::max(graph_hi, graph_norm);
    live_lo = rep == 0 ? live_norm : std::min(live_lo, live_norm);
    live_hi = rep == 0 ? live_norm : std::max(live_hi, live_norm);
  }
  report.graph_rep_spread = graph_hi > 0.0 ? 1.0 - graph_lo / graph_hi : 0.0;
  report.live_rep_spread = live_hi > 0.0 ? 1.0 - live_lo / live_hi : 0.0;
  report.speedup =
      report.live_seconds > 0.0 ? report.graph_seconds / report.live_seconds
                                : 0.0;
  return report;
}

// ---------------------------------------------------------------------------
// 3. Connected G(n, p) generation at n = 1e6 near the threshold.

struct ErGenerationReport {
  std::uint32_t n = 0;
  double p = 0.0;
  double seconds = 0.0;  // best generation time across reps
  std::uint64_t edges = 0;
  bool connected = false;
  double calibration_rate = 0.0;
  double rep_spread = 0.0;
};

ErGenerationReport measure_er_generation(std::uint32_t n, std::uint64_t seed,
                                         int reps) {
  ErGenerationReport report;
  report.n = n;
  report.p = 2.0 * std::log(static_cast<double>(n)) / static_cast<double>(n);
  double lo = 0.0, hi = 0.0;
  for (int rep = 0; rep < std::max(1, reps); ++rep) {
    std::uint64_t cal_draws = 0;
    double cal_seconds = calibration_slice(&cal_draws);
    const ppk::Stopwatch clock;
    const auto graph =
        InteractionGraph::try_erdos_renyi(n, report.p, seed, /*max_attempts=*/8);
    const double seconds = clock.seconds();
    cal_seconds += calibration_slice(&cal_draws);
    const double cal_rate = static_cast<double>(cal_draws) / cal_seconds;
    report.calibration_rate = std::max(report.calibration_rate, cal_rate);
    if (rep == 0 || seconds < report.seconds) {
      report.seconds = seconds;
      report.edges = graph ? graph->edges().size() : 0;
      // try_erdos_renyi only returns connected samples; double-check the
      // invariant rather than trusting it (outside the timed window).
      report.connected = graph && graph->is_connected();
    }
    const double norm = seconds * cal_rate;
    lo = rep == 0 ? norm : std::min(lo, norm);
    hi = rep == 0 ? norm : std::max(hi, norm);
  }
  report.rep_spread = hi > 0.0 ? 1.0 - lo / hi : 0.0;
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  ppk::Cli cli("topology_sensitivity",
               "Stabilization rate and time by interaction-graph topology, "
               "plus the live-edge wedge-detection speedup report.");
  ppk::bench::CommonFlags common(cli, /*default_trials=*/30);
  auto n_flag = cli.flag<int>("n", 24, "population size for the sweep");
  auto budget_flag = cli.flag<long long>(
      "budget", 5'000'000, "interaction budget per sweep trial");
  auto smoke = cli.flag<bool>(
      "smoke", false,
      "CI-sized run: fewer trials, smaller budgets (same n for the wedged "
      "and ER rows -- those are the acceptance bar)");
  auto reps = cli.flag<int>(
      "reps", 1,
      "timed measurements per report row; best figure kept (use >= 3 when "
      "regenerating the committed BENCH_TOPOLOGY.json)");
  auto git_rev = cli.flag<std::string>(
      "git-rev", "unknown", "source revision recorded in the JSON report");
  cli.parse(argc, argv);
  ppk::bench::install_sigint_handler();

  const auto n = static_cast<std::uint32_t>(*n_flag);
  const int trials = *common.paper ? 100 : (*smoke ? 8 : *common.trials);
  const auto budget = *smoke ? std::uint64_t{1'000'000}
                             : static_cast<std::uint64_t>(*budget_flag);
  const auto seed = static_cast<std::uint64_t>(*common.seed);
  const auto threads = static_cast<std::size_t>(std::max(0, *common.threads));

  // The wedged and ER rows keep their full problem sizes even under
  // --smoke (n >= 1e5 wedged ring, n = 1e6 ER generation are the
  // acceptance bar); only the per-draw engine's charged budget shrinks.
  const std::uint32_t wedged_n = 100'000;
  const std::uint64_t wedged_budget =
      *smoke ? 50'000'000ULL : 200'000'000ULL;
  const std::uint32_t er_n = 1'000'000;

  ppk::bench::print_header(
      "Topology sensitivity",
      "the complete-graph assumption, stress-tested (k-partition)");

  std::optional<ppk::io::CsvFile> csv;
  if (!common.csv->empty()) {
    csv.emplace(*common.csv,
                std::vector<std::string>{"k", "topology", "engine",
                                         "avg_degree", "stabilized_rate",
                                         "stalled_rate", "mean_interactions",
                                         "trials"});
  }

  struct Topology {
    const char* name;
    std::function<InteractionGraph(std::uint64_t)> make;
  };
  const double logn_over_n =
      2.0 * std::log(static_cast<double>(n)) / static_cast<double>(n);
  const std::vector<Topology> topologies = {
      {"complete",
       [&](std::uint64_t) { return InteractionGraph::complete(n); }},
      {"er(p=0.5)",
       [&](std::uint64_t s) { return InteractionGraph::erdos_renyi(n, 0.5, s); }},
      {"er(p=0.2)",
       [&](std::uint64_t s) { return InteractionGraph::erdos_renyi(n, 0.2, s); }},
      {"er(p=2ln(n)/n)",
       [&](std::uint64_t s) {
         return InteractionGraph::erdos_renyi(n, logn_over_n, s);
       }},
      {"star", [&](std::uint64_t) { return InteractionGraph::star(n); }},
      {"ring", [&](std::uint64_t) { return InteractionGraph::ring(n); }},
  };
  const std::vector<ppk::pp::Engine> engines = {ppk::pp::Engine::kGraph,
                                                ppk::pp::Engine::kGraphJump};

  std::vector<SweepRow> sweep;
  for (ppk::pp::GroupId k : {ppk::pp::GroupId{3}, ppk::pp::GroupId{4}}) {
    // Ctrl-C: the in-flight point finishes, the sweep stops here, and the
    // report below is still written (flagged interrupted) atomically.
    if (ppk::bench::interrupted()) break;
    const ppk::core::KPartitionProtocol protocol(k);
    const ppk::pp::TransitionTable table(protocol);
    std::printf("--- k = %d, n = %u ---\n", int{k}, n);
    ppk::analysis::Table out({"topology", "engine", "avg degree",
                              "stabilized rate", "stalled rate",
                              "mean interactions (stabilized runs)"});
    for (const Topology& topology : topologies) {
      if (ppk::bench::interrupted()) break;
      // Representative instance for the degree column only (randomized
      // topologies resample per trial inside the driver).
      const double avg_degree =
          topology.make(ppk::derive_stream_seed(seed, 0)).average_degree();
      for (const auto engine : engines) {
        if (ppk::bench::interrupted()) break;
        SweepRow row = run_sweep_point(protocol, table, n, topology.make,
                                       engine, trials, seed, budget, threads);
        row.k = int{k};
        row.topology = topology.name;
        row.avg_degree = avg_degree;
        out.row(row.topology, row.engine, row.avg_degree, row.stabilized_rate,
                row.stalled_rate, row.mean_interactions_when_stabilized);
        if (csv) {
          csv->row(row.k, row.topology, row.engine, row.avg_degree,
                   row.stabilized_rate, row.stalled_rate,
                   row.mean_interactions_when_stabilized, row.trials);
        }
        sweep.push_back(std::move(row));
      }
    }
    out.print(std::cout);
    std::printf("\n");
  }
  std::printf(
      "Reading: the complete graph stabilizes in 100%% of runs (Theorem 1).\n"
      "Everything sparser wedges in most runs -- builders get walled in by\n"
      "committed neighbours, which the complete graph makes impossible.  The\n"
      "paper's complete-interaction-graph assumption is load-bearing, not a\n"
      "modelling convenience.  (Stabilized-run means are survivorship-biased\n"
      "low on sparse graphs: only lucky executions finish.)  The per-draw\n"
      "engine burns its whole budget on every wedged trial (stalled rate 0\n"
      "by construction: it cannot tell dead from slow); the live-edge\n"
      "engine's stalled rate is the measured wedge rate, detected exactly.\n\n");

  // After SIGINT the wedged-ring and ER rows are skipped entirely (they
  // are the expensive tail); the report still carries the sweep points
  // that completed, flagged interrupted below.
  SpeedupReport speedup;
  ErGenerationReport er;
  if (!ppk::bench::interrupted()) {
    speedup = measure_wedged_ring_speedup(wedged_n, wedged_budget, seed,
                                          *reps);
    std::printf(
        "Wedged ring, n = %u, k = %d: per-draw engine burns %.2fs over %llu\n"
        "budgeted draws; live-edge proves the wedge in %.2fms per trial\n"
        "(construction included) -- %.0fx, understated since the per-draw\n"
        "cost scales with whatever budget is granted.\n\n",
        speedup.n, speedup.k, speedup.graph_seconds,
        static_cast<unsigned long long>(speedup.graph_budget),
        speedup.live_seconds * 1e3, speedup.speedup);
  }
  if (!ppk::bench::interrupted()) {
    er = measure_er_generation(er_n, seed, *reps);
    std::printf(
        "Connected G(n = %u, p = 2ln(n)/n): %llu edges in %.2fs, connected:\n"
        "%s (geometric-skip sampler, expected O(n + m)).\n",
        er.n, static_cast<unsigned long long>(er.edges), er.seconds,
        er.connected ? "yes" : "NO");
  }

  if (!common.json->empty()) {
    // Atomic (temp + rename): an interrupted run cannot leave a truncated
    // report where the regression gate expects a baseline.
    ppk::io::AtomicFileWriter file(*common.json);
    ppk::io::JsonWriter json(file.stream());
    json.begin_object();
    json.member("schema", "ppk-bench-topology-v1");
    json.member("bench", "topology_sensitivity");
    json.member("git_rev", *git_rev);
    json.member("smoke", *smoke);
    // True when SIGINT cut the run short: only the completed sweep points
    // are present, the wedged/ER rows are zeroed, and gates must not treat
    // the report as a baseline.
    json.member("interrupted", ppk::bench::interrupted());
    json.member("seed", static_cast<std::int64_t>(*common.seed));
    json.member("reps", std::max(1, *reps));
    json.member("sweep_n", static_cast<std::uint64_t>(n));
    json.member("sweep_budget", budget);
    json.key("machine");
    ppk::bench::write_machine_metadata(json);
    json.key("sweep");
    json.begin_array();
    for (const SweepRow& row : sweep) {
      json.begin_object();
      json.member("k", row.k);
      json.member("topology", row.topology);
      json.member("engine", row.engine);
      json.member("avg_degree", row.avg_degree);
      json.member("stabilized_rate", row.stabilized_rate);
      json.member("stalled_rate", row.stalled_rate);
      json.member("mean_interactions_stabilized",
                  row.mean_interactions_when_stabilized);
      json.member("trials", static_cast<std::int64_t>(row.trials));
      json.end_object();
    }
    json.end_array();
    json.key("wedged_ring_speedup");
    json.begin_object();
    json.member("n", static_cast<std::uint64_t>(speedup.n));
    json.member("k", speedup.k);
    json.member("graph_budget", speedup.graph_budget);
    json.member("graph_seconds", speedup.graph_seconds);
    json.member("live_seconds", speedup.live_seconds);
    json.member("live_trials_timed", speedup.live_trials);
    json.member("speedup", speedup.speedup);
    json.member("live_detected_wedge", speedup.live_detected_wedge);
    json.member("calibration_rate", speedup.calibration_rate);
    json.member("graph_rep_spread", speedup.graph_rep_spread);
    json.member("live_rep_spread", speedup.live_rep_spread);
    json.end_object();
    json.key("er_generation");
    json.begin_object();
    json.member("n", static_cast<std::uint64_t>(er.n));
    json.member("p", er.p);
    json.member("seconds", er.seconds);
    json.member("edges", er.edges);
    json.member("connected", er.connected);
    json.member("calibration_rate", er.calibration_rate);
    json.member("rep_spread", er.rep_spread);
    json.end_object();
    json.end_object();
    std::string error;
    if (!file.commit(&error)) {
      std::fprintf(stderr, "cannot write report: %s\n", error.c_str());
      return 1;
    }
    std::printf("\nwrote %s\n", common.json->c_str());
  }
  if (ppk::bench::interrupted()) {
    std::printf("\ninterrupted: %zu sweep point(s) completed before SIGINT\n",
                sweep.size());
    return 130;
  }
  return 0;
}
