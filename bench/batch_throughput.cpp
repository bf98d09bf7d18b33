// Engine throughput at scale: interactions per wall-second for every
// engine over an {n, k} grid, emitted as the machine-readable report
// (BENCH_ENGINES.json) the CI regression gate checks.
//
// Metric.  Each (engine, n, k) point runs the paper's protocol from the
// all-initial configuration toward the stable pattern, under a wall-clock
// cap, and reports interactions advanced per second.  A trajectory that
// stabilizes in under the minimum measurement window is repeated (same
// seed, bit-identical work) until the window fills, so short rows are
// timed over hundreds of milliseconds rather than single-digit ones.
// The aggregating engines (jump, batch) typically reach stabilization
// inside the cap -- their rate is an honest full-trajectory average,
// including the null-dominated endgame they skip through.  The pairwise
// engine (agent) cannot finish Theta(n^2) interactions at large n inside
// any reasonable cap; it is clock-capped mid-trajectory, which is still an
// honest rate for IT because its per-interaction cost does not depend on
// the phase.  Comparing the two is exactly the comparison a user cares
// about: wall time per simulated interaction, over the trajectory each
// engine would actually execute.
//
// Calibration.  Shared machines drift in effective CPU frequency under
// sustained load (tens of percent, on timescales from milliseconds to
// minutes), so raw rates from two benchmarking sessions are not comparable
// at the percent level no matter how many reps are taken.  Each measurement
// therefore interleaves short slices of a fixed xoshiro256** kernel with
// the simulation chunks; the slices' aggregate rate samples the machine's
// effective frequency over the SAME window as the measurement itself, and
// the report carries it as calibration_rate.  The regression gate divides
// rates by it, cancelling the frequency term.  Slice time is excluded from
// the reported seconds.
//
// The JSON report carries machine metadata and (via --git-rev, filled in
// by scripts/run_benchmarks.sh) the source revision, so committed baselines
// are auditable.
//
// Beyond the grid, the v2 report adds two blocks for the sharded engine:
// "sampler_setup" (cold shared log-factorial build vs warm engine
// construction -- a hard in-bench assertion that per-engine sampler setup
// is amortized out) and "sharded_scale" (one deep exact-budget trial at
// n = 10^8 -- 4x10^6 in smoke mode -- batch baseline vs sharded at worker
// counts 1/2/4/8, each row carrying a verdict fingerprint that must match
// across reps and thread counts; the bench exits nonzero if not).  The v3
// report adds "auto_crossover": agent vs jump timed to stabilization over
// 32 fixed-seed trials per (family, k, n) point below the batch band,
// with the engine kAuto picks there -- the gate behind pp::kJumpCrossover.
// The v4 report's grid engine set is agent, jump, batch and sharded
// (v1-v3 also carried a count-vector engine, since deleted).

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.hpp"
#include "core/graph_bipartition.hpp"
#include "core/invariants.hpp"
#include "core/kpartition.hpp"
#include "core/weak_kpartition.hpp"
#include "obs/sink.hpp"
#include "pp/agent_simulator.hpp"
#include "pp/batch_sharded_simulator.hpp"
#include "pp/batch_simulator.hpp"
#include "pp/jump_simulator.hpp"
#include "pp/monte_carlo.hpp"
#include "pp/stability.hpp"
#include "pp/transition_table.hpp"
#include "util/log_fact.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/stopwatch.hpp"

namespace {

struct Measurement {
  double seconds = 0.0;
  std::uint64_t interactions = 0;
  std::uint64_t effective = 0;
  bool stabilized = false;
  std::uint64_t calibration_draws = 0;
  double calibration_seconds = 0.0;

  double calibration_rate() const {
    return calibration_seconds > 0.0
               ? static_cast<double>(calibration_draws) / calibration_seconds
               : 0.0;
  }
};

volatile std::uint64_t g_calibration_sink = 0;

/// One slice of the fixed ALU-bound calibration kernel; returns its
/// duration.  Aggregated slice rate tracks the machine's momentary
/// effective frequency, which is the only thing that separates two runs
/// of the same (seeded, deterministic) row.
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

/// Chunked run under a wall-clock cap: run() once, then resume() so the
/// oracle's progress and the interaction stream are those of one unchunked
/// trajectory (the engines' budgets are exact, so chunk accounting is too).
template <typename Sim>
Measurement measure(Sim& sim, ppk::pp::StabilityOracle& oracle,
                    double wall_cap_seconds) {
  constexpr std::uint64_t kChunk = 1ULL << 22;
  constexpr double kCalibrateEvery = 0.02;  // seconds of measured sim time
  Measurement m;
  const ppk::Stopwatch total;  // caps sim + calibration together
  double measured = 0.0;
  double since_calibration = 0.0;
  bool first = true;
  while (true) {
    const ppk::Stopwatch chunk_clock;
    const ppk::pp::SimResult r =
        first ? sim.run(oracle, kChunk) : sim.resume(oracle, kChunk);
    const double chunk_seconds = chunk_clock.seconds();
    measured += chunk_seconds;
    since_calibration += chunk_seconds;
    first = false;
    m.interactions += r.interactions;
    m.effective += r.effective;
    bool done = false;
    if (r.stabilized) {
      m.stabilized = true;
      done = true;
    } else if (r.interactions < kChunk) {
      done = true;  // silent / stalled
    } else if (total.seconds() >= wall_cap_seconds) {
      done = true;
    }
    // Sample the machine's momentary speed inside the measurement window
    // itself (frequency fluctuates too fast for a before/after probe).
    if (since_calibration >= kCalibrateEvery || done) {
      m.calibration_seconds += calibration_slice(&m.calibration_draws);
      since_calibration = 0.0;
    }
    if (done) break;
  }
  m.seconds = measured;
  return m;
}

/// Trajectories that stabilize in milliseconds are too short to time at
/// the percent level, so repeat the identical (same-seed) trajectory until
/// the measured window reaches kMinMeasureSeconds and report the totals:
/// per-trajectory noise and calibration-slice noise both average out over
/// the full window.  Clock-capped rows already fill the window and run
/// once.
template <typename Sim, typename MakeSim>
Measurement measure_repeated(MakeSim make_sim,
                             const ppk::core::KPartitionProtocol& protocol,
                             std::uint32_t n, double wall_cap_seconds) {
  constexpr double kMinMeasureSeconds = 0.3;
  Measurement total;
  while (true) {
    const auto oracle = ppk::core::stable_pattern_oracle(protocol, n);
    Sim sim = make_sim();
    const Measurement one = measure(sim, *oracle, wall_cap_seconds);
    total.seconds += one.seconds;
    total.interactions += one.interactions;
    total.effective += one.effective;
    total.stabilized = one.stabilized;
    total.calibration_draws += one.calibration_draws;
    total.calibration_seconds += one.calibration_seconds;
    if (!one.stabilized) break;  // capped or stalled: window already full
    if (total.seconds + total.calibration_seconds >=
        std::min(wall_cap_seconds, kMinMeasureSeconds)) {
      break;
    }
  }
  return total;
}

Measurement measure_engine(ppk::pp::Engine engine,
                           const ppk::pp::TransitionTable& table,
                           const ppk::core::KPartitionProtocol& protocol,
                           std::uint32_t n, std::uint64_t seed,
                           double wall_cap_seconds) {
  ppk::pp::Counts initial(protocol.num_states(), 0);
  initial[protocol.initial_state()] = n;
  switch (engine) {
    case ppk::pp::Engine::kAgentArray:
      return measure_repeated<ppk::pp::AgentSimulator>(
          [&] {
            return ppk::pp::AgentSimulator(table, ppk::pp::Population(initial),
                                           seed);
          },
          protocol, n, wall_cap_seconds);
    case ppk::pp::Engine::kJump:
      return measure_repeated<ppk::pp::JumpSimulator>(
          [&] { return ppk::pp::JumpSimulator(table, initial, seed); },
          protocol, n, wall_cap_seconds);
    case ppk::pp::Engine::kBatchSharded:
      return measure_repeated<ppk::pp::BatchShardedSimulator>(
          [&] { return ppk::pp::BatchShardedSimulator(table, initial, seed); },
          protocol, n, wall_cap_seconds);
    default:
      return measure_repeated<ppk::pp::BatchSimulator>(
          [&] { return ppk::pp::BatchSimulator(table, initial, seed); },
          protocol, n, wall_cap_seconds);
  }
}

/// Engine spelling of this bench's report rows ("sharded", not the scenario
/// spelling "batch-sharded" of ppk::pp::engine_name): the committed
/// BENCH_ENGINES.json baseline and its regression gates key on it.
const char* report_engine_name(ppk::pp::Engine e) {
  switch (e) {
    case ppk::pp::Engine::kAgentArray: return "agent";
    case ppk::pp::Engine::kJump: return "jump";
    case ppk::pp::Engine::kBatchSharded: return "sharded";
    default: return "batch";
  }
}

// ---------------------------------------------------------------------------
// Sampler-setup amortization (the hoisted log-factorial table)

/// FNV-1a over the final configuration and totals: the row's verdict.
/// Trajectories are pure functions of the seed, so two rows of the same
/// (n, k, seed, budget) must fingerprint identically no matter the thread
/// count or SIMD dispatch -- the property the scale gate pins.
std::uint64_t verdict_fingerprint(const ppk::pp::Counts& counts,
                                  std::uint64_t interactions,
                                  std::uint64_t effective) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xFF;
      h *= 1099511628211ULL;
    }
  };
  mix(interactions);
  mix(effective);
  for (const std::uint32_t c : counts) mix(c);
  return h;
}

struct SamplerSetup {
  double cold_table_seconds = 0.0;  // first shared log-factorial build
  double warm_engine_seconds = 0.0; // per-engine construction, table hot
  double warm_fraction = 0.0;       // warm / cold
};

/// Must run before anything touches the shared table: the first call pays
/// the full lgamma fill (the "cold" cost the singleton exists to amortize),
/// after which engine construction only allocates tiles.  The bench
/// asserts the amortization (warm construction well under the cold build)
/// so a regression that re-derives the table per engine -- the exact cost
/// the hoist removed -- fails loudly rather than just benching slower.
SamplerSetup measure_sampler_setup() {
  SamplerSetup s;
  {
    const ppk::Stopwatch clock;
    const ppk::LogFact cold(ppk::kLogFactTableSize - 1);
    s.cold_table_seconds = clock.seconds();
    g_calibration_sink = static_cast<std::uint64_t>(cold(1000.0));
  }
  const ppk::core::KPartitionProtocol protocol(3);
  const ppk::pp::TransitionTable table(protocol);
  const std::uint32_t n = 2'000'000;
  ppk::pp::Counts initial(protocol.num_states(), 0);
  initial[protocol.initial_state()] = n;
  constexpr int kWarmEngines = 8;
  const ppk::Stopwatch clock;
  for (int i = 0; i < kWarmEngines; ++i) {
    ppk::pp::BatchShardedSimulator sim(table, initial, 1);
    g_calibration_sink = sim.population_size();
  }
  s.warm_engine_seconds = clock.seconds() / kWarmEngines;
  s.warm_fraction = s.cold_table_seconds > 0.0
                        ? s.warm_engine_seconds / s.cold_table_seconds
                        : 1.0;
  return s;
}

// ---------------------------------------------------------------------------
// The sharded-scale block: single trial at n = 10^8

/// Budget-bounded chunked measurement (exact interaction count, so the
/// verdict fingerprint is comparable across rows), with the same
/// interleaved calibration slices as the wall-capped grid rows.
template <typename Sim>
Measurement measure_budget(Sim& sim, ppk::pp::StabilityOracle& oracle,
                           std::uint64_t budget) {
  constexpr std::uint64_t kChunk = 1ULL << 22;
  constexpr double kCalibrateEvery = 0.02;
  Measurement m;
  double since_calibration = 0.0;
  bool first = true;
  std::uint64_t remaining = budget;
  while (remaining > 0) {
    const std::uint64_t grant = std::min<std::uint64_t>(kChunk, remaining);
    const ppk::Stopwatch chunk_clock;
    const ppk::pp::SimResult r =
        first ? sim.run(oracle, grant) : sim.resume(oracle, grant);
    const double chunk_seconds = chunk_clock.seconds();
    m.seconds += chunk_seconds;
    since_calibration += chunk_seconds;
    first = false;
    m.interactions += r.interactions;
    m.effective += r.effective;
    remaining -= r.interactions;
    const bool done = r.stabilized || r.interactions < grant || remaining == 0;
    if (r.stabilized) m.stabilized = true;
    if (since_calibration >= kCalibrateEvery || done) {
      m.calibration_seconds += calibration_slice(&m.calibration_draws);
      since_calibration = 0.0;
    }
    if (done && remaining > 0) break;  // stabilized or silent before budget
  }
  return m;
}

struct ScaleRow {
  const char* engine;
  std::size_t threads;
  Measurement m;
  double rate = 0.0;
  double calibration = 0.0;
  double rep_spread = 0.0;
  std::uint64_t fingerprint = 0;
};

// ---------------------------------------------------------------------------
// The auto_crossover block: kAuto's small-n pick against both candidates

/// One (family, k, n) point: both candidate engines timed to stabilization
/// over the same fixed-seed trials, and the engine kAuto picks there.
struct CrossoverPoint {
  const char* family;
  ppk::pp::GroupId k;
  std::uint32_t n;
  ppk::pp::Engine pick;
  double agent_seconds = 0.0;
  double jump_seconds = 0.0;
  std::uint64_t agent_interactions = 0;
  std::uint64_t jump_interactions = 0;
  bool stabilized = true;  // every trial, both engines

  [[nodiscard]] double pick_seconds() const {
    return pick == ppk::pp::Engine::kJump ? jump_seconds : agent_seconds;
  }
  /// kAuto's pick against the faster candidate (1 = kAuto chose right).
  [[nodiscard]] double pick_ratio() const {
    const double best = std::min(agent_seconds, jump_seconds);
    return best > 0.0 ? pick_seconds() / best : 1.0;
  }
};

/// Times `trials` fixed-seed trials of one engine to stabilization through
/// run_monte_carlo, single-threaded -- the path every kAuto caller takes.
/// Returns the wall seconds; stores the trials' total interactions in
/// `interactions` and clears `stabilized` if any trial missed.
double time_to_stabilization(ppk::pp::Engine engine,
                             const ppk::pp::Protocol& protocol,
                             const ppk::pp::TransitionTable& table,
                             std::uint32_t n,
                             const ppk::pp::OracleFactory& make_oracle,
                             std::uint32_t trials, std::uint64_t seed,
                             std::uint64_t* interactions, bool* stabilized) {
  ppk::pp::MonteCarloOptions options;
  options.trials = trials;
  options.master_seed = seed;
  options.engine = engine;
  options.threads = 1;
  const ppk::Stopwatch clock;
  const ppk::pp::MonteCarloResult result =
      ppk::pp::run_monte_carlo(protocol, table, n, make_oracle, options);
  const double seconds = clock.seconds();
  std::uint64_t total = 0;
  for (const auto& t : result.trials) total += t.interactions;
  *interactions = total;
  if (result.stabilized_count() != trials) *stabilized = false;
  return seconds;
}

/// Measures one crossover point: agent and jump alternate `reps` times
/// (ABAB, so slow drift hits both) and each keeps its fastest rep --
/// interference only ever slows a run down.
CrossoverPoint measure_crossover(const char* family, ppk::pp::GroupId k,
                                 std::uint32_t n,
                                 const ppk::pp::Protocol& protocol,
                                 const ppk::pp::TransitionTable& table,
                                 const ppk::pp::OracleFactory& make_oracle,
                                 std::uint32_t trials, std::uint64_t seed,
                                 int reps) {
  CrossoverPoint point{family, k, n,
                       ppk::pp::resolve_engine(ppk::pp::Engine::kAuto, n,
                                               /*watch=*/false)};
  for (int rep = 0; rep < std::max(1, reps); ++rep) {
    const double agent = time_to_stabilization(
        ppk::pp::Engine::kAgentArray, protocol, table, n, make_oracle, trials,
        seed, &point.agent_interactions, &point.stabilized);
    const double jump = time_to_stabilization(
        ppk::pp::Engine::kJump, protocol, table, n, make_oracle, trials, seed,
        &point.jump_interactions, &point.stabilized);
    point.agent_seconds =
        rep == 0 ? agent : std::min(point.agent_seconds, agent);
    point.jump_seconds = rep == 0 ? jump : std::min(point.jump_seconds, jump);
  }
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  ppk::Cli cli("batch_throughput",
               "Interactions/second per engine over an {n, k} grid.");
  ppk::bench::CommonFlags common(cli, /*default_trials=*/1);
  auto smoke = cli.flag<bool>(
      "smoke", false, "tiny grid + short caps (CI regression gate)");
  auto seconds = cli.flag<double>(
      "seconds", 0.0, "wall-clock cap per point (0 = 2.0 full, 0.5 smoke)");
  auto reps = cli.flag<int>(
      "reps", 1,
      "measurements per point; the best rate is reported (suppresses timer "
      "noise for tight gates like the observability-overhead check)");
  auto git_rev = cli.flag<std::string>(
      "git-rev", "unknown", "source revision recorded in the JSON report");
  cli.parse(argc, argv);
  ppk::bench::install_sigint_handler();

  const double cap = *seconds > 0.0 ? *seconds : (*smoke ? 0.5 : 2.0);

  ppk::bench::print_header("Engine throughput",
                           "interactions per wall-second, per engine");

  // Runs first, while the shared log-factorial table is genuinely cold.
  const SamplerSetup setup = measure_sampler_setup();
  std::printf(
      "sampler setup: cold table %.2f ms, warm engine %.3f ms per "
      "construction (%.2f%% of cold)\n",
      setup.cold_table_seconds * 1e3, setup.warm_engine_seconds * 1e3,
      setup.warm_fraction * 100.0);
  if (setup.warm_fraction >= 0.5) {
    std::fprintf(stderr,
                 "sampler-setup regression: warm engine construction costs "
                 "%.0f%% of the cold log-factorial build -- the shared table "
                 "is not being reused across engines\n",
                 setup.warm_fraction * 100.0);
    return 1;
  }

  struct Case {
    ppk::pp::GroupId k;
    std::uint32_t n;
  };
  std::vector<Case> cases;
  if (*smoke) {
    cases = {Case{3, 10'000}, Case{3, 100'000}};
  } else {
    cases = {Case{3, 10'000},  Case{8, 10'000}, Case{3, 100'000},
             Case{8, 100'000}, Case{3, 1'000'000}};
  }
  const std::vector<ppk::pp::Engine> engines = {
      ppk::pp::Engine::kAgentArray, ppk::pp::Engine::kJump,
      ppk::pp::Engine::kBatch, ppk::pp::Engine::kBatchSharded};

  ppk::analysis::Table table({"k", "n", "engine", "interactions", "seconds",
                              "stabilized", "M interactions/s"});

  struct Row {
    Case c;
    const char* engine;
    Measurement m;
    double rate;
    double calibration;
    double rep_spread;
  };
  std::vector<Row> rows;
  for (const Case& c : cases) {
    // Ctrl-C: the in-flight point finishes, the sweep stops here, and the
    // report below is still written (flagged interrupted) atomically.
    if (ppk::bench::interrupted()) break;
    const ppk::core::KPartitionProtocol protocol(c.k);
    const ppk::pp::TransitionTable transitions(protocol);
    for (const auto engine : engines) {
      if (ppk::bench::interrupted()) break;
      const auto seed = static_cast<std::uint64_t>(*common.seed);
      // Same seed every rep: the work is identical, so the best rate is a
      // pure timer-noise floor, not a different trajectory.  Interference
      // only ever slows a kernel down, so the simulation rate and the
      // calibration rate are floored INDEPENDENTLY across reps -- keeping
      // the pair from a single rep would let a disturbed calibration slice
      // inflate the calibrated ratio.
      Measurement m;
      double rate = 0.0;
      double calibration = 0.0;
      double norm_lo = 0.0;
      double norm_hi = 0.0;
      for (int rep = 0; rep < std::max(1, *reps); ++rep) {
        const Measurement candidate =
            measure_engine(engine, transitions, protocol, c.n, seed, cap);
        const double candidate_rate =
            candidate.seconds > 0
                ? static_cast<double>(candidate.interactions) /
                      candidate.seconds
                : 0.0;
        if (rep == 0 || candidate_rate > rate) {
          m = candidate;
          rate = candidate_rate;
        }
        calibration = std::max(calibration, candidate.calibration_rate());
        const double normalized =
            candidate_rate / candidate.calibration_rate();
        norm_lo = rep == 0 ? normalized : std::min(norm_lo, normalized);
        norm_hi = rep == 0 ? normalized : std::max(norm_hi, normalized);
      }
      // The spread of per-rep calibrated rates is the row's own noise
      // estimate; the regression gate widens its tolerance by it, so the
      // gate is tight exactly when the machine was quiet enough to earn it.
      const double rep_spread = norm_hi > 0.0 ? 1.0 - norm_lo / norm_hi : 0.0;
      rows.push_back(
          {c, report_engine_name(engine), m, rate, calibration, rep_spread});
      table.row(int{c.k}, c.n, report_engine_name(engine), m.interactions,
                m.seconds, m.stabilized ? "yes" : "no", rate / 1e6);
    }
  }
  table.print(std::cout);
  std::printf(
      "\nReading: agent pays per drawn pair, so it is clock-capped\n"
      "mid-trajectory at large n; jump skips null runs; batch additionally\n"
      "aggregates the dense phase in collision-free groups; sharded is the\n"
      "SoA/SIMD rebuild of batch.  Rates are honest per-engine averages over\n"
      "the trajectory each one executes.\n");

  // -- Sharded-scale: one deep trial at large n under an exact budget -------
  //
  // The regime the sharded engine exists for.  One trajectory, fixed
  // interaction budget (so every row does literally the same work), batch
  // baseline plus sharded at worker counts 1/2/4/8 with the production
  // parallel grain.  Each row's verdict fingerprint (final counts + totals)
  // must agree across reps AND across thread counts -- bit-determinism is
  // checked here in the shipping binary, not just in unit tests.
  const std::uint32_t scale_n = *smoke ? 4'000'000u : 100'000'000u;
  const std::uint64_t scale_budget = *smoke ? (1ULL << 25) : (1ULL << 28);
  constexpr ppk::pp::GroupId kScaleK = 3;
  std::vector<ScaleRow> scale_rows;
  bool scale_deterministic = true;
  if (!ppk::bench::interrupted()) {
    std::printf("\nsharded scale: k=%d n=%u budget=%llu simd=%s\n",
                int{kScaleK}, scale_n,
                static_cast<unsigned long long>(scale_budget),
                ppk::simd::active_name());
    const ppk::core::KPartitionProtocol protocol(kScaleK);
    const ppk::pp::TransitionTable transitions(protocol);
    ppk::pp::Counts initial(protocol.num_states(), 0);
    initial[protocol.initial_state()] = scale_n;
    const auto seed = static_cast<std::uint64_t>(*common.seed);
    const auto run_row = [&](const char* name, std::size_t threads,
                             auto make_sim) {
      ScaleRow row;
      row.engine = name;
      row.threads = threads;
      double norm_lo = 0.0;
      double norm_hi = 0.0;
      bool have_row = false;
      for (int rep = 0; rep < std::max(1, *reps); ++rep) {
        if (ppk::bench::interrupted()) return;
        const auto oracle =
            ppk::core::stable_pattern_oracle(protocol, scale_n);
        auto sim = make_sim();
        const Measurement candidate =
            measure_budget(sim, *oracle, scale_budget);
        const std::uint64_t fp = verdict_fingerprint(
            sim.counts(), sim.interactions(), candidate.effective);
        if (rep == 0) {
          row.fingerprint = fp;
        } else if (row.fingerprint != fp) {
          std::fprintf(
              stderr,
              "determinism violation: %s threads=%zu rep %d fingerprint "
              "%016llx != rep 0 %016llx\n",
              name, threads, rep, static_cast<unsigned long long>(fp),
              static_cast<unsigned long long>(row.fingerprint));
          scale_deterministic = false;
        }
        const double candidate_rate =
            candidate.seconds > 0
                ? static_cast<double>(candidate.interactions) /
                      candidate.seconds
                : 0.0;
        if (rep == 0 || candidate_rate > row.rate) {
          row.m = candidate;
          row.rate = candidate_rate;
        }
        row.calibration =
            std::max(row.calibration, candidate.calibration_rate());
        const double normalized =
            candidate_rate / candidate.calibration_rate();
        norm_lo = rep == 0 ? normalized : std::min(norm_lo, normalized);
        norm_hi = rep == 0 ? normalized : std::max(norm_hi, normalized);
        have_row = true;
      }
      if (!have_row) return;
      row.rep_spread = norm_hi > 0.0 ? 1.0 - norm_lo / norm_hi : 0.0;
      scale_rows.push_back(row);
      std::printf("  %-8s threads=%zu  %8.1f M/s  spread %.3f  verdict %016llx\n",
                  row.engine, row.threads, row.rate / 1e6, row.rep_spread,
                  static_cast<unsigned long long>(row.fingerprint));
    };
    run_row("batch", 1, [&] {
      return ppk::pp::BatchSimulator(transitions, initial, seed);
    });
    for (const std::size_t t : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                                std::size_t{8}}) {
      if (ppk::bench::interrupted()) break;
      run_row("sharded", t, [&] {
        return ppk::pp::BatchShardedSimulator(transitions, initial, seed, t);
      });
    }
    // Thread invariance: every completed sharded row must reach the same
    // verdict; workers decide when shard work runs, never what it draws.
    const ScaleRow* first_sharded = nullptr;
    for (const ScaleRow& r : scale_rows) {
      if (std::string_view(r.engine) != "sharded") continue;
      if (first_sharded == nullptr) {
        first_sharded = &r;
      } else if (r.fingerprint != first_sharded->fingerprint) {
        std::fprintf(
            stderr,
            "determinism violation: sharded threads=%zu verdict %016llx != "
            "threads=%zu verdict %016llx\n",
            r.threads, static_cast<unsigned long long>(r.fingerprint),
            first_sharded->threads,
            static_cast<unsigned long long>(first_sharded->fingerprint));
        scale_deterministic = false;
      }
    }
  }

  // -- Auto crossover: kAuto's agent/jump pick below the batch band --------
  //
  // Both candidate engines run the same fixed-seed trials to stabilization
  // at every point, for the three protocol families kAuto callers run
  // (Algorithm 1, the weak-fairness family under the silence oracle, graph
  // bipartition on the complete graph).  Gate 7 of
  // scripts/check_bench_regression.py holds kAuto's jump pick within 1.2x
  // of the faster engine and checks that agent still wins somewhere just
  // below the crossover; it compares two engines of one run, so it holds
  // on any machine.
  std::vector<CrossoverPoint> crossover;
  const std::uint32_t crossover_trials = 32;
  {
    const std::vector<std::uint32_t> ns =
        *smoke ? std::vector<std::uint32_t>{256, 320, 512, 1000}
               : std::vector<std::uint32_t>{128, 256, 320, 384, 512, 768,
                                            1000};
    const std::vector<ppk::pp::GroupId> kpartition_ks =
        *smoke ? std::vector<ppk::pp::GroupId>{2, 8, 16}
               : std::vector<ppk::pp::GroupId>{2, 3, 4, 6, 8, 16};
    const std::vector<ppk::pp::GroupId> weak_ks =
        *smoke ? std::vector<ppk::pp::GroupId>{3}
               : std::vector<ppk::pp::GroupId>{2, 3, 4};
    const auto seed = static_cast<std::uint64_t>(*common.seed);
    ppk::analysis::Table out({"family", "k", "n", "agent s", "jump s",
                              "kAuto", "pick / best"});
    const auto measure = [&](const char* family, ppk::pp::GroupId k,
                             std::uint32_t n, const ppk::pp::Protocol& protocol,
                             const ppk::pp::TransitionTable& transitions,
                             const ppk::pp::OracleFactory& make_oracle) {
      if (ppk::bench::interrupted()) return;
      crossover.push_back(measure_crossover(family, k, n, protocol, transitions,
                                            make_oracle, crossover_trials,
                                            seed, *reps));
      const CrossoverPoint& p = crossover.back();
      out.row(family, int{k}, n, p.agent_seconds, p.jump_seconds,
              report_engine_name(p.pick), p.pick_ratio());
    };
    std::printf("\nauto crossover: %u trials per engine and point\n",
                crossover_trials);
    for (const ppk::pp::GroupId k : kpartition_ks) {
      const ppk::core::KPartitionProtocol protocol(k);
      const ppk::pp::TransitionTable transitions(protocol);
      for (const std::uint32_t n : ns) {
        measure("kpartition", k, n, protocol, transitions, [&protocol, n] {
          return ppk::core::stable_pattern_oracle(protocol, n);
        });
      }
    }
    for (const ppk::pp::GroupId k : weak_ks) {
      const ppk::core::WeakKPartitionProtocol protocol(k);
      const ppk::pp::TransitionTable transitions(protocol);
      for (const std::uint32_t n : ns) {
        measure("weak-kpartition", k, n, protocol, transitions, [&transitions] {
          return std::make_unique<ppk::pp::SilenceOracle>(transitions);
        });
      }
    }
    {
      const ppk::core::GraphBipartitionProtocol protocol;
      const ppk::pp::TransitionTable transitions(protocol);
      for (const std::uint32_t n : ns) {
        measure("graph-bipartition", 2, n, protocol, transitions,
                [&protocol, n] {
                  return ppk::core::graph_bipartition_stable_oracle(protocol,
                                                                    n);
                });
      }
    }
    out.print(std::cout);
  }

  if (!common.json->empty()) {
    // Atomic (temp + rename): an interrupted run cannot leave a truncated
    // report where the regression gate expects a baseline.
    ppk::io::AtomicFileWriter file(*common.json);
    ppk::io::JsonWriter json(file.stream());
    json.begin_object();
    json.member("schema", "ppk-bench-engines-v4");
    json.member("bench", "batch_throughput");
    json.member("git_rev", *git_rev);
    json.member("smoke", *smoke);
    // Which sampler kernels ran: "avx2" or "scalar" (runtime dispatch; the
    // forced-scalar CI leg sets PPK_NO_SIMD=1).  Verdict fingerprints are
    // bit-identical across dispatch, so this is provenance, not a gate key.
    json.member("simd", ppk::simd::active_name());
    // True when SIGINT cut the sweep short: the results array only covers
    // the points that completed, and gates must not treat it as a baseline.
    json.member("interrupted", ppk::bench::interrupted());
    json.member("wall_cap_seconds", cap);
    json.member("seed", static_cast<std::int64_t>(*common.seed));
    json.member("reps", std::max(1, *reps));
    // Whether the observability hooks were compiled into the engines for
    // this run (no sink is ever attached here); the regression gate uses
    // this to decide when the <= 2% overhead check applies.
    json.key("observability");
    json.begin_object();
    json.member("compiled", PPK_OBS_ENABLED != 0);
    json.member("sink_attached", false);
    json.end_object();
    json.key("machine");
    ppk::bench::write_machine_metadata(json);
    // Sampler-setup amortization evidence: the shared log-factorial table
    // is built once (cold) and engine construction afterwards must be a
    // small fraction of it.  The bench already hard-fails on >= 0.5; the
    // gate re-checks the recorded number so a baseline can't hide it.
    json.key("sampler_setup");
    json.begin_object();
    json.member("cold_table_seconds", setup.cold_table_seconds);
    json.member("warm_engine_seconds", setup.warm_engine_seconds);
    json.member("warm_fraction", setup.warm_fraction);
    json.end_object();
    json.key("results");
    json.begin_array();
    for (const Row& r : rows) {
      json.begin_object();
      json.member("engine", r.engine);
      json.member("k", int{r.c.k});
      json.member("n", static_cast<std::uint64_t>(r.c.n));
      json.member("interactions", r.m.interactions);
      json.member("effective", r.m.effective);
      json.member("seconds", r.m.seconds);
      json.member("stabilized", r.m.stabilized);
      json.member("interactions_per_second", r.rate);
      // Best aggregate rate of the interleaved calibration slices across
      // reps; comparisons divide by it to cancel machine frequency drift.
      json.member("calibration_rate", r.calibration);
      // Fractional spread of per-rep calibrated rates: the measurement's
      // own uncertainty; the gate adds it to its tolerance.
      json.member("rep_spread", r.rep_spread);
      json.end_object();
    }
    json.end_array();
    // The deep single-trial block: exact-budget rows, so rates are
    // comparable across engines/threads within the report, and the verdict
    // fingerprints pin bit-determinism (hex strings -- JSON doubles cannot
    // carry 64 bits).
    json.key("sharded_scale");
    json.begin_object();
    json.member("k", int{kScaleK});
    json.member("n", static_cast<std::uint64_t>(scale_n));
    json.member("budget", scale_budget);
    json.member("seed", static_cast<std::int64_t>(*common.seed));
    json.member("deterministic", scale_deterministic);
    json.key("rows");
    json.begin_array();
    for (const ScaleRow& r : scale_rows) {
      char verdict[17];
      std::snprintf(verdict, sizeof verdict, "%016llx",
                    static_cast<unsigned long long>(r.fingerprint));
      json.begin_object();
      json.member("engine", r.engine);
      json.member("threads", static_cast<std::uint64_t>(r.threads));
      json.member("interactions", r.m.interactions);
      json.member("effective", r.m.effective);
      json.member("seconds", r.m.seconds);
      json.member("stabilized", r.m.stabilized);
      json.member("interactions_per_second", r.rate);
      json.member("calibration_rate", r.calibration);
      json.member("rep_spread", r.rep_spread);
      json.member("fingerprint", verdict);
      json.end_object();
    }
    json.end_array();
    json.end_object();
    // The kAuto gate: per point, both candidates' best-of-reps seconds over
    // the same fixed-seed trials, and kAuto's pick.
    json.key("auto_crossover");
    json.begin_object();
    json.member("trials", static_cast<std::uint64_t>(crossover_trials));
    json.member("seed", static_cast<std::int64_t>(*common.seed));
    json.key("points");
    json.begin_array();
    for (const CrossoverPoint& p : crossover) {
      json.begin_object();
      json.member("family", p.family);
      json.member("k", int{p.k});
      json.member("n", static_cast<std::uint64_t>(p.n));
      json.member("pick", report_engine_name(p.pick));
      json.member("agent_seconds", p.agent_seconds);
      json.member("jump_seconds", p.jump_seconds);
      json.member("agent_interactions", p.agent_interactions);
      json.member("jump_interactions", p.jump_interactions);
      json.member("stabilized", p.stabilized);
      json.member("pick_ratio", p.pick_ratio());
      json.end_object();
    }
    json.end_array();
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
    std::printf("\ninterrupted: %zu point(s) completed before SIGINT\n",
                rows.size());
    return 130;
  }
  if (!scale_deterministic) {
    std::fprintf(stderr, "sharded-scale determinism check FAILED\n");
    return 1;
  }
  return 0;
}
