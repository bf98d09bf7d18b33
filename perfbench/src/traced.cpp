// The traced run (--trace 1): every layer's per-layer figures from one
// process.  Each workload family answers untraced and traced (spans around
// every call into the library plus the probe counters), after an untraced
// warm-up; all its answers must be identical.  The selected workload's
// family alternates several such pairs, and the ratio of the traced and
// untraced median wall times is the tracing overhead.  Engine, solver,
// campaign, serve and io probes then time single public calls directly.
//
// Spans are recorded from this file and the workload files only; nothing
// inside the library is instrumented here.

#include <sys/stat.h>

#include <fstream>
#include <iterator>
#include <set>
#include <utility>

#include "core/campaign.hpp"
#include "inputs.hpp"
#include "io/atomic_file.hpp"
#include "pp/batch_sharded_simulator.hpp"
#include "pp/batch_simulator.hpp"
#include "ppkd_client.hpp"
#include "serve/cache.hpp"
#include "serve/scenario.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"
#include "verify/lumped_markov.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace pp = ppk::pp;
namespace core = ppk::core;
namespace verify = ppk::verify;
namespace serve = ppk::serve;

namespace {

/// Interactions each step-driven engine probe runs.
constexpr std::uint64_t kStepProbeBudget = 1ULL << 28;
/// Requests of the traced ppkd pass after the mix's warm-up set.
constexpr std::size_t kTracedHits = 200;
/// Repeats of each in-process micro-probe (its median is reported).
constexpr int kProbeRepeats = 41;
/// Untraced/traced answer pairs of the selected workload's family (its
/// overhead is the ratio of their medians); other families answer one pair.
constexpr int kOverheadPairs = 4;

/// Median wall time in microseconds of `kProbeRepeats` calls of `fn(i)`.
template <class Fn>
double median_us(Fn&& fn) {
  std::vector<double> t;
  for (int i = 0; i < kProbeRepeats; ++i) {
    const double t0 = now_s();
    fn(i);
    t.push_back((now_s() - t0) * 1e6);
  }
  return median(t);
}

struct StepProbe {
  double construct_s = 0.0;
  double run_s = 0.0;
  std::uint64_t interactions = 0;
  std::vector<double> step_us;
  pp::Counts counts;
};

template <class Engine, class... Extra>
StepProbe step_engine(Tracer& tracer, const std::string& name,
                      const pp::TransitionTable& table, std::uint32_t n,
                      std::uint64_t seed, Extra... extra) {
  Span span(&tracer, "pp." + name);
  StepProbe probe;
  pp::Counts initial(table.num_states(), 0);
  initial[0] = n;  // KPartitionProtocol::kInitial
  double t0 = now_s();
  std::unique_ptr<Engine> engine;
  {
    Span construct(&tracer, "pp." + name + ".construct");
    engine = std::make_unique<Engine>(table, initial, seed, extra...);
  }
  probe.construct_s = now_s() - t0;
  pp::NeverStableOracle oracle;
  t0 = now_s();
  while (engine->interactions() < kStepProbeBudget) {
    const double s0 = now_s();
    if (!engine->step(oracle)) break;
    probe.step_us.push_back((now_s() - s0) * 1e6);
  }
  probe.run_s = now_s() - t0;
  probe.interactions = engine->interactions();
  probe.counts = engine->counts();
  return probe;
}

/// Traced and untraced wall times of one workload family.
struct Overhead {
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  [[nodiscard]] double ratio() const {
    return median(traced_s) / median(untraced_s);
  }
};

/// After one untraced warm-up answer, `pairs` untraced and traced answers
/// alternate, the traced one first in every other pair, so neither side
/// gets the cold start or a fixed place in the order.  `plain` and
/// `traced` answer once each and return the wall time.
template <class Plain, class Traced>
Overhead alternate(int pairs, Plain&& plain, Traced&& traced) {
  Overhead o;
  (void)plain();
  for (int i = 0; i < pairs; ++i) {
    if (i % 2 == 0) o.untraced_s.push_back(plain());
    o.traced_s.push_back(traced());
    if (i % 2 == 1) o.untraced_s.push_back(plain());
  }
  return o;
}

std::uint64_t counter(const ppk::obs::MetricsRegistry& r,
                      const std::string& name) {
  const auto it = r.counters().find(name);
  return it == r.counters().end() ? 0 : it->second.value();
}

/// The ppkd pass: a fresh daemon on a fresh state directory answers the
/// start of the ppkd_mix script (warm-up set, then hits and cold points).
struct PpkdPass {
  double wall_s = 0.0;
  std::vector<double> accept_ms;
  std::vector<double> cold_ms;
  std::vector<double> hit_ms;
  std::uint64_t frames = 0;
  std::uint64_t result_bytes = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t digest = 0xcbf29ce484222325ULL;
};

PpkdPass ppkd_pass(const RunConfig& cfg, const std::string& dir,
                   Tracer* tracer, Outcome& out) {
  ::mkdir(dir.c_str(), 0755);
  RunConfig sub = cfg;
  sub.run_dir = dir;
  // One start-up: the gated run times set-up, this pass only answers.
  PpkdEnv env(sub, 1);
  Client client(env.socket(), kFrameTimeout);
  const std::vector<Request> script =
      mix_script(cfg.seed, kWarmSet + kTracedHits);
  PpkdPass pass;
  std::vector<std::string> lines;
  const double t0 = now_s();
  for (std::size_t i = 0; i < script.size(); ++i) {
    Reply reply;
    {
      Span span(tracer, "serve.submit");
      reply = client.submit("t" + std::to_string(i), script[i].spec);
    }
    out.record(ppkd_reply_check(script[i], reply, lines).empty(),
               std::string("traced ppkd ") + kind_name(script[i].kind));
    pass.accept_ms.push_back(reply.accept_s * 1e3);
    (script[i].same_as < 0 ? pass.cold_ms : pass.hit_ms)
        .push_back(reply.total_s * 1e3);
    pass.frames += reply.frames;
    pass.result_bytes += reply.result_line.size();
    (reply.cached ? pass.hits : pass.misses) += 1;
    lines.push_back(reply.result_line);
    // The warm-up answers, digested as the gated run digests them.
    if (i < kWarmSet) pass.digest = fnv1a(reply.result_line, pass.digest);
  }
  pass.wall_s = now_s() - t0;
  out.record(env.daemon().shutdown(30.0), "traced ppkd: unclean shutdown");
  return pass;
}

}  // namespace

WorkloadResult run_traced(const RunConfig& cfg) {
  WorkloadResult result;
  Outcome& out = result.outcome;
  Metrics& m = result.metrics;
  Tracer tracer(ppk::derive_stream_seed(cfg.seed, 0x7ace));
  std::map<std::string, Overhead> overhead;
  std::map<std::string, std::string> digests;  // of the traced answers
  const std::string selected =
      cfg.workload.rfind("ppkd", 0) == 0 ? "ppkd" : cfg.workload;
  const auto pairs = [&selected](const std::string& family) {
    return family == selected ? kOverheadPairs : 1;
  };
  // Records whether every answer of a family had the same digest.
  const auto same_answers = [&out](const std::string& family,
                                   const std::set<std::string>& seen) {
    out.record(seen.size() == 1, "traced " + family +
                                     " answer differs from the untraced one");
  };
  const double run_t0 = now_s();

  // --- pp + core.oracle: the paper sweep --------------------------------
  {
    std::vector<double> builds;
    std::unique_ptr<PaperSweep> sweep;
    for (int r = 0; r < 5; ++r) {
      const double t0 = now_s();
      Span span(&tracer, "pp.table_build");
      sweep = std::make_unique<PaperSweep>(cfg.threads);
      builds.push_back(now_s() - t0);
    }
    m["pp.table_build_ms"] = {median(builds) * 1e3, "ms"};

    std::set<std::string> seen;
    PaperSweep::Answer plain;
    auto stats = std::make_unique<OracleStats>();
    ppk::obs::MetricsRegistry registry;
    overhead["paper_sweep"] = alternate(
        pairs("paper_sweep"),
        [&] {
          plain = sweep->run(nullptr, nullptr, nullptr, nullptr);
          seen.insert(PaperSweep::digest(plain));
          return plain.seconds;
        },
        [&] {
          // Counters of the last traced answer only.
          stats = std::make_unique<OracleStats>();
          registry = ppk::obs::MetricsRegistry{};
          Span span(&tracer, "bench.paper_sweep");
          const PaperSweep::Answer traced =
              sweep->run(&tracer, stats.get(), nullptr, &registry);
          digests["paper_sweep"] = PaperSweep::digest(traced);
          seen.insert(digests["paper_sweep"]);
          return traced.seconds;
        });
    same_answers("paper_sweep", seen);

    std::map<pp::Engine, double> picks;
    for (const SweepPoint& p : sweep->grid()) {
      picks[pp::resolve_engine(pp::Engine::kAuto, p.n, false)] += 1;
    }
    for (const LargeTrial& t : large_trials(cfg.seed)) {
      picks[pp::resolve_engine(pp::Engine::kAuto, t.n, false)] += 1;
    }
    m["pp.auto.agent"] = {picks[pp::Engine::kAgentArray], "count"};
    m["pp.auto.jump"] = {picks[pp::Engine::kJump], "count"};
    m["pp.auto.batch"] = {picks[pp::Engine::kBatch], "count"};
    m["pp.auto.sharded"] = {picks[pp::Engine::kBatchSharded], "count"};

    const auto interactions =
        static_cast<double>(counter(registry, "sim.interactions"));
    const auto effective =
        static_cast<double>(counter(registry, "sim.effective"));
    m["pp.sim.interactions"] = {interactions, "count"};
    m["pp.sim.effective"] = {effective, "count"};
    m["pp.effective_ratio"] = {effective / std::max(interactions, 1.0),
                               "ratio"};
    m["pp.ns_per_interaction"] = {
        median(overhead["paper_sweep"].untraced_s) * 1e9 /
            std::max(interactions, 1.0),
        "ns"};
    m["pp.mc.point_p50_ms"] = {median(plain.point_seconds) * 1e3, "ms"};
    m["pp.mc.point_max_ms"] = {quantile(plain.point_seconds, 1.0) * 1e3,
                               "ms"};

    // --- large_n, through the same oracle probe --------------------------
    const LargeN large(cfg.seed, cfg.threads);
    // The sweep's oracle counts go on with the large answers'.
    const auto sweep_stats = std::move(stats);
    stats = std::make_unique<OracleStats>();
    ppk::obs::MetricsRegistry large_registry;
    seen.clear();
    overhead["large_n"] = alternate(
        pairs("large_n"),
        [&] {
          const LargeN::Answer a = large.run(nullptr, nullptr, nullptr);
          seen.insert(LargeN::digest(a));
          return a.seconds;
        },
        [&] {
          stats = std::make_unique<OracleStats>();
          large_registry = ppk::obs::MetricsRegistry{};
          Span span(&tracer, "bench.large_n");
          const LargeN::Answer a =
              large.run(&tracer, stats.get(), &large_registry);
          large.check(a, out);
          digests["large_n"] = LargeN::digest(a);
          seen.insert(digests["large_n"]);
          return a.seconds;
        });
    same_answers("large_n", seen);
    // Advance kinds over both traced answers (only the aggregating engines
    // count advances; the sweep's would show if kAuto picked jump there).
    for (const char* kind : {"pairwise", "jump", "thin", "batch"}) {
      const std::string name = std::string("sim.advances.") + kind;
      m["pp." + name] = {static_cast<double>(counter(registry, name) +
                                             counter(large_registry, name)),
                         "count"};
    }

    // Over one traced sweep and one traced large_n answer.
    const auto total = [&](const auto field) {
      return static_cast<double>((*sweep_stats).*field + (*stats).*field);
    };
    m["core.oracle.transitions"] = {total(&OracleStats::transitions),
                                    "count"};
    m["core.oracle.batches"] = {total(&OracleStats::batches), "count"};
    m["core.oracle.queries"] = {total(&OracleStats::queries), "count"};
    m["core.oracle.busy_ms"] = {total(&OracleStats::busy_ns) / 1e6, "ms"};

    // --- step-driven engine probes ---------------------------------------
    std::uint64_t seed = 0;
    for (const LargeTrial& t : large.trials()) {
      if (t.n == 100'000'000) seed = t.seed;
    }
    const StepProbe one = step_engine<pp::BatchShardedSimulator>(
        tracer, "sharded.threads_1", large.table(), 100'000'000, seed,
        std::size_t{1});
    const StepProbe all = step_engine<pp::BatchShardedSimulator>(
        tracer, "sharded.threads_n", large.table(), 100'000'000, seed,
        static_cast<std::size_t>(cfg.threads));
    out.record(one.counts == all.counts && one.interactions == all.interactions,
               "sharded engine differs between 1 and N threads");
    const double rate_1t = static_cast<double>(one.interactions) / one.run_s;
    const double rate_nt = static_cast<double>(all.interactions) / all.run_s;
    m["pp.sharded.construct_ms"] = {one.construct_s * 1e3, "ms"};
    m["pp.sharded.steps"] = {static_cast<double>(all.step_us.size()), "count"};
    m["pp.sharded.step_p50_us"] = {median(all.step_us), "us"};
    m["pp.sharded.step_p99_us"] = {quantile(all.step_us, 0.99), "us"};
    m["pp.sharded.interactions_per_step"] = {
        static_cast<double>(all.interactions) /
            static_cast<double>(std::max<std::size_t>(all.step_us.size(), 1)),
        "count"};
    m["pp.sharded.rate_1t"] = {rate_1t, "1/s"};
    m["pp.sharded.rate_nt"] = {rate_nt, "1/s"};
    m["pp.sharded.scaling"] = {rate_nt / rate_1t, "ratio"};
    const StepProbe batch = step_engine<pp::BatchSimulator>(
        tracer, "batch", large.table(), 1'000'000, seed);
    m["pp.batch.rate"] = {
        static_cast<double>(batch.interactions) / batch.run_s, "1/s"};
  }

  // --- verify: the exact answers and the lumped build ----------------------
  {
    const ExactCeiling exact(cfg.seed);
    std::set<std::string> seen;
    ExactCeiling::Answer traced;
    overhead["exact_ceiling"] = alternate(
        pairs("exact_ceiling"),
        [&] {
          const ExactCeiling::Answer a = exact.run(nullptr);
          seen.insert(ExactCeiling::digest(a));
          return a.seconds;
        },
        [&] {
          Span span(&tracer, "bench.exact_ceiling");
          traced = exact.run(&tracer);
          exact.check(traced, out);
          digests["exact_ceiling"] = ExactCeiling::digest(traced);
          seen.insert(digests["exact_ceiling"]);
          return traced.seconds;
        });
    same_answers("exact_ceiling", seen);
    double create = 0, hitting = 0, absorption = 0, bottoms = 0;
    for (const auto& a : traced.instances) {
      create += a.create_s;
      hitting += a.hitting_s;
      absorption += a.absorption_s;
      bottoms += static_cast<double>(a.absorption.size());
    }
    m["verify.markov.create_ms"] = {create * 1e3, "ms"};
    m["verify.markov.hitting_ms"] = {hitting * 1e3, "ms"};
    m["verify.markov.absorption_ms"] = {absorption * 1e3, "ms"};
    m["verify.markov.bottom_sccs"] = {bottoms, "count"};

    // The k = 2 instance: enumeration alone, then with the certificate.
    const ExactInstance* k2 = nullptr;
    for (const ExactInstance& i : exact.instances()) {
      if (i.k == 2) k2 = &i;
    }
    const core::KPartitionProtocol& kp = exact.protocol(2);
    pp::Counts initial(kp.num_states(), 0);
    initial[kp.initial_state()] = k2->n;
    std::vector<double> off, on;
    std::optional<verify::LumpedMarkovAnalysis> built;
    for (int r = 0; r < 3; ++r) {
      for (const bool check : {false, true}) {
        verify::LumpedOptions options;
        options.check_lumpability = check;
        std::string why;
        const double t0 = now_s();
        Span span(&tracer, check ? "verify.lumped.try_build"
                                 : "verify.lumped.try_build_unchecked");
        built = verify::LumpedMarkovAnalysis::try_build(
            exact.table(2), kp.symmetry(), initial, options, &why);
        (check ? on : off).push_back(now_s() - t0);
        out.record(built.has_value(), "lumped try_build failed: " + why);
      }
    }
    m["verify.lumped.enumerate_ms"] = {median(off) * 1e3, "ms"};
    m["verify.lumped.certificate_ms"] = {(median(on) - median(off)) * 1e3,
                                         "ms"};
    m["verify.lumped.orbits"] = {
        built ? static_cast<double>(built->num_orbits()) : 0.0, "count"};
    m["verify.lumped.raw_configs"] = {
        built ? static_cast<double>(built->raw_config_count()) : 0.0, "count"};
    m["verify.lumped.group_order"] = {
        built ? static_cast<double>(built->group_order()) : 0.0, "count"};
  }

  // --- core.campaign: the daemon's campaign against run_monte_carlo --------
  std::size_t checkpoint_bytes = 0;
  {
    serve::ScenarioSpec spec;
    spec.k = 3;
    spec.n = 20'000;
    spec.trials = 1;
    spec.seed = ppk::derive_stream_seed(cfg.seed, 0xca);
    spec.budget = 10'000'000'000ULL;
    const serve::ScenarioRuntime runtime(spec);
    const serve::ServiceOptions daemon_defaults;
    core::CampaignOptions options = runtime.campaign_options();
    options.mc.threads = cfg.threads;
    options.chunk_interactions = daemon_defaults.chunk_interactions;
    options.checkpoint_every_chunks = daemon_defaults.checkpoint_every_chunks;
    options.checkpoint_path = cfg.run_dir + "/campaign-probe.json";
    ppk::obs::MetricsRegistry runtime_metrics;
    options.runtime_metrics = &runtime_metrics;
    double t0 = now_s();
    core::CampaignResult campaign;
    {
      Span span(&tracer, "core.run_campaign");
      campaign = core::run_campaign(runtime.protocol(), runtime.table(),
                                    spec.n, runtime.oracle_factory(), options);
    }
    const double campaign_s = now_s() - t0;
    {
      std::ifstream in(options.checkpoint_path, std::ios::binary);
      checkpoint_bytes = std::string(std::istreambuf_iterator<char>(in), {})
                             .size();
    }
    t0 = now_s();
    pp::MonteCarloResult mc;
    {
      Span span(&tracer, "pp.run_monte_carlo");
      mc = pp::run_monte_carlo(runtime.protocol(), runtime.table(), spec.n,
                               runtime.oracle_factory(), options.mc);
    }
    const double mc_s = now_s() - t0;
    out.record(campaign.complete && campaign.trials.size() == 1 &&
                   campaign.trials[0].result.stabilized &&
                   mc.trials.at(0).stabilized,
               "campaign probe: a trial did not stabilize");
    const auto& hist = runtime_metrics.histograms();
    const auto w = hist.find("campaign.checkpoint.write_us");
    m["core.campaign.run_ms"] = {campaign_s * 1e3, "ms"};
    m["core.campaign.checkpoints"] = {
        static_cast<double>(counter(runtime_metrics, "campaign.checkpoints")),
        "count"};
    m["core.campaign.checkpoint_write_p50_us"] = {
        w == hist.end() ? 0.0 : w->second.quantile(0.5), "us"};
    m["core.campaign.checkpoint_write_p99_us"] = {
        w == hist.end() ? 0.0 : w->second.quantile(0.99), "us"};
    m["core.campaign.overhead_ratio"] = {campaign_s / mc_s, "ratio"};
  }

  // --- serve + io: in-process calls on the generated specs -----------------
  {
    const std::vector<Request> script = mix_script(cfg.seed, 40);
    std::vector<serve::ScenarioSpec> specs;
    for (const Request& r : script) {
      std::string why;
      auto spec = serve::parse_scenario(r.spec, &why);
      out.record(spec.has_value(), "generated spec rejected: " + why);
      if (spec) specs.push_back(*spec);
    }
    {
      Span span(&tracer, "serve.parse_scenario");
      m["serve.parse_us"] = {median_us([&](int i) {
                               (void)serve::parse_scenario(
                                   script[static_cast<std::size_t>(i) %
                                          script.size()]
                                       .spec);
                             }),
                             "us"};
    }
    {
      Span span(&tracer, "serve.scenario_hash");
      m["serve.hash_us"] = {
          median_us([&](int i) {
            (void)serve::scenario_hash_hex(
                specs[static_cast<std::size_t>(i) % specs.size()]);
          }),
          "us"};
    }
    const std::string cache_dir = cfg.run_dir + "/cache-probe";
    serve::ResultCache cache(cache_dir);
    const std::string frame(1024, 'x');
    const auto hash = [&](int i) {
      return serve::scenario_hash_hex(
          specs[static_cast<std::size_t>(i) % specs.size()]);
    };
    {
      Span span(&tracer, "serve.cache.store");
      m["serve.cache.store_us"] = {
          median_us([&](int i) {
            (void)cache.store(hash(i), static_cast<std::uint64_t>(i), frame);
          }),
          "us"};
    }
    {
      Span span(&tracer, "serve.cache.find");
      m["serve.cache.find_us"] = {
          median_us([&](int i) {
            out.record(cache.find(hash(i), static_cast<std::uint64_t>(i))
                           .has_value(),
                       "cache probe: a stored entry was not found");
          }),
          "us"};
    }
    {
      Span span(&tracer, "serve.cache.miss");
      m["serve.cache.miss_us"] = {
          median_us([&](int i) {
            (void)cache.find(hash(i), static_cast<std::uint64_t>(i) + 1000);
          }),
          "us"};
    }
    const std::string payload(std::max<std::size_t>(checkpoint_bytes, 1),
                              '0');
    {
      Span span(&tracer, "io.write_file_atomic");
      m["io.atomic_write_us"] = {
          median_us([&](int) {
            ppk::io::AtomicFileWriter writer(cfg.run_dir +
                                             "/atomic-probe.json");
            writer.stream() << payload;
            out.record(writer.commit(), "atomic write probe failed");
          }),
          "us"};
    }
  }

  // --- serve: the daemon, untraced then traced ------------------------------
  {
    // Each pass starts a fresh daemon on a fresh state directory.
    int passes = 0;
    const auto dir = [&] {
      return cfg.run_dir + "/ppkd-" + std::to_string(passes++);
    };
    std::set<std::string> seen;
    PpkdPass traced;
    overhead["ppkd"] = alternate(
        pairs("ppkd"),
        [&] {
          const PpkdPass plain = ppkd_pass(cfg, dir(), nullptr, out);
          seen.insert(std::to_string(plain.digest));
          return plain.wall_s;
        },
        [&] {
          Span span(&tracer, "bench.ppkd");
          traced = ppkd_pass(cfg, dir(), &tracer, out);
          digests["ppkd"] = std::to_string(traced.digest);
          seen.insert(digests["ppkd"]);
          return traced.wall_s;
        });
    same_answers("ppkd", seen);
    const double requests = static_cast<double>(traced.hits + traced.misses);
    m["serve.accept_p50_ms"] = {median(traced.accept_ms), "ms"};
    m["serve.frames_per_request"] = {
        static_cast<double>(traced.frames) / requests, "count"};
    m["serve.result_bytes"] = {
        static_cast<double>(traced.result_bytes) / requests, "bytes"};
    m["serve.cache_hits"] = {static_cast<double>(traced.hits), "count"};
    m["serve.cache_misses"] = {static_cast<double>(traced.misses), "count"};
    m["serve.cold_p50_ms"] = {median(traced.cold_ms), "ms"};
    m["serve.cached_p50_ms"] = {median(traced.hit_ms), "ms"};
  }

  // --- overhead and self time -----------------------------------------------
  m["bench.trace_overhead"] = {overhead[selected].ratio(), "ratio"};
  // Equal to the gated run's digest for the same workload and seed.
  result.answer_digest = digests[selected];
  m["bench.traced_run_s"] = {now_s() - run_t0, "s"};
  const auto self = tracer.self_seconds_by_layer();
  for (const char* layer : {"pp", "core", "verify", "serve", "io", "bench"}) {
    const auto it = self.find(layer);
    m[std::string("self.") + layer + "_ms"] = {
        it == self.end() ? 0.0 : it->second * 1e3, "ms"};
  }

  result.report["overhead"] = [overhead](ppk::io::JsonWriter& w) {
    w.begin_object();
    for (const auto& [family, o] : overhead) {
      w.key(family);
      w.begin_object();
      for (const auto& [key, times] :
           {std::pair{"untraced_s", o.untraced_s},
            std::pair{"traced_s", o.traced_s}}) {
        w.key(key);
        w.begin_array();
        for (const double t : times) w.value(t);
        w.end_array();
      }
      w.member("ratio", o.ratio());
      w.end_object();
    }
    w.end_object();
  };
  result.report["trace"] = [spans = std::move(tracer)](
                               ppk::io::JsonWriter& w) { spans.write(w); };
  return result;
}

}  // namespace perfbench
