// Tests for the observability metrics layer (obs/metrics.hpp, obs/sink.hpp)
// and its monte-carlo wiring: merge semantics are commutative so threaded
// trial aggregation is deterministic, and the sink's counters agree with
// the engines' own bookkeeping.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/invariants.hpp"
#include "core/kpartition.hpp"
#include "io/json.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "pp/agent_simulator.hpp"
#include "pp/batch_simulator.hpp"
#include "pp/graph_jump_simulator.hpp"
#include "pp/interaction_graph.hpp"
#include "pp/jump_simulator.hpp"
#include "pp/monte_carlo.hpp"
#include "pp/transition_table.hpp"

namespace {

using ppk::core::KPartitionProtocol;
using ppk::obs::Gauge;
using ppk::obs::Histogram;
using ppk::obs::MetricsRegistry;
using ppk::obs::ObsSink;

std::string registry_json(const MetricsRegistry& registry) {
  std::ostringstream out;
  ppk::io::JsonWriter json(out);
  registry.write_json(json);
  return out.str();
}

TEST(ObsMetrics, CounterAccumulatesAndMerges) {
  MetricsRegistry a;
  a.counter("x").inc();
  a.counter("x").inc(41);
  EXPECT_EQ(a.counter("x").value(), 42u);

  MetricsRegistry b;
  b.counter("x").inc(8);
  b.counter("y").inc(1);
  a.merge(b);
  EXPECT_EQ(a.counter("x").value(), 50u);
  EXPECT_EQ(a.counter("y").value(), 1u);
}

TEST(ObsMetrics, GaugeMergeTakesMaxAndTracksPresence) {
  Gauge g;
  EXPECT_FALSE(g.present());
  g.set(-5);
  EXPECT_TRUE(g.present());
  EXPECT_EQ(g.value(), -5);

  Gauge other;
  other.set(-9);
  g.merge(other);
  EXPECT_EQ(g.value(), -5);  // max is commutative: merge order cannot matter
  other.merge(g);
  EXPECT_EQ(other.value(), -5);

  Gauge empty;
  g.merge(empty);  // merging an unset gauge is a no-op
  EXPECT_EQ(g.value(), -5);
}

TEST(ObsMetrics, Log2HistogramBucketsContainTheirValues) {
  Histogram h = Histogram::log2();
  const std::vector<std::uint64_t> values = {0,  1,   2,   3,    15,  16,
                                             17, 100, 999, 4096, 4097};
  for (auto v : values) h.record(v);
  EXPECT_EQ(h.total(), values.size());

  // Every recorded value must land in a bucket whose [lo, hi) contains it,
  // and for values past the exact range the bucket must be narrow: relative
  // width <= 1/16 with the default sub-bucket resolution.
  for (auto v : values) {
    bool found = false;
    for (std::size_t b = 0; b < h.counts().size(); ++b) {
      if (h.counts()[b] == 0) continue;
      const double lo = h.bucket_lo(b);
      const double hi = h.bucket_hi(b);
      if (static_cast<double>(v) >= lo && static_cast<double>(v) < hi) {
        found = true;
        if (v >= 16) {
          EXPECT_LE(hi - lo, static_cast<double>(v) / 16.0 + 1.0);
        }
      }
    }
    EXPECT_TRUE(found) << "value " << v << " not covered by any bucket";
  }
}

TEST(ObsMetrics, Log2HistogramMergeAddsAndQuantileIsMonotone) {
  Histogram a = Histogram::log2();
  Histogram b = Histogram::log2();
  for (std::uint64_t v = 0; v < 100; ++v) a.record(v);
  for (std::uint64_t v = 1000; v < 1100; ++v) b.record(v);
  a.merge(b);
  EXPECT_EQ(a.total(), 200u);
  EXPECT_LE(a.quantile(0.25), a.quantile(0.5));
  EXPECT_LE(a.quantile(0.5), a.quantile(0.99));
  EXPECT_LT(a.quantile(0.25), 128.0);  // the low half lives below 100
  EXPECT_GE(a.quantile(0.9), 512.0);   // the top half lives near 1000
}

TEST(ObsMetrics, RegistryMergeIsCommutative) {
  auto build = [](std::uint64_t salt) {
    MetricsRegistry r;
    r.counter("alpha").inc(salt);
    r.gauge("level").set(static_cast<std::int64_t>(salt));
    auto& h = r.histogram("sizes");
    for (std::uint64_t v = 0; v < 32; ++v) h.record(v * salt);
    return r;
  };
  MetricsRegistry ab = build(3);
  ab.merge(build(7));
  MetricsRegistry ba = build(7);
  ba.merge(build(3));
  EXPECT_EQ(registry_json(ab), registry_json(ba));
}

// Tests below exercise the engines' instrumentation points, which
// -DPPK_OBSERVABILITY=OFF compiles out entirely; skip them there.
#if PPK_OBS_ENABLED
constexpr bool kHooksCompiled = true;
#else
constexpr bool kHooksCompiled = false;
#endif

TEST(ObsMetrics, SinkCountersMatchEngineTotals) {
  if (!kHooksCompiled) GTEST_SKIP() << "observability compiled out";
  const KPartitionProtocol protocol(3);
  const ppk::pp::TransitionTable table(protocol);
  const std::uint32_t n = 90;
  ppk::pp::Counts initial(protocol.num_states(), 0);
  initial[protocol.initial_state()] = n;

  auto check = [&](auto&& make_and_run, const char* engine) {
    MetricsRegistry registry;
    ObsSink sink(registry);
    const ppk::pp::SimResult result = make_and_run(sink);
    EXPECT_TRUE(result.stabilized) << engine;
    EXPECT_EQ(registry.counter("sim.interactions").value(),
              result.interactions)
        << engine;
    EXPECT_EQ(registry.counter("sim.effective").value(), result.effective)
        << engine;
  };

  check(
      [&](ObsSink& sink) {
        ppk::pp::AgentSimulator sim(table, ppk::pp::Population(initial), 11);
        sim.set_obs_sink(&sink);
        auto oracle = ppk::core::stable_pattern_oracle(protocol, n);
        return sim.run(*oracle);
      },
      "agent");
  check(
      [&](ObsSink& sink) {
        ppk::pp::JumpSimulator sim(table, initial, 11);
        sim.set_obs_sink(&sink);
        auto oracle = ppk::core::stable_pattern_oracle(protocol, n);
        return sim.run(*oracle);
      },
      "jump");
  check(
      [&](ObsSink& sink) {
        ppk::pp::BatchSimulator sim(table, initial, 11);
        sim.set_obs_sink(&sink);
        auto oracle = ppk::core::stable_pattern_oracle(protocol, n);
        return sim.run(*oracle);
      },
      "batch");
  // The restricted-scheduler engines gained obs hooks in this PR.
  check(
      [&](ObsSink& sink) {
        ppk::pp::AgentSimulator sim(table,
                                    ppk::pp::InteractionGraph::complete(n),
                                    ppk::pp::Population(initial), 11);
        sim.set_obs_sink(&sink);
        auto oracle = ppk::core::stable_pattern_oracle(protocol, n);
        return sim.run(*oracle);
      },
      "graph");
  check(
      [&](ObsSink& sink) {
        ppk::pp::AgentSimulator sim(
            protocol, table, ppk::pp::Population(initial),
            ppk::pp::FairnessSpec::epsilon_fair(0.5), 11);
        sim.set_obs_sink(&sink);
        auto oracle = ppk::core::stable_pattern_oracle(protocol, n);
        return sim.run(*oracle);
      },
      "adversarial");
  check(
      [&](ObsSink& sink) {
        ppk::pp::GraphJumpSimulator sim(
            table, ppk::pp::InteractionGraph::complete(n),
            ppk::pp::Population(initial), 11);
        sim.set_obs_sink(&sink);
        auto oracle = ppk::core::stable_pattern_oracle(protocol, n);
        return sim.run(*oracle);
      },
      "live-edge");
}

TEST(ObsMetrics, LiveEdgeSinkSeesBudgetClampAndNullSkips) {
  // The live-edge engine advances by geometric null-skips; both the skip
  // path and the budget-clamp path (a truncated null run parked at the
  // boundary) must account every drawn interaction to the sink.  A sparse
  // ring makes nulls plentiful.
  if (!kHooksCompiled) GTEST_SKIP() << "observability compiled out";
  const KPartitionProtocol protocol(4);
  const ppk::pp::TransitionTable table(protocol);
  const std::uint32_t n = 24;
  ppk::pp::Counts initial(protocol.num_states(), 0);
  initial[protocol.initial_state()] = n;

  MetricsRegistry registry;
  ObsSink sink(registry);
  ppk::pp::GraphJumpSimulator sim(table, ppk::pp::InteractionGraph::ring(n),
                                  ppk::pp::Population(initial), 5);
  sim.set_obs_sink(&sink);
  auto oracle = ppk::core::stable_pattern_oracle(protocol, n);
  const auto result = sim.run(*oracle, 777);
  EXPECT_LE(result.interactions, 777u);
  EXPECT_GT(result.interactions, result.effective);  // nulls were skipped
  EXPECT_EQ(registry.counter("sim.interactions").value(),
            result.interactions);
  EXPECT_EQ(registry.counter("sim.effective").value(), result.effective);
}

TEST(ObsMetrics, JumpSinkSeesBudgetClampExactly) {
  // A budget that truncates mid-null-run must still account every drawn
  // interaction to the sink (the clamp path calls on_skip with no apply).
  if (!kHooksCompiled) GTEST_SKIP() << "observability compiled out";
  const KPartitionProtocol protocol(3);
  const ppk::pp::TransitionTable table(protocol);
  ppk::pp::Counts initial(protocol.num_states(), 0);
  initial[protocol.initial_state()] = 60;

  MetricsRegistry registry;
  ObsSink sink(registry);
  ppk::pp::JumpSimulator sim(table, initial, 5);
  sim.set_obs_sink(&sink);
  auto oracle = ppk::core::stable_pattern_oracle(protocol, 60);
  const auto result = sim.run(*oracle, 777);
  EXPECT_LE(result.interactions, 777u);
  EXPECT_EQ(registry.counter("sim.interactions").value(),
            result.interactions);
  EXPECT_EQ(registry.counter("sim.effective").value(), result.effective);
}

TEST(ObsMetrics, MonteCarloAggregateIsThreadCountInvariant) {
  // The per-trial registries merge with commutative operations only, so the
  // aggregate must be byte-identical no matter how trials are scheduled.
  const KPartitionProtocol protocol(3);
  const ppk::pp::TransitionTable table(protocol);
  const std::uint32_t n = 48;

  auto aggregate = [&](std::size_t threads) {
    ppk::pp::MonteCarloOptions options;
    options.trials = 12;
    options.master_seed = 0xFEED;
    options.engine = ppk::pp::Engine::kJump;
    options.threads = threads;
    MetricsRegistry registry;
    options.metrics = &registry;
    const auto result = ppk::pp::run_monte_carlo(
        protocol, table, n,
        [&] { return ppk::core::stable_pattern_oracle(protocol, n); },
        options);
    EXPECT_EQ(result.stabilized_count(), 12u);
    return registry_json(registry);
  };

  const std::string single = aggregate(1);
  const std::string quad = aggregate(4);
  EXPECT_EQ(single, quad);
  EXPECT_NE(single.find("\"trials\""), std::string::npos);
  EXPECT_NE(single.find("\"trial.interactions\""), std::string::npos);
  EXPECT_NE(single.find("\"sim.interactions\""), std::string::npos);
}

TEST(ObsMetrics, MonteCarloTrialCountersAddUp) {
  if (!kHooksCompiled) GTEST_SKIP() << "observability compiled out";
  const KPartitionProtocol protocol(4);
  const ppk::pp::TransitionTable table(protocol);
  const std::uint32_t n = 40;

  ppk::pp::MonteCarloOptions options;
  options.trials = 6;
  options.master_seed = 0xABCD;
  options.engine = ppk::pp::Engine::kJump;
  MetricsRegistry registry;
  options.metrics = &registry;
  const auto result = ppk::pp::run_monte_carlo(
      protocol, table, n,
      [&] { return ppk::core::stable_pattern_oracle(protocol, n); }, options);

  std::uint64_t interactions = 0;
  std::uint64_t effective = 0;
  for (const auto& trial : result.trials) {
    interactions += trial.interactions;
    effective += trial.effective;
  }
  EXPECT_EQ(registry.counter("trials").value(), 6u);
  EXPECT_EQ(registry.counter("trials.stabilized").value(), 6u);
  EXPECT_EQ(registry.counter("sim.interactions").value(), interactions);
  EXPECT_EQ(registry.counter("sim.effective").value(), effective);
  EXPECT_EQ(registry.histogram("trial.interactions").total(), 6u);
}

TEST(ObsMetrics, CampaignRuntimeMetricsCoverCheckpointsAndSupervision) {
  // The campaign layer splits its instrumentation in two: deterministic
  // per-trial metrics merge into CampaignResult::metrics (thread-count
  // invariant, checkpoint-persisted), while operational ones -- checkpoint
  // write durations, retries, final verdict gauges -- land in the caller's
  // runtime registry and deliberately stay out of the merged aggregate.
  const KPartitionProtocol protocol(3);
  const ppk::pp::TransitionTable table(protocol);
  const std::uint32_t n = 40;

  ppk::core::CampaignOptions options;
  options.mc.trials = 6;
  options.mc.master_seed = 0xFEED;
  options.mc.max_interactions = 60;  // forces retries at n = 40
  options.chunk_interactions = 512;
  options.checkpoint_every_chunks = 1;
  options.max_retries = 12;
  options.retry_backoff = 2.0;
  options.checkpoint_path =
      (std::filesystem::temp_directory_path() / "ppk_obs_campaign.json")
          .string();
  std::filesystem::remove(options.checkpoint_path);
  MetricsRegistry runtime;
  options.runtime_metrics = &runtime;
  const auto result = ppk::core::run_campaign(
      protocol, table, n,
      [&] { return ppk::core::stable_pattern_oracle(protocol, n); }, options);
  std::filesystem::remove(options.checkpoint_path);

  ASSERT_TRUE(result.complete);
  EXPECT_GT(runtime.counter("campaign.checkpoints").value(), 0u);
  EXPECT_EQ(runtime.histogram("campaign.checkpoint.write_us").total(),
            runtime.counter("campaign.checkpoints").value());
  EXPECT_GT(runtime.counter("campaign.retries").value(), 0u);
  EXPECT_EQ(runtime.gauge("campaign.trials.censored").value(), 0);
  EXPECT_EQ(runtime.gauge("campaign.trials.failed").value(), 0);

  // The deterministic aggregate carries the trial-facing views instead.
  const std::string merged = registry_json(result.metrics);
  EXPECT_NE(merged.find("\"trials.retried\""), std::string::npos);
  EXPECT_NE(merged.find("\"trial.retries\""), std::string::npos);
  EXPECT_EQ(merged.find("\"campaign."), std::string::npos);
}

}  // namespace
