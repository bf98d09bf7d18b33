// Tests for ConvergenceTimeline (obs/timeline.hpp), in particular the
// batch-aware sampling contract: a stride boundary crossed inside an
// aggregated advance (a collision-free batch or a geometric null run) must
// still produce a sample, attributed to the advance endpoint.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/invariants.hpp"
#include "core/kpartition.hpp"
#include "io/json.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "obs/timeline.hpp"
#include "pp/agent_simulator.hpp"
#include "pp/batch_simulator.hpp"
#include "pp/jump_simulator.hpp"
#include "pp/transition_table.hpp"

namespace {

using ppk::core::KPartitionProtocol;
using ppk::obs::ConvergenceTimeline;
using ppk::obs::MetricsRegistry;
using ppk::obs::ObsSink;

// Every stride boundary up to `final_interactions` must appear exactly once,
// in order, regardless of how coarsely the engine advanced the clock.
void expect_complete_boundaries(const ConvergenceTimeline& timeline,
                                std::uint64_t stride,
                                std::uint64_t final_interactions) {
  std::vector<std::uint64_t> expected;
  expected.push_back(0);  // the seeded initial sample
  for (std::uint64_t b = stride; b <= final_interactions; b += stride) {
    expected.push_back(b);
  }
  if (expected.back() != final_interactions) {
    expected.push_back(final_interactions);  // the forced finish() sample
  }
  ASSERT_EQ(timeline.samples().size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(timeline.samples()[i].interaction, expected[i]) << "sample " << i;
  }
}

TEST(ObsTimeline, RecordEmitsOneSamplePerCoveredBoundary) {
  const KPartitionProtocol protocol(2);
  ConvergenceTimeline timeline(protocol, 10);
  ppk::pp::Counts counts(protocol.num_states(), 0);
  counts[0] = 8;

  timeline.seed(counts);
  timeline.seed(counts);  // idempotent
  ASSERT_EQ(timeline.samples().size(), 1u);
  EXPECT_EQ(timeline.samples()[0].interaction, 0u);

  timeline.record(9, counts, 0);  // no boundary crossed
  ASSERT_EQ(timeline.samples().size(), 1u);

  timeline.record(25, counts, 3);  // covers boundaries 10 and 20 at once
  ASSERT_EQ(timeline.samples().size(), 3u);
  EXPECT_EQ(timeline.samples()[1].interaction, 10u);
  EXPECT_EQ(timeline.samples()[1].observed_at, 25u);
  EXPECT_EQ(timeline.samples()[2].interaction, 20u);
  EXPECT_EQ(timeline.samples()[2].observed_at, 25u);
  EXPECT_EQ(timeline.samples()[2].effective, 3u);

  timeline.finish(37, counts, 5);  // boundary 30, then the off-grid final
  ASSERT_EQ(timeline.samples().size(), 5u);
  EXPECT_EQ(timeline.samples()[3].interaction, 30u);
  EXPECT_EQ(timeline.samples()[4].interaction, 37u);
  EXPECT_EQ(timeline.samples()[4].observed_at, 37u);

  timeline.finish(37, counts, 5);  // already covered: no duplicate
  EXPECT_EQ(timeline.samples().size(), 5u);
}

TEST(ObsTimeline, DerivedStatsMatchTheCounts) {
  const KPartitionProtocol protocol(3);
  ConvergenceTimeline timeline(protocol, 100);
  ppk::pp::Counts counts(protocol.num_states(), 0);
  counts[protocol.g(1)] = 4;
  counts[protocol.g(2)] = 4;
  counts[protocol.g(3)] = 3;
  counts[protocol.m(2)] = 1;  // group(m_2) = 2

  timeline.seed(counts);
  const auto& sample = timeline.samples().front();
  ASSERT_EQ(sample.group_sizes.size(), 3u);
  EXPECT_EQ(sample.group_sizes[0], 4u);
  EXPECT_EQ(sample.group_sizes[1], 5u);  // g_2 plus the m_2 builder
  EXPECT_EQ(sample.group_sizes[2], 3u);
  EXPECT_EQ(sample.spread, 2u);
  EXPECT_EQ(sample.counts, counts);
}

// Engine-driven tests need the instrumentation points, which
// -DPPK_OBSERVABILITY=OFF compiles out entirely; skip them there.
#if PPK_OBS_ENABLED
constexpr bool kHooksCompiled = true;
#else
constexpr bool kHooksCompiled = false;
#endif

TEST(ObsTimeline, PairwiseEngineSamplesAreExact) {
  if (!kHooksCompiled) GTEST_SKIP() << "observability compiled out";
  const KPartitionProtocol protocol(3);
  const ppk::pp::TransitionTable table(protocol);
  const std::uint32_t n = 60;
  ppk::pp::Counts initial(protocol.num_states(), 0);
  initial[protocol.initial_state()] = n;

  MetricsRegistry registry;
  ConvergenceTimeline timeline(protocol, 50);
  ObsSink sink(registry, &timeline);
  ppk::pp::AgentSimulator sim(table, ppk::pp::Population(initial), 21);
  sim.set_obs_sink(&sink);
  timeline.seed(initial);
  auto oracle = ppk::core::stable_pattern_oracle(protocol, n);
  const auto result = sim.run(*oracle);
  ASSERT_TRUE(result.stabilized);
  timeline.finish(sim.interactions(), sim.population().counts(),
                  result.effective);

  expect_complete_boundaries(timeline, 50, result.interactions);
  for (const auto& sample : timeline.samples()) {
    // One record() per drawn pair: every sample is captured on its boundary.
    EXPECT_EQ(sample.observed_at, sample.interaction);
    std::uint64_t total = 0;
    for (auto c : sample.counts) total += c;
    EXPECT_EQ(total, n);
  }
  EXPECT_EQ(timeline.samples().back().effective, result.effective);
}

TEST(ObsTimeline, ForcedBatchAdvancesNeverSkipBoundaries) {
  if (!kHooksCompiled) GTEST_SKIP() << "observability compiled out";
  const KPartitionProtocol protocol(3);
  const ppk::pp::TransitionTable table(protocol);
  const std::uint32_t n = 600;  // batches span many strides of 16
  ppk::pp::Counts initial(protocol.num_states(), 0);
  initial[protocol.initial_state()] = n;

  MetricsRegistry registry;
  ConvergenceTimeline timeline(protocol, 16);
  ObsSink sink(registry, &timeline);
  ppk::pp::BatchSimulator sim(table, initial, 33);
  sim.set_batch_mode(ppk::pp::BatchMode::kForceBatch);
  sim.set_obs_sink(&sink);
  timeline.seed(initial);
  auto oracle = ppk::core::stable_pattern_oracle(protocol, n);
  const auto result = sim.run(*oracle);
  ASSERT_TRUE(result.stabilized);
  timeline.finish(sim.interactions(), sim.counts(), result.effective);

  expect_complete_boundaries(timeline, 16, result.interactions);

  // The collision-free batch width is Theta(sqrt(n)) >> 16, so most
  // advances cross several boundaries at once -- batch-attributed samples
  // (observed_at > interaction) must exist, and attribution lag is bounded
  // by the widest advance the sink saw.
  std::uint64_t attributed = 0;
  std::uint64_t max_lag = 0;
  for (const auto& sample : timeline.samples()) {
    EXPECT_GE(sample.observed_at, sample.interaction);
    if (sample.observed_at > sample.interaction) {
      ++attributed;
      max_lag = std::max(max_lag, sample.observed_at - sample.interaction);
    }
    std::uint64_t total = 0;
    for (auto c : sample.counts) total += c;
    EXPECT_EQ(total, n);
  }
  EXPECT_GT(attributed, 0u);
  EXPECT_GT(registry.counter("sim.advances.batch").value(), 0u);
  const auto& widths = registry.histogram("sim.advance_size.batch");
  double widest = 0.0;
  for (std::size_t b = 0; b < widths.counts().size(); ++b) {
    if (widths.counts()[b] > 0) widest = widths.bucket_hi(b);
  }
  EXPECT_LE(static_cast<double>(max_lag), widest);
}

TEST(ObsTimeline, JumpEngineNullRunBoundariesAreExact) {
  if (!kHooksCompiled) GTEST_SKIP() << "observability compiled out";
  const KPartitionProtocol protocol(4);
  const ppk::pp::TransitionTable table(protocol);
  const std::uint32_t n = 120;
  ppk::pp::Counts initial(protocol.num_states(), 0);
  initial[protocol.initial_state()] = n;

  MetricsRegistry registry;
  ConvergenceTimeline timeline(protocol, 64);
  ObsSink sink(registry, &timeline);
  ppk::pp::JumpSimulator sim(table, initial, 9);
  sim.set_obs_sink(&sink);
  timeline.seed(initial);
  auto oracle = ppk::core::stable_pattern_oracle(protocol, n);
  const auto result = sim.run(*oracle);
  ASSERT_TRUE(result.stabilized);
  timeline.finish(sim.interactions(), sim.counts(), result.effective);

  expect_complete_boundaries(timeline, 64, result.interactions);

  // The jump engine reports each null run BEFORE applying the concluding
  // pair, so a boundary inside a null run carries the configuration that
  // actually held there; consecutive samples from one null run must agree.
  const auto& samples = timeline.samples();
  for (std::size_t i = 1; i < samples.size(); ++i) {
    if (samples[i].observed_at == samples[i - 1].observed_at &&
        samples[i].observed_at > samples[i].interaction) {
      EXPECT_EQ(samples[i].counts, samples[i - 1].counts);
      EXPECT_EQ(samples[i].effective, samples[i - 1].effective);
    }
  }
  EXPECT_GT(registry.histogram("sim.null_run.jump").total(), 0u);
}

TEST(ObsTimeline, CsvAndJsonCarryEverySample) {
  const KPartitionProtocol protocol(2);
  ConvergenceTimeline timeline(protocol, 5);
  ppk::pp::Counts counts(protocol.num_states(), 0);
  counts[0] = 6;
  timeline.seed(counts);
  timeline.record(12, counts, 2);

  std::ostringstream csv;
  timeline.write_csv(csv);
  const std::string rows = csv.str();
  // Header plus samples at 0, 5, 10.
  EXPECT_EQ(std::count(rows.begin(), rows.end(), '\n'), 4);
  EXPECT_NE(rows.find("interaction,observed_at,effective,spread,uniform"),
            std::string::npos);

  std::ostringstream js;
  {
    ppk::io::JsonWriter json(js);
    timeline.write_json(json);
  }
  EXPECT_NE(js.str().find("\"stride\": 5"), std::string::npos);
  EXPECT_NE(js.str().find("\"observed_at\": 12"), std::string::npos);
}

}  // namespace
