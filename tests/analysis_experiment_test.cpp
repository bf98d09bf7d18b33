#include "analysis/experiment.hpp"

#include <gtest/gtest.h>

namespace ppk::analysis {
namespace {

TEST(MeasureKPartition, AllTrialsStabilize) {
  ExperimentOptions options;
  options.trials = 25;
  const auto result = measure_kpartition(4, 16, options);
  EXPECT_EQ(result.k, 4);
  EXPECT_EQ(result.n, 16u);
  EXPECT_EQ(result.trials, 25u);
  EXPECT_EQ(result.stabilized, 25u);
  EXPECT_GT(result.interactions.mean, 0.0);
  EXPECT_GE(result.interactions.max, result.interactions.mean);
  EXPECT_LE(result.effective.mean, result.interactions.mean);
  EXPECT_GE(result.wall_seconds, 0.0);
}

TEST(MeasureKPartition, ReproducibleAcrossCalls) {
  ExperimentOptions options;
  options.trials = 10;
  options.master_seed = 2718;
  const auto a = measure_kpartition(3, 12, options);
  const auto b = measure_kpartition(3, 12, options);
  EXPECT_DOUBLE_EQ(a.interactions.mean, b.interactions.mean);
  EXPECT_DOUBLE_EQ(a.interactions.stddev, b.interactions.stddev);
}

TEST(MeasureKPartition, SeedChangesResults) {
  ExperimentOptions options;
  options.trials = 10;
  options.master_seed = 1;
  const auto a = measure_kpartition(3, 12, options);
  options.master_seed = 2;
  const auto b = measure_kpartition(3, 12, options);
  EXPECT_NE(a.interactions.mean, b.interactions.mean);
}

TEST(MeasureKPartition, CountEngineWorksToo) {
  // The jump engine: a count-vector engine (no agent array).
  ExperimentOptions options;
  options.trials = 10;
  options.engine = pp::Engine::kJump;
  const auto result = measure_kpartition(5, 15, options);
  EXPECT_EQ(result.stabilized, 10u);
}

TEST(MeasureKPartition, MoreAgentsNeedMoreInteractions) {
  // The paper's headline n-scaling (Fig. 5), as a coarse monotonicity
  // property over a 4x population increase.
  ExperimentOptions options;
  options.trials = 15;
  const auto small = measure_kpartition(3, 12, options);
  const auto large = measure_kpartition(3, 48, options);
  EXPECT_GT(large.interactions.mean, small.interactions.mean);
}

TEST(MeasureKPartition, LargerKNeedsMoreInteractionsAtFixedN) {
  // The paper's k-scaling (Fig. 6), coarse version.
  ExperimentOptions options;
  options.trials = 15;
  const auto k3 = measure_kpartition(3, 24, options);
  const auto k6 = measure_kpartition(6, 24, options);
  EXPECT_GT(k6.interactions.mean, k3.interactions.mean);
}

}  // namespace
}  // namespace ppk::analysis
