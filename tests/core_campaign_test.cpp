// Crash-safe campaign layer (core/campaign.hpp): checkpoint round trips,
// interrupt/resume bit-identity, thread-count invariance, retry/backoff
// supervision, and the refusal paths.  The SIGKILL version of the resume
// story lives in scripts/test_crash_resume.py; these tests drive the same
// machinery in-process where every step is assertable.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "core/campaign.hpp"
#include "core/invariants.hpp"
#include "core/kpartition.hpp"
#include "core/weak_kpartition.hpp"
#include "io/json.hpp"
#include "obs/metrics.hpp"
#include "pp/fairness.hpp"
#include "pp/interaction_graph.hpp"
#include "pp/monte_carlo.hpp"
#include "pp/stability.hpp"
#include "pp/transition_table.hpp"
#include "pp/trial.hpp"

#include <memory>
#include <vector>

namespace {

using ppk::core::CampaignCheckpoint;
using ppk::core::CampaignOptions;
using ppk::core::CampaignResult;
using ppk::core::KPartitionProtocol;
using ppk::obs::MetricsRegistry;

std::string registry_json(const MetricsRegistry& registry) {
  std::ostringstream out;
  ppk::io::JsonWriter json(out);
  registry.write_json(json);
  return out.str();
}

std::uint64_t counter_value(const MetricsRegistry& registry,
                            const std::string& name) {
  const auto it = registry.counters().find(name);
  return it != registry.counters().end() ? it->second.value() : 0;
}

/// Trial verdicts as one comparable string (everything the report carries).
std::string verdicts(const CampaignResult& result) {
  std::ostringstream out;
  for (const auto& t : result.trials) {
    out << t.result.interactions << '/' << t.result.effective << '/'
        << t.result.stabilized << t.result.timed_out << t.result.stalled
        << t.failed << t.censored << '/' << t.retries;
    for (const std::uint64_t m : t.result.watch_marks) out << ',' << m;
    out << '\n';
  }
  return out.str();
}

/// Forwards to an inner oracle and raises `stop` after `limit` effective
/// transitions: a deterministic mid-trial interruption.
class StopAfterOracle final : public ppk::pp::StabilityOracle {
 public:
  StopAfterOracle(std::unique_ptr<ppk::pp::StabilityOracle> inner,
                  std::atomic<bool>* stop, std::uint64_t limit)
      : inner_(std::move(inner)), stop_(stop), limit_(limit) {}
  void reset(const ppk::pp::Counts& counts) override { inner_->reset(counts); }
  void on_transition(ppk::pp::StateId p, ppk::pp::StateId q,
                     ppk::pp::StateId p_next,
                     ppk::pp::StateId q_next) override {
    inner_->on_transition(p, q, p_next, q_next);
    if (++seen_ == limit_) stop_->store(true);
  }
  [[nodiscard]] bool stable() const override { return inner_->stable(); }

 private:
  std::unique_ptr<ppk::pp::StabilityOracle> inner_;
  std::atomic<bool>* stop_;
  std::uint64_t limit_;
  std::uint64_t seen_ = 0;
};

/// Runs the same trials through run_campaign and run_monte_carlo, twice:
/// the campaign granting the whole budget at once against the unlimited
/// Monte-Carlo run, and the campaign at the default chunk with a trial
/// deadline against the Monte-Carlo run with a wall-clock limit (whose
/// clock checks use the same chunk; the batch rows' trials span several
/// chunks).  Neither limit is reached, so each pairing must agree trial
/// for trial -- verdicts, totals, watch marks -- and, every trial
/// stabilizing, in the merged metrics too.
void expect_campaign_is_monte_carlo(const ppk::pp::Protocol& protocol,
                                    const ppk::pp::TransitionTable& table,
                                    std::uint32_t n,
                                    const ppk::pp::OracleFactory& make_oracle,
                                    const ppk::pp::MonteCarloOptions& mc) {
  for (const bool chunked : {false, true}) {
    SCOPED_TRACE(chunked ? "default chunk, deadlines" : "one grant");
    CampaignOptions options;
    options.mc = mc;
    ppk::pp::MonteCarloOptions reference_options = mc;
    if (chunked) {
      options.chunk_interactions = ppk::core::kDefaultChunkInteractions;
      options.mc.wall_clock_limit_seconds = 1e9;
      reference_options.wall_clock_limit_seconds = 1e9;
    } else {
      options.chunk_interactions = mc.max_interactions;
    }
    MetricsRegistry reference_metrics;
    reference_options.metrics = &reference_metrics;
    const ppk::pp::MonteCarloResult reference = ppk::pp::run_monte_carlo(
        protocol, table, n, make_oracle, reference_options);
    const CampaignResult campaign =
        ppk::core::run_campaign(protocol, table, n, make_oracle, options);
    ASSERT_TRUE(campaign.complete);
    ASSERT_EQ(campaign.trials.size(), reference.trials.size());
    for (std::size_t t = 0; t < campaign.trials.size(); ++t) {
      const ppk::pp::TrialResult& got = campaign.trials[t].result;
      const ppk::pp::TrialResult& want = reference.trials[t];
      EXPECT_EQ(got.interactions, want.interactions) << "trial " << t;
      EXPECT_EQ(got.effective, want.effective) << "trial " << t;
      EXPECT_EQ(got.watch_marks, want.watch_marks) << "trial " << t;
      EXPECT_TRUE(got.stabilized && want.stabilized) << "trial " << t;
      EXPECT_FALSE(got.timed_out || want.timed_out) << "trial " << t;
      EXPECT_FALSE(got.stalled || want.stalled) << "trial " << t;
      EXPECT_EQ(campaign.trials[t].retries, 0u) << "trial " << t;
      EXPECT_FALSE(campaign.trials[t].failed) << "trial " << t;
    }
    if (mc.watch_state) {
      EXPECT_FALSE(reference.trials.front().watch_marks.empty());
    }
    EXPECT_EQ(registry_json(campaign.metrics),
              registry_json(reference_metrics));
  }
}

class CampaignTest : public ::testing::Test {
 protected:
  CampaignTest() : protocol_(3), table_(protocol_) {}

  [[nodiscard]] CampaignOptions base_options() const {
    CampaignOptions options;
    options.mc.trials = 8;
    options.mc.master_seed = 99;
    options.mc.max_interactions = 200'000;
    options.chunk_interactions = 512;
    options.checkpoint_every_chunks = 2;
    return options;
  }

  [[nodiscard]] CampaignResult run(const CampaignOptions& options) const {
    return ppk::core::run_campaign(
        protocol_, table_, kN,
        [&] { return ppk::core::stable_pattern_oracle(protocol_, kN); },
        options);
  }

  [[nodiscard]] std::string temp_checkpoint(const char* tag) const {
    const auto path = std::filesystem::temp_directory_path() /
                      (std::string("ppk_campaign_test_") + tag + ".json");
    std::filesystem::remove(path);
    return path.string();
  }

  static constexpr std::uint32_t kN = 40;
  KPartitionProtocol protocol_;
  ppk::pp::TransitionTable table_;
};

TEST_F(CampaignTest, CompletesAndCountsVerdicts) {
  const CampaignResult result = run(base_options());
  EXPECT_TRUE(result.complete);
  EXPECT_TRUE(result.error.empty());
  EXPECT_FALSE(result.resumed);
  EXPECT_EQ(result.trials.size(), 8u);
  EXPECT_EQ(result.completed_count(), 8u);
  EXPECT_EQ(result.failed_count(), 0u);
  EXPECT_EQ(result.censored_count(), 0u);
  for (const auto& t : result.trials) EXPECT_TRUE(t.result.stabilized);
  EXPECT_EQ(counter_value(result.metrics, "trials"), 8u);
  EXPECT_EQ(counter_value(result.metrics, "trials.stabilized"), 8u);
}

TEST_F(CampaignTest, ResultIsThreadCountInvariant) {
  CampaignOptions options = base_options();
  const CampaignResult one = run(options);
  options.mc.threads = 4;
  const CampaignResult four = run(options);
  EXPECT_EQ(verdicts(one), verdicts(four));
  EXPECT_EQ(registry_json(one.metrics), registry_json(four.metrics));
}

TEST_F(CampaignTest, CheckpointSerializationRoundTripsExactly) {
  // Run half the campaign (tiny deadline halts at the first chunk
  // boundaries), parse the checkpoint it wrote, re-serialize, and demand
  // the identical bytes: every field, including in-flight snapshots and
  // histogram buckets, must survive.
  CampaignOptions options = base_options();
  options.checkpoint_path = temp_checkpoint("roundtrip");
  options.campaign_deadline_seconds = 1e-9;
  const CampaignResult partial = run(options);
  EXPECT_FALSE(partial.complete);
  EXPECT_GT(partial.censored_count(), 0u);

  std::ifstream file(options.checkpoint_path);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  std::string error;
  const auto ckpt =
      ppk::core::parse_campaign_checkpoint(buffer.str(), &error);
  ASSERT_TRUE(ckpt.has_value()) << error;
  EXPECT_EQ(ppk::core::serialize_campaign_checkpoint(*ckpt), buffer.str());
  std::filesystem::remove(options.checkpoint_path);
}

TEST_F(CampaignTest, InterruptedCampaignResumesBitIdentically) {
  const CampaignResult reference = run(base_options());
  ASSERT_TRUE(reference.complete);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    CampaignOptions options = base_options();
    options.mc.threads = threads;
    options.checkpoint_path = temp_checkpoint("resume");
    options.campaign_deadline_seconds = 1e-9;  // halt at the first boundary
    const CampaignResult partial = run(options);
    EXPECT_FALSE(partial.complete);

    options.campaign_deadline_seconds.reset();
    const CampaignResult resumed = run(options);
    EXPECT_TRUE(resumed.resumed);
    ASSERT_TRUE(resumed.complete) << "threads=" << threads;
    EXPECT_EQ(verdicts(resumed), verdicts(reference))
        << "threads=" << threads;
    EXPECT_EQ(registry_json(resumed.metrics),
              registry_json(reference.metrics))
        << "threads=" << threads;
    std::filesystem::remove(options.checkpoint_path);
  }
}

TEST_F(CampaignTest, StopFlagCensorsAndKeepsTheCampaignResumable) {
  CampaignOptions options = base_options();
  options.checkpoint_path = temp_checkpoint("stop");
  const std::atomic<bool> stop{true};
  options.stop = &stop;
  const CampaignResult halted = run(options);
  EXPECT_FALSE(halted.complete);
  EXPECT_EQ(halted.censored_count(), options.mc.trials);

  options.stop = nullptr;
  const CampaignResult resumed = run(options);
  EXPECT_TRUE(resumed.complete);
  EXPECT_EQ(verdicts(resumed), verdicts(run(base_options())));
  std::filesystem::remove(options.checkpoint_path);
}

TEST_F(CampaignTest, RetryBacksOffTheBudgetUntilStabilization) {
  CampaignOptions options = base_options();
  options.mc.trials = 4;
  options.mc.max_interactions = 40;  // far too small for n = 40
  options.max_retries = 12;
  options.retry_backoff = 2.0;
  MetricsRegistry runtime;
  options.runtime_metrics = &runtime;
  const CampaignResult result = run(options);
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.failed_count(), 0u);
  EXPECT_GT(result.retried_count(), 0u);
  for (const auto& t : result.trials) {
    EXPECT_TRUE(t.result.stabilized);
    EXPECT_GT(t.retries, 0u);
    // Accumulated work spans every attempt, so it exceeds the base budget.
    EXPECT_GT(t.result.interactions, options.mc.max_interactions);
  }
  EXPECT_GT(runtime.counter("campaign.retries").value(), 0u);
  EXPECT_EQ(runtime.gauge("campaign.trials.failed").value(), 0);
}

TEST_F(CampaignTest, ExhaustedRetriesFailTheTrial) {
  CampaignOptions options = base_options();
  options.mc.trials = 2;
  options.mc.max_interactions = 10;
  options.max_retries = 1;
  options.retry_backoff = 1.0;  // no growth: it can never stabilize
  const CampaignResult result = run(options);
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.failed_count(), 2u);
  for (const auto& t : result.trials) {
    EXPECT_TRUE(t.failed);
    EXPECT_FALSE(t.result.stabilized);
    EXPECT_EQ(t.retries, 1u);
  }
  EXPECT_EQ(counter_value(result.metrics, "trials.failed"), 2u);
}

TEST_F(CampaignTest, RefusesACheckpointFromADifferentConfiguration) {
  CampaignOptions options = base_options();
  options.checkpoint_path = temp_checkpoint("fingerprint");
  const CampaignResult first = run(options);
  ASSERT_TRUE(first.complete);

  options.mc.master_seed = 100;  // different campaign, same file
  const CampaignResult refused = run(options);
  EXPECT_FALSE(refused.error.empty());
  EXPECT_TRUE(refused.stale_checkpoint);
  EXPECT_TRUE(refused.trials.empty());
  std::filesystem::remove(options.checkpoint_path);
}

TEST_F(CampaignTest, RefusesAMalformedCheckpointFile) {
  CampaignOptions options = base_options();
  options.checkpoint_path = temp_checkpoint("malformed");
  {
    std::ofstream file(options.checkpoint_path);
    file << "{\"schema\":\"ppk-campaign-v1\",\"garbage\":true}";
  }
  const CampaignResult refused = run(options);
  EXPECT_FALSE(refused.error.empty());
  EXPECT_FALSE(refused.stale_checkpoint);  // unreadable, not merely stale
  EXPECT_TRUE(refused.trials.empty());
  std::filesystem::remove(options.checkpoint_path);
}

TEST_F(CampaignTest, RuntimeMetricsRecordCheckpointWrites) {
  CampaignOptions options = base_options();
  options.checkpoint_path = temp_checkpoint("runtime");
  MetricsRegistry runtime;
  options.runtime_metrics = &runtime;
  const CampaignResult result = run(options);
  EXPECT_TRUE(result.complete);
  EXPECT_GT(runtime.counter("campaign.checkpoints").value(), 0u);
  EXPECT_EQ(runtime.histogram("campaign.checkpoint.write_us").total(),
            runtime.counter("campaign.checkpoints").value());
  EXPECT_EQ(runtime.gauge("campaign.trials.censored").value(), 0);
  EXPECT_EQ(runtime.gauge("campaign.trials.failed").value(), 0);
  std::filesystem::remove(options.checkpoint_path);
}

TEST_F(CampaignTest, FingerprintCoversTheTrajectoryShapingKnobs) {
  const CampaignOptions base = base_options();
  ppk::pp::Counts initial(protocol_.num_states(), 0);
  initial[protocol_.initial_state()] = kN;
  const std::string fp = ppk::core::campaign_fingerprint(initial, base);

  CampaignOptions changed = base;
  changed.chunk_interactions = 1024;
  EXPECT_NE(ppk::core::campaign_fingerprint(initial, changed), fp);
  changed = base;
  changed.mc.master_seed = 7;
  EXPECT_NE(ppk::core::campaign_fingerprint(initial, changed), fp);
  changed = base;
  changed.max_retries = 3;
  EXPECT_NE(ppk::core::campaign_fingerprint(initial, changed), fp);

  // Supervision-only knobs deliberately stay out: they never change a
  // completed trial's trajectory, so resuming across them is sound.
  changed = base;
  changed.campaign_deadline_seconds = 5.0;
  changed.checkpoint_every_chunks = 99;
  EXPECT_EQ(ppk::core::campaign_fingerprint(initial, changed), fp);

  // The engine is recorded as resolved: kAuto and the engine it picks for
  // this population draw the same trajectories and share a fingerprint.
  changed = base;
  changed.mc.engine = ppk::pp::Engine::kAuto;
  const std::string automatic =
      ppk::core::campaign_fingerprint(initial, changed);
  changed.mc.engine = ppk::pp::resolve_engine(ppk::pp::Engine::kAuto, kN,
                                              /*watch=*/false);
  EXPECT_EQ(ppk::core::campaign_fingerprint(initial, changed), automatic);
  changed.mc.engine = ppk::pp::Engine::kJump;
  const std::string jump = ppk::core::campaign_fingerprint(initial, changed);
  EXPECT_NE(jump, automatic);
  // Engines are recorded by their stable names, not enumerator values, so
  // renumbering Engine cannot make two engines' checkpoints collide.
  EXPECT_NE(jump.find(" engine=jump "), std::string::npos) << jump;
}

TEST_F(CampaignTest, RefusesACheckpointOfAnotherResolvedEngine) {
  // kAuto sends n = 600 to the jump engine.  A checkpoint holding agent
  // snapshots at that size (an explicit kAgentArray run here; a kAuto run
  // of a build with another engine mapping in the field) must come back as
  // a fingerprint error -- restoring it into a JumpSimulator would trip
  // the snapshot reader's engine-tag precondition and abort the process.
  constexpr std::uint32_t kBigN = 600;
  ASSERT_EQ(ppk::pp::resolve_engine(ppk::pp::Engine::kAuto, kBigN, false),
            ppk::pp::Engine::kJump);
  // The stop flag rises mid-trial, so the halted campaign captures the
  // running trial's engine snapshot at the next chunk boundary.
  std::atomic<bool> stop{false};
  const auto halting_oracle = [&] {
    return std::make_unique<StopAfterOracle>(
        ppk::core::stable_pattern_oracle(protocol_, kBigN), &stop, 1000);
  };
  CampaignOptions options = base_options();
  options.mc.trials = 2;
  options.mc.max_interactions = ppk::pp::kDefaultInteractionBudget;
  options.mc.engine = ppk::pp::Engine::kAgentArray;
  options.checkpoint_path = temp_checkpoint("engine_mismatch");
  options.stop = &stop;
  const CampaignResult halted = ppk::core::run_campaign(
      protocol_, table_, kBigN, halting_oracle, options);
  EXPECT_FALSE(halted.complete);

  std::ifstream file(options.checkpoint_path);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  const auto ckpt = ppk::core::parse_campaign_checkpoint(buffer.str());
  ASSERT_TRUE(ckpt.has_value());
  ASSERT_FALSE(ckpt->in_flight.empty());
  EXPECT_EQ(ckpt->in_flight.front().snapshot.engine, "agent");

  options.stop = nullptr;
  options.mc.engine = ppk::pp::Engine::kAuto;
  const CampaignResult refused = ppk::core::run_campaign(
      protocol_, table_, kBigN,
      [&] { return ppk::core::stable_pattern_oracle(protocol_, kBigN); },
      options);
  EXPECT_FALSE(refused.error.empty());
  EXPECT_TRUE(refused.stale_checkpoint);
  EXPECT_TRUE(refused.trials.empty());
  std::filesystem::remove(options.checkpoint_path);
}

TEST_F(CampaignTest, FingerprintCoversFairnessAndTopology) {
  const CampaignOptions base = base_options();
  ppk::pp::Counts initial(protocol_.num_states(), 0);
  initial[protocol_.initial_state()] = kN;
  const std::string fp = ppk::core::campaign_fingerprint(initial, base);

  // The fairness policy and its epsilon both shape every adversarial
  // trajectory; each must change the fingerprint on its own.
  CampaignOptions changed = base;
  changed.mc.fairness.policy = ppk::pp::FairnessPolicy::kWeakRoundRobin;
  EXPECT_NE(ppk::core::campaign_fingerprint(initial, changed), fp);
  changed = base;
  changed.mc.fairness.policy = ppk::pp::FairnessPolicy::kEpsilonFair;
  changed.mc.fairness.epsilon = 0.25;
  const std::string quarter = ppk::core::campaign_fingerprint(initial, changed);
  EXPECT_NE(quarter, fp);
  changed.mc.fairness.epsilon = 0.5;
  EXPECT_NE(ppk::core::campaign_fingerprint(initial, changed), quarter);

  // The topology is fingerprinted by the edge list trial 0 runs on, so two
  // factories over the same agents (ring vs star) refuse each other's
  // checkpoints.
  changed = base;
  changed.mc.engine = ppk::pp::Engine::kGraph;
  changed.mc.graph = [](std::uint64_t) {
    return ppk::pp::InteractionGraph::ring(kN);
  };
  const std::string ring = ppk::core::campaign_fingerprint(initial, changed);
  EXPECT_NE(ring, fp);
  changed.mc.graph = [](std::uint64_t) {
    return ppk::pp::InteractionGraph::star(kN);
  };
  EXPECT_NE(ppk::core::campaign_fingerprint(initial, changed), ring);
}

TEST_F(CampaignTest, RefusesAFairnessMismatchedCheckpoint) {
  // A checkpoint written under weak round-robin must NOT resume under the
  // default uniform-random fairness: the policies draw entirely different
  // trajectories, so finishing the campaign under the wrong one would
  // silently mix statistics.  (The pre-fix fingerprint omitted fairness
  // and resumed cleanly.)
  CampaignOptions options = base_options();
  options.checkpoint_path = temp_checkpoint("fairness_mismatch");
  options.mc.fairness.policy = ppk::pp::FairnessPolicy::kWeakRoundRobin;
  const std::atomic<bool> stop{true};
  options.stop = &stop;  // wind down immediately; the checkpoint still lands
  const CampaignResult halted = run(options);
  EXPECT_FALSE(halted.complete);

  options.stop = nullptr;
  options.mc.fairness = ppk::pp::FairnessSpec{};  // back to uniform-random
  const CampaignResult refused = run(options);
  EXPECT_FALSE(refused.error.empty());
  EXPECT_TRUE(refused.trials.empty());
  std::filesystem::remove(options.checkpoint_path);
}

TEST_F(CampaignTest, AdversarialFairnessRoutesToTheAdversarialEngine) {
  // An epsilon-fair campaign must draw the same trajectories as the
  // Monte-Carlo runner's adversarial route with the same seeds.  (Pre-fix
  // the campaign ignored `mc.fairness` and ran the uniform scheduler, so
  // the totals disagree.)  The other engines and fairness policies are
  // rows of CampaignIsMonteCarlo below.
  ppk::pp::MonteCarloOptions mc;
  mc.trials = 4;
  mc.master_seed = 99;
  mc.fairness =
      ppk::pp::FairnessSpec{ppk::pp::FairnessPolicy::kEpsilonFair, 0.5};
  expect_campaign_is_monte_carlo(
      protocol_, table_, kN,
      [&] { return ppk::core::stable_pattern_oracle(protocol_, kN); }, mc);
}

TEST_F(CampaignTest, CountsOnlyOverloadRejectsAdversarialFairness) {
  // Without a protocol the adversarial engine cannot probe for progress;
  // the counts-only overload must fail fast instead of silently running
  // the uniform scheduler.
  CampaignOptions options = base_options();
  options.mc.fairness.policy = ppk::pp::FairnessPolicy::kWeakRoundRobin;
  ppk::pp::Counts initial(protocol_.num_states(), 0);
  initial[protocol_.initial_state()] = kN;
  EXPECT_DEATH(
      (void)ppk::core::run_campaign(
          table_, initial,
          [&] { return ppk::core::stable_pattern_oracle(protocol_, kN); },
          options),
      "needs_adversarial_engine");
}

TEST_F(CampaignTest, WeakRoundRobinCheckpointResumesBitIdentically) {
  // The checkpoint-kill-resume story under kWeakRoundRobin: the
  // adversarial engine's snapshot carries the unscheduled remainder of
  // the current round, so a censored-and-resumed campaign must be
  // bit-identical to an uninterrupted one.  Uses the weak-fairness
  // k-partition family (the global-fairness family livelocks here).
  ppk::core::WeakKPartitionProtocol weak(3);
  ppk::pp::TransitionTable table(weak);
  CampaignOptions options = base_options();
  options.mc.trials = 4;
  const auto make_oracle = [&] {
    return std::make_unique<ppk::pp::SilenceOracle>(table);
  };
  options.mc.fairness.policy = ppk::pp::FairnessPolicy::kWeakRoundRobin;
  const CampaignResult reference =
      ppk::core::run_campaign(weak, table, kN, make_oracle, options);
  ASSERT_TRUE(reference.complete);
  for (const auto& t : reference.trials) EXPECT_TRUE(t.result.stabilized);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    CampaignOptions interrupted = options;
    interrupted.mc.threads = threads;
    interrupted.checkpoint_path = temp_checkpoint("weak_rr_resume");
    interrupted.campaign_deadline_seconds = 1e-9;  // censor at first boundary
    const CampaignResult partial =
        ppk::core::run_campaign(weak, table, kN, make_oracle, interrupted);
    EXPECT_FALSE(partial.complete);

    interrupted.campaign_deadline_seconds.reset();
    const CampaignResult resumed =
        ppk::core::run_campaign(weak, table, kN, make_oracle, interrupted);
    EXPECT_TRUE(resumed.resumed);
    ASSERT_TRUE(resumed.complete) << "threads=" << threads;
    EXPECT_EQ(verdicts(resumed), verdicts(reference)) << "threads=" << threads;
    EXPECT_EQ(registry_json(resumed.metrics), registry_json(reference.metrics))
        << "threads=" << threads;
    std::filesystem::remove(interrupted.checkpoint_path);
  }
}

TEST_F(CampaignTest, StreamsTrialVerdictsAsTheyComplete) {
  CampaignOptions options = base_options();
  options.mc.threads = 4;
  std::vector<char> announced(options.mc.trials, 0);
  std::uint32_t events = 0;
  options.on_trial = [&](std::uint32_t trial,
                         const ppk::core::CampaignTrial& t) {
    // Serialized under the campaign lock, so plain writes are safe.
    ASSERT_LT(trial, announced.size());
    announced[trial] += 1;
    events += t.result.stabilized ? 1u : 0u;
  };
  const CampaignResult result = run(options);
  ASSERT_TRUE(result.complete);
  EXPECT_EQ(events, options.mc.trials);
  for (const char count : announced) EXPECT_EQ(count, 1);
}

TEST_F(CampaignTest, WatchOnTheShardedEngineFailsFast) {
  // The sharded engine aggregates draws and has no watch hook.  Pre-fix the
  // campaign checked only kBatch, so a forced kBatchSharded campaign with a
  // watch state returned empty marks where run_monte_carlo fails fast.
  CampaignOptions options = base_options();
  options.mc.engine = ppk::pp::Engine::kBatchSharded;
  options.mc.watch_state = protocol_.g(3);
  EXPECT_DEATH((void)run(options), "precondition");
}

/// One row of CampaignIsMonteCarlo.
struct TrialRow {
  const char* name;
  ppk::pp::Engine engine;
  ppk::pp::Engine runs_on;  // what pp::trial_engine() resolves it to
  std::uint32_t n;
  bool topology = false;  // run on the complete graph's topology factory
  bool watch = false;     // record watch marks (engines with a hook)
  bool weak_round_robin = false;
};

void PrintTo(const TrialRow& row, std::ostream* out) { *out << row.name; }

class CampaignIsMonteCarlo : public ::testing::TestWithParam<TrialRow> {};

TEST_P(CampaignIsMonteCarlo, TrialForTrial) {
  const TrialRow& row = GetParam();
  const KPartitionProtocol kpartition(3);
  const ppk::core::WeakKPartitionProtocol weak(3);
  const ppk::pp::Protocol& protocol =
      row.weak_round_robin ? static_cast<const ppk::pp::Protocol&>(weak)
                           : kpartition;
  const ppk::pp::TransitionTable table(protocol);
  const std::uint32_t n = row.n;
  const ppk::pp::OracleFactory make_oracle =
      [&]() -> std::unique_ptr<ppk::pp::StabilityOracle> {
    if (row.weak_round_robin) {
      return std::make_unique<ppk::pp::SilenceOracle>(table);
    }
    return ppk::core::stable_pattern_oracle(kpartition, n);
  };
  ppk::pp::MonteCarloOptions mc;
  mc.trials = 4;
  mc.master_seed = 2024;
  mc.engine = row.engine;
  if (row.topology) {
    mc.graph = [n](std::uint64_t) {
      return ppk::pp::InteractionGraph::complete(n);
    };
  }
  if (row.watch) mc.watch_state = kpartition.g(3);
  if (row.weak_round_robin) {
    mc.fairness.policy = ppk::pp::FairnessPolicy::kWeakRoundRobin;
  }
  ppk::pp::Counts initial(protocol.num_states(), 0);
  initial[protocol.initial_state()] = n;
  ASSERT_EQ(ppk::pp::trial_engine(initial, mc), row.runs_on);
  expect_campaign_is_monte_carlo(protocol, table, n, make_oracle, mc);
}

using ppk::pp::Engine;
INSTANTIATE_TEST_SUITE_P(
    Engines, CampaignIsMonteCarlo,
    ::testing::Values(
        TrialRow{"agent", Engine::kAgentArray, Engine::kAgentArray, 40, false,
                 true},
        TrialRow{"jump", Engine::kJump, Engine::kJump, 40, false, true},
        TrialRow{"batch", Engine::kBatch, Engine::kBatch, 4000},
        TrialRow{"sharded", Engine::kBatchSharded, Engine::kBatchSharded,
                 4000},
        TrialRow{"graph", Engine::kGraph, Engine::kGraph, 40, true, true},
        TrialRow{"graph_jump", Engine::kGraphJump, Engine::kGraphJump, 40,
                 true, true},
        TrialRow{"auto_agent_band", Engine::kAuto, Engine::kAgentArray, 40},
        TrialRow{"auto_jump_band", Engine::kAuto, Engine::kJump, 600},
        TrialRow{"auto_batch_band", Engine::kAuto, Engine::kBatch, 4000},
        TrialRow{"weak_round_robin", Engine::kAuto, Engine::kAgentArray, 40,
                 false, false, true}),
    [](const ::testing::TestParamInfo<TrialRow>& param_info) {
      return std::string(param_info.param.name);
    });

}  // namespace
