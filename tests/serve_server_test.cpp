// In-process ScenarioService tests: the wire protocol without sockets.
// Submit/streaming/caching semantics, byte-identical cache replay,
// seed-independent exact-mode entries, stop-flag cancellation with a
// retained checkpoint, and crash-resume equivalence of the result frame.
// One socket test drives run_socket_server in-process: finished connection
// threads must be reaped, not kept until shutdown.

#include "serve/server.hpp"

#include <gtest/gtest.h>
#include <pthread.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/campaign.hpp"
#include "serve/cache.hpp"

namespace ppk::serve {
namespace {

/// Collects frames from handle_line (thread-safe: simulate jobs emit trial
/// frames from campaign workers).
class FrameLog {
 public:
  ScenarioService::Emit emit() {
    return [this](const std::string& frame) {
      const std::lock_guard<std::mutex> lock(mutex_);
      frames_.push_back(frame);
    };
  }

  std::vector<std::string> take() {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> out = std::move(frames_);
    frames_.clear();
    return out;
  }

 private:
  std::mutex mutex_;
  std::vector<std::string> frames_;
};

/// Frames of one kind ("event": "<kind>").
std::vector<std::string> of_kind(const std::vector<std::string>& frames,
                                 const std::string& kind) {
  std::vector<std::string> out;
  const std::string needle = "\"event\": \"" + kind + "\"";
  for (const std::string& f : frames) {
    if (f.find(needle) != std::string::npos) out.push_back(f);
  }
  return out;
}

std::string temp_dir(const char* tag) {
  std::string tmpl = std::string("/tmp/ppk_serve_") + tag + "_XXXXXX";
  std::vector<char> buffer(tmpl.begin(), tmpl.end());
  buffer.push_back('\0');
  const char* made = ::mkdtemp(buffer.data());
  EXPECT_NE(made, nullptr);
  return made != nullptr ? made : "/tmp";
}

std::string submit_line(const std::string& id, const ScenarioSpec& spec) {
  return "{\"op\": \"submit\", \"id\": \"" + id +
         "\", \"scenario\": " + single_line_json(serialize_scenario(spec)) +
         "}";
}

bool file_exists(const std::string& path) {
  return ::access(path.c_str(), F_OK) == 0;
}

TEST(ServeServer, SingleLineJsonCollapsesStructureOnly) {
  EXPECT_EQ(single_line_json("{\n  \"a\": 1,\n  \"b\": [\n    2\n  ]\n}\n"),
            "{\"a\": 1,\"b\": [2]}");
  // Newlines inside strings are escaped by the writer and must survive.
  EXPECT_EQ(single_line_json("{\n  \"a\": \"x\\n  y\"\n}\n"),
            "{\"a\": \"x\\n  y\"}");
}

TEST(ServeServer, PingErrorsAndUnknownOps) {
  ScenarioService service(ServiceOptions{});
  FrameLog log;
  EXPECT_TRUE(service.handle_line("{\"op\": \"ping\"}", log.emit()));
  EXPECT_TRUE(service.handle_line("not json at all", log.emit()));
  EXPECT_TRUE(service.handle_line("{\"op\": \"dance\"}", log.emit()));
  EXPECT_TRUE(service.handle_line("{\"noop\": 1}", log.emit()));
  const std::vector<std::string> frames = log.take();
  ASSERT_EQ(frames.size(), 4u);
  EXPECT_NE(frames[0].find("\"pong\""), std::string::npos);
  EXPECT_NE(frames[1].find("\"error\""), std::string::npos);
  EXPECT_NE(frames[2].find("unknown op"), std::string::npos);
  EXPECT_NE(frames[3].find("'op'"), std::string::npos);
}

TEST(ServeServer, ShutdownStopsTheTransport) {
  ScenarioService service(ServiceOptions{});
  FrameLog log;
  EXPECT_FALSE(service.handle_line("{\"op\": \"shutdown\"}", log.emit()));
  const std::vector<std::string> frames = log.take();
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_NE(frames[0].find("\"bye\""), std::string::npos);
}

TEST(ServeServer, InvalidScenariosGetErrorFrames) {
  ScenarioService service(ServiceOptions{});
  FrameLog log;
  // Silence oracle on kpartition: validation diagnostic passes through.
  ScenarioSpec bad;
  bad.oracle = ScenarioOracle::kSilence;
  EXPECT_TRUE(service.handle_line(submit_line("j1", bad), log.emit()));
  // A fault schedule parses but is not yet schedulable.
  ScenarioSpec faulted;
  faulted.faults.push_back({100, pp::FaultKind::kCrash, std::nullopt,
                            std::nullopt, 0});
  EXPECT_TRUE(service.handle_line(submit_line("j2", faulted), log.emit()));
  EXPECT_TRUE(service.handle_line("{\"op\": \"submit\", \"id\": \"j3\"}",
                                  log.emit()));
  // The deleted count-vector engine's spelling is an unknown engine.
  std::string count_engine = submit_line("j4", ScenarioSpec{});
  const std::string auto_engine = "\"engine\": \"auto\"";
  const std::size_t at = count_engine.find(auto_engine);
  ASSERT_NE(at, std::string::npos);
  count_engine.replace(at, auto_engine.size(), "\"engine\": \"count\"");
  EXPECT_TRUE(service.handle_line(count_engine, log.emit()));
  const std::vector<std::string> frames = log.take();
  ASSERT_EQ(frames.size(), 4u);
  EXPECT_NE(frames[0].find("oracle.kind"), std::string::npos);
  EXPECT_NE(frames[1].find("not yet schedulable"), std::string::npos);
  EXPECT_NE(frames[2].find("'scenario'"), std::string::npos);
  EXPECT_NE(frames[3].find("\"error\""), std::string::npos);
  EXPECT_NE(frames[3].find("unknown engine"), std::string::npos);
  EXPECT_NE(frames[3].find("engine:"), std::string::npos);
}

TEST(ServeServer, SimulateStreamsTrialsAndReplaysFromTheCache) {
  ServiceOptions options;
  options.state_dir = temp_dir("sim");
  ScenarioService service(options);
  FrameLog log;

  ScenarioSpec spec;
  spec.n = 12;
  spec.trials = 4;
  spec.seed = 7;
  spec.budget = 1'000'000;

  EXPECT_TRUE(service.handle_line(submit_line("a", spec), log.emit()));
  const std::vector<std::string> first = log.take();
  ASSERT_EQ(of_kind(first, "accepted").size(), 1u);
  EXPECT_NE(first[0].find("\"cached\": false"), std::string::npos);
  EXPECT_EQ(of_kind(first, "trial").size(), 4u);
  ASSERT_EQ(of_kind(first, "job").size(), 1u);
  EXPECT_NE(of_kind(first, "job")[0].find("\"resumed\": false"),
            std::string::npos);
  const std::vector<std::string> results = of_kind(first, "result");
  ASSERT_EQ(results.size(), 1u);
  EXPECT_NE(results[0].find("\"mode\": \"simulate\""), std::string::npos);
  // The result frame is spec-pure: no job id in it.
  EXPECT_EQ(results[0].find("\"id\""), std::string::npos);
  // Completion deletes the job checkpoint and stores the cache entry.
  EXPECT_TRUE(file_exists(
      service.cache().entry_path(scenario_hash_hex(spec), spec.seed)));

  // Resubmission: cache hit, byte-identical result frame, no trials re-run.
  EXPECT_TRUE(service.handle_line(submit_line("b", spec), log.emit()));
  const std::vector<std::string> second = log.take();
  ASSERT_EQ(second.size(), 2u);
  EXPECT_NE(second[0].find("\"cached\": true"), std::string::npos);
  EXPECT_EQ(second[1], results[0]);

  // A fresh service over the same state dir replays the same bytes.
  ScenarioService reopened(options);
  EXPECT_TRUE(reopened.handle_line(submit_line("c", spec), log.emit()));
  const std::vector<std::string> third = log.take();
  ASSERT_EQ(third.size(), 2u);
  EXPECT_EQ(third[1], results[0]);
}

TEST(ServeServer, ExactModesCacheSeedIndependently) {
  ServiceOptions options;
  options.state_dir = temp_dir("exact");
  ScenarioService service(options);
  FrameLog log;

  ScenarioSpec spec;
  spec.k = 2;
  spec.n = 6;
  spec.mode = ScenarioMode::kVerify;
  spec.seed = 1;

  EXPECT_TRUE(service.handle_line(submit_line("v1", spec), log.emit()));
  const std::vector<std::string> first = log.take();
  const std::vector<std::string> results = of_kind(first, "result");
  ASSERT_EQ(results.size(), 1u);
  EXPECT_NE(results[0].find("\"solves\": true"), std::string::npos);

  // A different seed is the same exact question: cache hit, same bytes.
  spec.seed = 424242;
  EXPECT_TRUE(service.handle_line(submit_line("v2", spec), log.emit()));
  const std::vector<std::string> second = log.take();
  ASSERT_EQ(second.size(), 2u);
  EXPECT_NE(second[0].find("\"cached\": true"), std::string::npos);
  EXPECT_EQ(second[1], results[0]);
}

TEST(ServeServer, VerifyResultLinesArePinned) {
  // verify(kpartition) explores the lumped chain under the trivial group;
  // its result lines are the ones the ConfigGraph verifier produced.
  ServiceOptions options;
  options.state_dir = temp_dir("verify_pin");
  ScenarioService service(options);
  FrameLog log;

  const auto result_of = [&](pp::GroupId k, std::uint32_t n) {
    ScenarioSpec spec;
    spec.k = k;
    spec.n = n;
    spec.mode = ScenarioMode::kVerify;
    EXPECT_TRUE(service.handle_line(submit_line("v", spec), log.emit()));
    const std::vector<std::string> results = of_kind(log.take(), "result");
    return results.size() == 1 ? results[0] : std::string();
  };
  EXPECT_EQ(result_of(2, 9),
            "{\"event\": \"result\",\"scenario\": \"785614a526aeef39\","
            "\"mode\": \"verify\",\"exact_schema\": \"ppkd-exact-v6\","
            "\"solves\": true,\"exploration_complete\": true,"
            "\"reachable_configs\": 25,\"num_sccs\": 5,\"bottom_sccs\": 1,"
            "\"failure\": \"\"}");
  EXPECT_EQ(result_of(3, 10),
            "{\"event\": \"result\",\"scenario\": \"8d0455f5031171ee\","
            "\"mode\": \"verify\",\"exact_schema\": \"ppkd-exact-v6\","
            "\"solves\": true,\"exploration_complete\": true,"
            "\"reachable_configs\": 147,\"num_sccs\": 4,\"bottom_sccs\": 1,"
            "\"failure\": \"\"}");
  // Past the old n <= 10 bound: Theorem 1 at k = 3, n = 36.
  const std::string n36 = result_of(3, 36);
  EXPECT_NE(n36.find("\"solves\": true"), std::string::npos) << n36;
  EXPECT_NE(n36.find("\"reachable_configs\": 9289,"), std::string::npos)
      << n36;
}

TEST(ServeServer, VerifyConfigurationCapIsAnErrorFrame) {
  // verify(kpartition) explores under --markov-max-orbits.  Over the cap
  // the verdict is unknown, so the job fails like markov's instead of
  // caching an answer that depends on the cap.
  ServiceOptions options;
  options.state_dir = temp_dir("verify_cap");
  options.markov_max_orbits = 4;
  ScenarioService service(options);
  FrameLog log;

  ScenarioSpec spec;
  spec.k = 2;
  spec.n = 8;
  spec.mode = ScenarioMode::kVerify;

  EXPECT_TRUE(service.handle_line(submit_line("cap", spec), log.emit()));
  const std::vector<std::string> frames = log.take();
  EXPECT_TRUE(of_kind(frames, "result").empty());
  const std::vector<std::string> errors = of_kind(frames, "error");
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("max_configs"), std::string::npos) << errors[0];
  EXPECT_FALSE(
      file_exists(service.cache().exact_entry_path(scenario_hash_hex(spec))));
}

TEST(ServeServer, MarkovModeReportsTheExactExpectation) {
  ServiceOptions options;
  options.state_dir = temp_dir("markov");
  ScenarioService service(options);
  FrameLog log;

  ScenarioSpec spec;
  spec.k = 2;
  spec.n = 5;
  spec.mode = ScenarioMode::kMarkov;

  EXPECT_TRUE(service.handle_line(submit_line("m1", spec), log.emit()));
  const std::vector<std::string> results = of_kind(log.take(), "result");
  ASSERT_EQ(results.size(), 1u);
  EXPECT_NE(results[0].find("\"mode\": \"markov\""), std::string::npos);
  EXPECT_NE(results[0].find("\"expected_interactions\": "), std::string::npos);
  // The paper's protocol reaches the stable pattern with probability 1, so
  // the expectation is finite (not the null the writer uses for "never").
  EXPECT_EQ(results[0].find("\"expected_interactions\": null"),
            std::string::npos);
  EXPECT_NE(results[0].find("\"absorptions\": [{"), std::string::npos);
}

TEST(ServeServer, MarkovOrbitCapIsAnErrorFrameNotACrash) {
  // An exact analysis that cannot complete (here: an orbit cap far below
  // the chain's size) must come back as an `error` frame on the wire --
  // the daemon used to abort the whole process -- and the service must
  // keep answering afterwards.
  ServiceOptions options;
  options.state_dir = temp_dir("markov_cap");
  options.markov_max_orbits = 4;
  ScenarioService service(options);
  FrameLog log;

  ScenarioSpec spec;
  spec.k = 2;
  spec.n = 8;
  spec.mode = ScenarioMode::kMarkov;

  EXPECT_TRUE(service.handle_line(submit_line("cap", spec), log.emit()));
  const std::vector<std::string> frames = log.take();
  EXPECT_TRUE(of_kind(frames, "result").empty());
  const std::vector<std::string> errors = of_kind(frames, "error");
  ASSERT_EQ(errors.size(), 1u);

  // The failed job left nothing cached and the daemon still serves.
  EXPECT_FALSE(
      file_exists(service.cache().exact_entry_path(scenario_hash_hex(spec))));
  EXPECT_TRUE(service.handle_line("{\"op\": \"ping\"}", log.emit()));
  EXPECT_EQ(log.take().size(), 1u);
}

/// Migration: a stale exact entry (`stale_frame`, written by an older
/// daemon) must be recomputed, not replayed, and the recomputation
/// overwrites it with a frame carrying the current tag.
void expect_stale_exact_entry_is_recomputed(const char* name,
                                            const std::string& stale_frame) {
  ServiceOptions options;
  options.state_dir = temp_dir(name);
  ScenarioService service(options);
  FrameLog log;

  ScenarioSpec spec;
  spec.k = 2;
  spec.n = 5;
  spec.mode = ScenarioMode::kMarkov;

  EXPECT_TRUE(service.handle_line(submit_line("m1", spec), log.emit()));
  const std::vector<std::string> results = of_kind(log.take(), "result");
  ASSERT_EQ(results.size(), 1u);
  EXPECT_NE(results[0].find(kExactResultSchema), std::string::npos);

  const std::string entry =
      service.cache().exact_entry_path(scenario_hash_hex(spec));
  ASSERT_TRUE(file_exists(entry));

  {
    std::ofstream out(entry, std::ios::trunc);
    out << stale_frame << "\n";
  }
  EXPECT_TRUE(service.handle_line(submit_line("m2", spec), log.emit()));
  const std::vector<std::string> second = log.take();
  ASSERT_EQ(of_kind(second, "accepted").size(), 1u);
  EXPECT_NE(of_kind(second, "accepted")[0].find("\"cached\": false"),
            std::string::npos);
  const std::vector<std::string> recomputed = of_kind(second, "result");
  ASSERT_EQ(recomputed.size(), 1u);
  EXPECT_EQ(recomputed[0], results[0]);

  // The entry on disk carries the current tag: the third submission is a
  // hit.
  std::ifstream in(entry);
  std::ostringstream stored;
  stored << in.rdbuf();
  EXPECT_NE(stored.str().find(kExactResultSchema), std::string::npos);
  EXPECT_TRUE(service.handle_line(submit_line("m3", spec), log.emit()));
  const std::vector<std::string> third = log.take();
  ASSERT_EQ(of_kind(third, "accepted").size(), 1u);
  EXPECT_NE(of_kind(third, "accepted")[0].find("\"cached\": true"),
            std::string::npos);
}

TEST(ServeServer, UntaggedExactCacheEntryIsAMissAndGetsRetagged) {
  // The v1 daemon: same answer, no schema tag.
  expect_stale_exact_entry_is_recomputed(
      "markov_mig",
      "{\"event\": \"result\", \"mode\": \"markov\", "
      "\"expected_interactions\": 17.5}");
}

TEST(ServeServer, V2TaggedExactCacheEntryIsAMissAndGetsRetagged) {
  // The v2 daemon: answers from the global Gauss-Seidel solve, whose low
  // digits the block-by-block solve no longer reproduces.
  ASSERT_NE(kExactResultSchema, "ppkd-exact-v2");
  expect_stale_exact_entry_is_recomputed(
      "markov_mig_v2",
      "{\"event\": \"result\", \"mode\": \"markov\", "
      "\"exact_schema\": \"ppkd-exact-v2\", \"solver\": \"lumped\", "
      "\"expected_interactions\": 17.5}");
}

TEST(ServeServer, V3TaggedExactCacheEntryIsAMissAndGetsRetagged) {
  // The v3 daemon: answers from the Neumaier-compensated, upstream-first
  // sweep, whose low bits the plain downstream-first sweep no longer
  // reproduces.
  ASSERT_NE(kExactResultSchema, "ppkd-exact-v3");
  expect_stale_exact_entry_is_recomputed(
      "markov_mig_v3",
      "{\"event\": \"result\", \"mode\": \"markov\", "
      "\"exact_schema\": \"ppkd-exact-v3\", \"solver\": \"lumped\", "
      "\"expected_interactions\": 17.5}");
}

TEST(ServeServer, V4TaggedExactCacheEntryIsAMissAndGetsRetagged) {
  // The v4 daemon: answers swept from zero in every SCC block, whose low
  // bits the direct seed of small blocks no longer reproduces.
  ASSERT_NE(kExactResultSchema, "ppkd-exact-v4");
  expect_stale_exact_entry_is_recomputed(
      "markov_mig_v4",
      "{\"event\": \"result\", \"mode\": \"markov\", "
      "\"exact_schema\": \"ppkd-exact-v4\", \"solver\": \"lumped\", "
      "\"expected_interactions\": 17.5}");
}

TEST(ServeServer, V5TaggedExactCacheEntryIsAMissAndGetsRetagged) {
  // The v5 daemon: answers from point Gauss-Seidel sweeps, whose low bits
  // the line sweeps over free-flip lines no longer reproduce.
  ASSERT_NE(kExactResultSchema, "ppkd-exact-v5");
  expect_stale_exact_entry_is_recomputed(
      "markov_mig_v5",
      "{\"event\": \"result\", \"mode\": \"markov\", "
      "\"exact_schema\": \"ppkd-exact-v5\", \"solver\": \"lumped\", "
      "\"expected_interactions\": 17.5}");
}

/// Stores a simulate result, rewrites its cache entry with `stale_tag` in
/// place of the current sim_schema member (an empty string drops the
/// member), and checks that the next submission recomputes the frame and
/// re-tags the entry, so the submission after that hits.
void expect_stale_sim_entry_is_recomputed(const char* dir_name,
                                          const std::string& stale_tag) {
  ServiceOptions options;
  options.state_dir = temp_dir(dir_name);
  ScenarioService service(options);
  FrameLog log;

  ScenarioSpec spec;
  spec.n = 12;
  spec.trials = 3;
  spec.seed = 5;
  spec.budget = 1'000'000;

  EXPECT_TRUE(service.handle_line(submit_line("s1", spec), log.emit()));
  const std::vector<std::string> results = of_kind(log.take(), "result");
  ASSERT_EQ(results.size(), 1u);
  const std::string tag =
      "\"sim_schema\": \"" + std::string(kSimResultSchema) + "\",";
  const std::size_t at = results[0].find(tag);
  ASSERT_NE(at, std::string::npos);

  // The same frame as an older daemon would have stored it.
  const std::string entry =
      service.cache().entry_path(scenario_hash_hex(spec), spec.seed);
  ASSERT_TRUE(file_exists(entry));
  std::string stale = results[0];
  stale.replace(at, tag.size(), stale_tag);
  {
    std::ofstream out(entry, std::ios::trunc);
    out << stale << "\n";
  }
  EXPECT_TRUE(service.handle_line(submit_line("s2", spec), log.emit()));
  const std::vector<std::string> second = log.take();
  ASSERT_EQ(of_kind(second, "accepted").size(), 1u);
  EXPECT_NE(of_kind(second, "accepted")[0].find("\"cached\": false"),
            std::string::npos);
  const std::vector<std::string> recomputed = of_kind(second, "result");
  ASSERT_EQ(recomputed.size(), 1u);
  EXPECT_EQ(recomputed[0], results[0]);

  // The entry on disk carries the tag again: the third submission hits.
  EXPECT_TRUE(service.handle_line(submit_line("s3", spec), log.emit()));
  const std::vector<std::string> third = log.take();
  ASSERT_EQ(third.size(), 2u);
  EXPECT_NE(third[0].find("\"cached\": true"), std::string::npos);
  EXPECT_EQ(third[1], results[0]);
}

TEST(ServeServer, UntaggedSimCacheEntryIsAMissAndGetsRetagged) {
  // A simulate entry written before sim_schema existed may hold trials of
  // another engine (kAuto's mapping moved): it must be recomputed, not
  // replayed, and the recomputation overwrites it with a tagged frame.
  expect_stale_sim_entry_is_recomputed("sim_mig", "");
}

TEST(ServeServer, V2TaggedSimCacheEntryIsAMissAndGetsRetagged) {
  // The v2 daemon ran 320 <= n < 512 on the agent engine; kAuto now
  // sends those sizes to jump, so a v2 frame holds other trials.
  ASSERT_NE(kSimResultSchema, "ppkd-sim-v2");
  expect_stale_sim_entry_is_recomputed(
      "sim_mig_v2", "\"sim_schema\": \"ppkd-sim-v2\",");
}

TEST(ServeServer, StaleCheckpointIsDiscardedAndTheJobRunsFresh) {
  // A well-formed checkpoint at the job's own path whose fingerprint
  // belongs to another configuration (here: an older daemon's engine
  // mapping) can never resume.  The daemon deletes it and runs the job
  // from scratch instead of answering this (spec, seed) with an error
  // frame forever.
  ScenarioSpec spec;
  spec.n = 12;
  spec.trials = 3;
  spec.seed = 9;
  spec.budget = 1'000'000;

  std::string reference;
  {
    ServiceOptions options;
    options.state_dir = temp_dir("stale_ref");
    ScenarioService service(options);
    FrameLog log;
    EXPECT_TRUE(service.handle_line(submit_line("ref", spec), log.emit()));
    const std::vector<std::string> results = of_kind(log.take(), "result");
    ASSERT_EQ(results.size(), 1u);
    reference = results[0];
  }

  ServiceOptions options;
  options.state_dir = temp_dir("stale_ckpt");
  const std::string checkpoint = options.state_dir + "/ckpt-" +
                                 scenario_hash_hex(spec) + "-" +
                                 std::to_string(spec.seed) + ".json";
  {
    core::CampaignCheckpoint stale;
    stale.fingerprint = std::string(core::kCampaignSchema) +
                        " written by another engine mapping";
    std::ofstream out(checkpoint, std::ios::trunc);
    out << core::serialize_campaign_checkpoint(stale);
  }
  ScenarioService service(options);
  FrameLog log;
  EXPECT_TRUE(service.handle_line(submit_line("fresh", spec), log.emit()));
  const std::vector<std::string> frames = log.take();
  EXPECT_TRUE(of_kind(frames, "error").empty());
  const std::vector<std::string> jobs = of_kind(frames, "job");
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_NE(jobs[0].find("\"resumed\": false"), std::string::npos);
  const std::vector<std::string> results = of_kind(frames, "result");
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0], reference);
  EXPECT_FALSE(file_exists(checkpoint));  // consumed on completion
}

TEST(ServeServer, ConformanceModeRunsTheHarness) {
  ServiceOptions options;
  options.state_dir = temp_dir("conf");
  ScenarioService service(options);
  FrameLog log;

  ScenarioSpec spec;
  spec.mode = ScenarioMode::kConformance;
  spec.n = 8;
  spec.k = 2;
  spec.trials = 5;
  spec.budget = 50'000;

  EXPECT_TRUE(service.handle_line(submit_line("c1", spec), log.emit()));
  const std::vector<std::string> results = of_kind(log.take(), "result");
  ASSERT_EQ(results.size(), 1u);
  EXPECT_NE(results[0].find("\"mode\": \"conformance\""), std::string::npos);
  EXPECT_NE(results[0].find(kSimResultSchema), std::string::npos);
  EXPECT_NE(results[0].find("\"ok\": true"), std::string::npos);
}

TEST(ServeServer, CancelCheckpointsAndResumeCompletesIdentically) {
  // Budget-exhausting trials (quiescence window no trial can meet) on the
  // slow reference engine: long enough to cancel mid-flight reliably.
  ScenarioSpec spec;
  spec.n = 20'000;
  spec.trials = 8;
  spec.seed = 11;
  spec.budget = 3'000'000;
  spec.engine = pp::Engine::kAgentArray;
  spec.oracle = ScenarioOracle::kQuiescence;
  spec.quiescence_window = 1ULL << 62;
  ASSERT_EQ(validate_scenario(spec), "");

  // Reference: one uninterrupted run.
  ServiceOptions options;
  options.state_dir = temp_dir("cancel_ref");
  options.chunk_interactions = 1ULL << 14;
  options.checkpoint_every_chunks = 2;
  std::string reference;
  {
    ScenarioService service(options);
    FrameLog log;
    EXPECT_TRUE(service.handle_line(submit_line("ref", spec), log.emit()));
    const std::vector<std::string> results = of_kind(log.take(), "result");
    ASSERT_EQ(results.size(), 1u);
    reference = results[0];
  }

  // Interrupted: cancel from another thread mid-run, then resume in a
  // fresh service over the same state dir.
  options.state_dir = temp_dir("cancel_cut");
  const std::string checkpoint = options.state_dir + "/ckpt-" +
                                 scenario_hash_hex(spec) + "-" +
                                 std::to_string(spec.seed) + ".json";
  bool cancelled_midway = false;
  {
    ScenarioService service(options);
    FrameLog log;
    std::thread submitter([&] {
      EXPECT_TRUE(service.handle_line(submit_line("cut", spec), log.emit()));
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    service.cancel("cut");
    submitter.join();
    const std::vector<std::string> frames = log.take();
    if (!of_kind(frames, "incomplete").empty()) {
      cancelled_midway = true;
      EXPECT_TRUE(file_exists(checkpoint));  // resumable state retained
    }
  }
  {
    ScenarioService service(options);
    FrameLog log;
    EXPECT_TRUE(service.handle_line(submit_line("cut2", spec), log.emit()));
    const std::vector<std::string> frames = log.take();
    const std::vector<std::string> results = of_kind(frames, "result");
    ASSERT_EQ(results.size(), 1u);
    // Whether this leg resumed a checkpoint or replayed the cache, the
    // result bytes must match the uninterrupted reference exactly.
    EXPECT_EQ(results[0], reference);
    if (cancelled_midway) {
      const std::vector<std::string> jobs = of_kind(frames, "job");
      ASSERT_EQ(jobs.size(), 1u);
      EXPECT_NE(jobs[0].find("\"resumed\": true"), std::string::npos);
      EXPECT_FALSE(file_exists(checkpoint));  // consumed on completion
    }
  }
}

/// The process's virtual size in KiB (VmSize in /proc/self/status).
std::uint64_t vm_size_kib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmSize:", 0) == 0) return std::stoull(line.substr(7));
  }
  return 0;
}

/// Stack size of a std::thread in KiB, as the running thread reports it.
std::uint64_t thread_stack_kib() {
  std::size_t bytes = 0;
  std::thread([&bytes] {
    pthread_attr_t attr;
    if (::pthread_getattr_np(::pthread_self(), &attr) == 0) {
      ::pthread_attr_getstacksize(&attr, &bytes);
      ::pthread_attr_destroy(&attr);
    }
  }).join();
  return bytes / 1024;
}

/// One client session: connect (retrying while the server starts), one
/// ping round trip so the server is serving the connection, hang up.
void ping_and_hang_up(const std::string& socket_path) {
  struct sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  ASSERT_LT(socket_path.size(), sizeof addr.sun_path);
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  int fd = -1;
  for (int attempt = 0; attempt < 500 && fd < 0; ++attempt) {
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                  sizeof addr) != 0) {
      ::close(fd);
      fd = -1;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  ASSERT_GE(fd, 0) << "server never accepted on " << socket_path;
  const std::string ping = "{\"op\": \"ping\"}\n";
  ASSERT_EQ(::send(fd, ping.data(), ping.size(), MSG_NOSIGNAL),
            static_cast<::ssize_t>(ping.size()));
  char reply[256];
  EXPECT_GT(::recv(fd, reply, sizeof reply, 0), 0);
  ::close(fd);
}

TEST(ServeSocket, FinishedConnectionThreadsAreReaped) {
  // Every connection runs on its own thread.  A thread that has returned
  // but was never joined keeps its stack mapped, so a server that joins
  // only at shutdown grows by one stack per connection it has served.
  const std::string socket_path = temp_dir("reap") + "/ppkd.sock";
  ScenarioService service(ServiceOptions{});
  std::atomic<bool> stop{false};
  std::thread server(
      [&] { EXPECT_EQ(run_socket_server(socket_path, service, &stop), 0); });
  ping_and_hang_up(socket_path);  // warm-up: the first thread's stack
  const std::uint64_t before = vm_size_kib();
  constexpr int kConnections = 64;
  for (int i = 0; i < kConnections; ++i) ping_and_hang_up(socket_path);

  const std::uint64_t stack = thread_stack_kib();
  ASSERT_GT(stack, 0u);
  // A quarter of the sessions' stacks is far from the leak's 64.
  const std::uint64_t allowed = kConnections / 4 * stack;
  const auto growth = [&] {
    const std::uint64_t after = vm_size_kib();
    return after > before ? after - before : 0;
  };
  // The server joins finished sessions only between its 200 ms accept
  // polls, so sessions that are still exiting after the last hang-up are
  // counted until the next round.  Give it ten rounds: joined stacks are
  // unmapped, while a real leak never shrinks.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  std::uint64_t grown = growth();
  while (grown >= allowed && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    grown = growth();
  }
  stop.store(true);
  server.join();

  EXPECT_LT(grown, allowed)
      << "VmSize grew " << grown << " KiB over " << kConnections
      << " sequential connections (thread stack " << stack << " KiB)";
}

TEST(ServeServer, CancelReportsWhetherTheJobExisted) {
  ScenarioService service(ServiceOptions{});
  FrameLog log;
  EXPECT_TRUE(
      service.handle_line("{\"op\": \"cancel\", \"id\": \"ghost\"}", log.emit()));
  const std::vector<std::string> frames = log.take();
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_NE(frames[0].find("\"found\": false"), std::string::npos);
  EXPECT_FALSE(service.cancel("ghost"));
}

}  // namespace
}  // namespace ppk::serve
