// Crash-safe campaign driver: the scripts/test_crash_resume.py workhorse
// and a minimal command-line front end for core/campaign.hpp.
//
//   campaign_cli --trials 24 --n 48 --k 3 --checkpoint ckpt.json
//       --out report.json
//
// Runs (or resumes) a checkpointed Monte-Carlo campaign of the k-partition
// protocol and writes a deterministic JSON report of every trial verdict
// plus the merged observability metrics.  The report depends only on the
// campaign configuration -- never on thread count, kill/resume history, or
// wall-clock -- which is exactly what the crash-resume integration test
// byte-compares.
//
// Exit codes: 0 = campaign complete, 3 = partial (interrupted or past the
// campaign deadline; rerun with the same flags to continue), 2 = refused
// (bad flags or a checkpoint written by a different configuration).

#include <atomic>
#include <csignal>
#include <cstdio>
#include <string>

#include "core/campaign.hpp"
#include "core/invariants.hpp"
#include "core/kpartition.hpp"
#include "io/atomic_file.hpp"
#include "io/json.hpp"
#include "pp/interaction_graph.hpp"
#include "util/cli.hpp"

namespace {

// Latched by the SIGINT handler; the campaign polls it at chunk
// boundaries and winds down gracefully (checkpointing in-flight trials).
std::atomic<bool> g_interrupted{false};

void write_report(ppk::io::JsonWriter& json,
                  const ppk::core::CampaignResult& result) {
  json.begin_object();
  json.member("schema", "ppk-campaign-report-v1");
  json.member("complete", result.complete);
  json.key("trials");
  json.begin_array();
  for (const ppk::core::CampaignTrial& t : result.trials) {
    json.begin_object();
    json.member("interactions", t.result.interactions);
    json.member("effective", t.result.effective);
    json.member("stabilized", t.result.stabilized);
    json.member("timed_out", t.result.timed_out);
    json.member("stalled", t.result.stalled);
    json.member("failed", t.failed);
    json.member("censored", t.censored);
    json.member("retries", t.retries);
    json.key("watch_marks");
    json.begin_array();
    for (const std::uint64_t mark : t.result.watch_marks) json.value(mark);
    json.end_array();
    json.end_object();
  }
  json.end_array();
  json.key("metrics");
  result.metrics.write_json(json);
  json.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  ppk::Cli cli("campaign_cli",
               "Checkpointed, supervised Monte-Carlo campaign of the "
               "k-partition protocol (core/campaign.hpp).");
  auto trials = cli.flag<int>("trials", 16, "number of trials");
  auto seed = cli.flag<long long>("seed", 0x5EED, "master RNG seed");
  auto n_flag = cli.flag<int>("n", 48, "population size");
  auto k_flag = cli.flag<int>("k", 3, "number of groups");
  auto engine = cli.flag<std::string>(
      "engine", "auto",
      "auto|agent|jump|batch|batch-sharded|graph|graph-jump (graph "
      "engines run on a ring)");
  auto threads = cli.flag<int>("threads", 1,
                               "worker threads (0 = one per core)");
  auto budget = cli.flag<long long>("budget", 2'000'000,
                                    "interaction budget per attempt");
  auto chunk = cli.flag<long long>("chunk", 4096,
                                   "interactions granted per chunk");
  auto checkpoint_every = cli.flag<int>(
      "checkpoint-every", 4, "checkpoint cadence, in progress events");
  auto checkpoint = cli.flag<std::string>(
      "checkpoint", "", "checkpoint file (empty = no checkpointing)");
  auto retries = cli.flag<int>("retries", 0, "retry budget per trial");
  auto backoff = cli.flag<double>(
      "backoff", 2.0, "interaction-budget multiplier per retry");
  auto trial_deadline = cli.flag<double>(
      "trial-deadline", 0.0, "per-attempt wall-clock deadline in seconds "
                             "(0 = none)");
  auto deadline = cli.flag<double>(
      "deadline", 0.0, "campaign wall-clock deadline in seconds (0 = none)");
  auto out = cli.flag<std::string>("out", "",
                                   "write the JSON report here (atomic)");
  cli.parse(argc, argv);

  ppk::core::CampaignOptions options;
  if (const auto parsed = ppk::pp::parse_engine(*engine)) {
    options.mc.engine = *parsed;
  } else {
    std::fprintf(stderr, "unknown engine '%s'\n", engine->c_str());
    return 2;
  }
  const auto n = static_cast<std::uint32_t>(*n_flag);
  options.mc.trials = static_cast<std::uint32_t>(*trials);
  options.mc.master_seed = static_cast<std::uint64_t>(*seed);
  options.mc.max_interactions = static_cast<std::uint64_t>(*budget);
  options.mc.threads = static_cast<std::size_t>(*threads);
  if (options.mc.engine == ppk::pp::Engine::kGraph ||
      options.mc.engine == ppk::pp::Engine::kGraphJump) {
    options.mc.graph = [n](std::uint64_t) {
      return ppk::pp::InteractionGraph::ring(n);
    };
  }
  options.checkpoint_path = *checkpoint;
  options.chunk_interactions = static_cast<std::uint64_t>(*chunk);
  options.checkpoint_every_chunks =
      static_cast<std::uint32_t>(*checkpoint_every);
  options.max_retries = static_cast<std::uint32_t>(*retries);
  options.retry_backoff = *backoff;
  if (*trial_deadline > 0.0) {
    options.mc.wall_clock_limit_seconds = *trial_deadline;
  }
  if (*deadline > 0.0) options.campaign_deadline_seconds = *deadline;
  std::signal(SIGINT, [](int) { g_interrupted.store(true); });
  options.stop = &g_interrupted;

  const ppk::core::KPartitionProtocol protocol(
      static_cast<ppk::pp::GroupId>(*k_flag));
  const ppk::pp::TransitionTable table(protocol);
  const ppk::core::CampaignResult result = ppk::core::run_campaign(
      protocol, table, n,
      [&] { return ppk::core::stable_pattern_oracle(protocol, n); }, options);

  if (!result.error.empty()) {
    std::fprintf(stderr, "campaign refused: %s\n", result.error.c_str());
    return 2;
  }

  std::printf("campaign: %u trial(s), %u completed, %u retried, %u failed, "
              "%u censored%s%s\n",
              options.mc.trials, result.completed_count(),
              result.retried_count(), result.failed_count(),
              result.censored_count(), result.resumed ? ", resumed" : "",
              result.complete ? "" : ", PARTIAL");

  if (!out->empty()) {
    ppk::io::AtomicFileWriter file(*out);
    ppk::io::JsonWriter json(file.stream());
    write_report(json, result);
    file.stream() << '\n';
    std::string error;
    if (!file.commit(&error)) {
      std::fprintf(stderr, "cannot write report: %s\n", error.c_str());
      return 2;
    }
    std::printf("report written to %s\n", out->c_str());
  }
  return result.complete ? 0 : 3;
}
