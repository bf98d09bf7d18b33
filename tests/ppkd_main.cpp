// ppkd -- the scenario daemon (ROADMAP item 4; docs/ppkd.md).
//
// A thin CLI over serve::run_socket_server: AF_UNIX line-delimited JSON in,
// frames out, jobs on the checkpointed campaign layer, results in the
// (scenario-hash, seed) cache under --state-dir.  SIGINT/SIGTERM wind the
// daemon down the same way a client `shutdown` does: running jobs get
// their stop flag, checkpoint, and the next start resumes them.

#include <csignal>

#include <atomic>
#include <string>

#include "serve/server.hpp"
#include "util/cli.hpp"

namespace {

std::atomic<bool> g_stop{false};

void on_signal(int /*signum*/) {
  g_stop.store(true, std::memory_order_relaxed);
}

}  // namespace

int main(int argc, char** argv) {
  ppk::Cli cli("ppkd", "Scenario server: line-delimited JSON over AF_UNIX.");
  auto socket_path =
      cli.flag<std::string>("socket", "./ppkd.sock", "listening socket path");
  auto state_dir = cli.flag<std::string>(
      "state-dir", "./ppkd-state",
      "checkpoint + result-cache directory (empty disables persistence)");
  auto threads = cli.flag<long long>(
      "threads", 1, "worker threads per simulate job (0 = hardware cores)");
  auto chunk = cli.flag<long long>(
      "chunk", 1 << 16,
      "campaign chunk size in interactions (a job's checkpoints are bound "
      "to one chunk size)");
  auto checkpoint_every = cli.flag<long long>(
      "checkpoint-every", 4, "checkpoint cadence in campaign progress events");
  auto markov_max_orbits = cli.flag<long long>(
      "markov-max-orbits", 1'000'000,
      "markov-mode orbit cap of the lumped chain; a markov job exceeding it "
      "fails with an error frame");
  cli.parse(argc, argv);

  ppk::serve::ServiceOptions options;
  options.state_dir = *state_dir;
  options.job_threads = static_cast<std::size_t>(*threads < 0 ? 0 : *threads);
  options.chunk_interactions =
      *chunk < 1 ? 1ULL : static_cast<std::uint64_t>(*chunk);
  options.checkpoint_every_chunks =
      *checkpoint_every < 1 ? 1U : static_cast<std::uint32_t>(*checkpoint_every);
  options.markov_max_orbits = static_cast<std::size_t>(
      *markov_max_orbits < 1 ? 1 : *markov_max_orbits);
  ppk::serve::ScenarioService service(options);

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  return ppk::serve::run_socket_server(*socket_path, service, &g_stop);
}
