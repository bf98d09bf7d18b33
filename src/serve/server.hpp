// ppkd: the scenario server (ROADMAP item 4; docs/ppkd.md).
//
// Two layers, split so tests can drive the protocol without sockets:
//
//  * ScenarioService -- the transport-independent request handler.  One
//    line-delimited JSON request in, zero or more single-line JSON frames
//    out through the caller's emit callback.  Thread-safe: connections on
//    different threads submit/cancel concurrently; job execution itself is
//    serialized (one campaign at a time owns the machine's cores).
//
//  * run_socket_server -- the AF_UNIX stream front end: accept loop, one
//    thread per connection, line framing, write-serialized frame fan-out.
//    tests/ppkd_main.cpp wraps it in a CLI with signal handling.
//
// Requests ({"op": ...} objects, one per line):
//
//   {"op":"ping"}                          -> {"event":"pong"}
//   {"op":"submit","id":ID,"scenario":{}}  -> accepted, then the job's
//                                             frames (below), on this
//                                             connection, in order
//   {"op":"cancel","id":ID}                -> {"event":"cancelled",...}
//                                             (stop-flag path: the job
//                                             checkpoints and reports
//                                             incomplete on its own
//                                             connection)
//   {"op":"status"}                        -> {"event":"status","jobs":[..]}
//   {"op":"shutdown"}                      -> {"event":"bye"}, daemon exits
//
// Submit frames: `accepted` (echoes the scenario hash, says whether the
// result is a cache replay), per-trial `trial` frames as verdicts land
// (simulate mode; the campaign streaming hook), one `job` frame with the
// checkpoint-resume flag, then exactly one of `result` (complete; cached
// from now on), `incomplete` (cancelled; checkpoint retained, resubmit to
// resume) or `error`.  The `result` frame is a pure function of the spec
// -- no job id, no timing -- so a cache hit, a fresh run and a
// kill/resume run emit byte-identical result lines.

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "serve/cache.hpp"
#include "serve/scenario.hpp"

namespace ppk::serve {

/// Daemon configuration.
struct ServiceOptions {
  /// Root for job checkpoints (ckpt-<hash>-<seed>.json) and the result
  /// cache (ResultCache); created on demand.  Empty disables both, which
  /// also disables crash recovery -- meant for tests only.
  std::string state_dir;
  /// Worker threads per simulate job (campaign mc.threads; 0 = cores).
  std::size_t job_threads = 1;
  /// Campaign chunk size.  Part of a job's deterministic identity: a
  /// checkpoint written under one chunk size refuses another.
  std::uint64_t chunk_interactions = 1ULL << 16;
  /// Checkpoint cadence in progress events (see core/campaign.hpp).
  std::uint32_t checkpoint_every_chunks = 4;
  /// Orbit cap for markov jobs and configuration cap for verify(kpartition)
  /// jobs: both explore the lumped chain, and this is its memory bound.  A
  /// job whose reachable space exceeds it gets an `error` frame -- the
  /// daemon itself must never die on a too-large exact request.
  std::size_t markov_max_orbits = 1'000'000;
};

/// Transport-independent request handler (header comment).
class ScenarioService {
 public:
  /// Frame sink: called once per emitted single-line JSON frame.
  using Emit = std::function<void(const std::string& frame)>;

  /// Builds the service (and its result cache) over `options.state_dir`.
  explicit ScenarioService(ServiceOptions options);

  /// Handles one request line, emitting zero or more frames.  Returns
  /// false iff the request was a shutdown -- the transport should stop
  /// accepting and tear down.  Malformed requests emit an `error` frame
  /// and return true (a bad client must not kill the daemon).
  bool handle_line(const std::string& line, const Emit& emit);

  /// Requests cancellation of a running job (the campaign stop-flag
  /// path).  Returns true iff the id named a running job.
  bool cancel(const std::string& id);

  /// Flips every running job's stop flag (shutdown / SIGTERM path).
  void cancel_all();

  /// The configuration the service was built with.
  [[nodiscard]] const ServiceOptions& options() const noexcept {
    return options_;
  }
  /// The result cache (tests inspect entry paths through it).
  [[nodiscard]] ResultCache& cache() noexcept { return cache_; }

 private:
  struct Job {
    std::string id;
    std::string hash_hex;
    std::atomic<bool> stop{false};
  };

  void handle_submit(const io::JsonValue& request, const Emit& emit);
  void run_simulate(const ScenarioSpec& spec, const std::string& id,
                    const std::string& hash_hex,
                    const std::shared_ptr<Job>& job, const Emit& emit);
  void run_exact(const ScenarioSpec& spec, const std::string& id,
                 const std::string& hash_hex, const Emit& emit);
  void run_conformance(const ScenarioSpec& spec, const std::string& hash_hex,
                       const Emit& emit);

  ServiceOptions options_;
  ResultCache cache_;
  /// Running jobs by client id (registry only; entries are removed when
  /// their submit returns).
  std::map<std::string, std::shared_ptr<Job>> jobs_;
  std::mutex jobs_mutex_;
  /// One campaign at a time owns the cores; submits queue here.
  std::mutex run_mutex_;
};

/// Collapses a JsonWriter document to one line (frames are line-delimited;
/// JsonWriter pretty-prints).  Structural newlines and their indentation
/// only -- newlines inside strings are escaped and survive.
[[nodiscard]] std::string single_line_json(const std::string& pretty);

/// Runs the AF_UNIX stream front end on `socket_path` until `stop` goes
/// true or a client sends shutdown.  Blocks; returns 0 on clean exit, 1 on
/// socket setup failure (reason on stderr).  Prints one "ppkd: listening"
/// line to stdout once accepting (the smoke test's readiness signal).
int run_socket_server(const std::string& socket_path, ScenarioService& service,
                      std::atomic<bool>* stop);

}  // namespace ppk::serve
