// A ppkd daemon process owned by the benchmark, and a line-protocol client.

#pragma once

#include <sys/types.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "inputs.hpp"

namespace perfbench {

/// Minimum requests timed per run, so the reported tails rest on enough
/// samples: p90 of at least 100 cold requests, p99 of at least 1000 hits.
inline constexpr std::size_t kMinColdRequests = 100;
inline constexpr std::size_t kMinCachedRequests = 1000;

/// One spawned `ppkd` process.  The destructor SIGKILLs and reaps a daemon
/// that was not shut down, so no process outlives the benchmark.
class Daemon {
 public:
  Daemon(const std::string& binary, const std::string& socket_path,
         const std::string& state_dir, const std::string& log_path);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Blocks until the daemon answers `ping` (throws past the timeout).
  void wait_ready(double timeout_s);
  /// Sends `shutdown` and reaps the process; true on a clean exit.
  bool shutdown(double timeout_s);
  /// The daemon's peak resident set so far (VmHWM).
  [[nodiscard]] double peak_rss_mb() const;

 private:
  std::string socket_path_;
  pid_t pid_ = -1;
};

/// What one submit produced.
struct Reply {
  bool ok = false;
  bool cached = false;
  std::string result_line;
  std::string error;
  std::size_t frames = 0;
  double accept_s = 0.0;
  double total_s = 0.0;
};

/// Longest wait for one frame of a submitted request.
inline constexpr double kFrameTimeout = 150.0;

/// One connection, line framed; a receive that waits longer than the
/// timeout throws.
class Client {
 public:
  Client(const std::string& socket_path, double timeout_s);
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  void send_line(const std::string& line);
  std::string read_line();
  /// Sends one request and returns the first reply line.
  std::string exchange(const std::string& line);
  /// Submits a spec and reads frames up to its result / error / incomplete.
  Reply submit(const std::string& id, const std::string& spec);

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// The ppkd workloads' set-up: a fresh state directory, `setups` timed
/// daemon start-ups (spawn until `ping` answers), the last one kept.
class PpkdEnv {
 public:
  PpkdEnv(const RunConfig& cfg, int setups);

  [[nodiscard]] const std::string& socket() const { return socket_; }
  [[nodiscard]] const std::vector<double>& setups() const { return setups_; }
  [[nodiscard]] bool setup_ok() const { return setup_ok_; }
  [[nodiscard]] Daemon& daemon() { return *daemon_; }

 private:
  std::string socket_, state_, log_;
  std::vector<double> setups_;
  bool setup_ok_ = true;
  std::unique_ptr<Daemon> daemon_;
};

/// Reads frames from `next` up to the request's result, error or
/// incomplete frame; an unparseable frame ends the reply as a failure.
/// `t0` is the submit time the latencies count from.
[[nodiscard]] Reply collect_reply(double t0,
                                  const std::function<std::string()>& next);

/// Empty when `reply` is a correct answer to script request `r`, given the
/// result lines of the requests before it; else why it failed.
[[nodiscard]] std::string ppkd_reply_check(
    const Request& r, const Reply& reply,
    const std::vector<std::string>& lines);

}  // namespace perfbench
