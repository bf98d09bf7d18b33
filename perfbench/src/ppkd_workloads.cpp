// ppkd_mix: a closed loop with one client connection to the real ppkd
// daemon over AF_UNIX, plus the generated inputs of every workload
// (dump_inputs).

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <map>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "inputs.hpp"
#include "io/json_reader.hpp"
#include "ppkd_client.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {

// ---------------------------------------------------------------------------
// Script generation

namespace {

/// Per-trial interaction budget of the simulate specs: far above what any
/// generated point needs to stabilize, so a trial that runs out is a
/// failure.
constexpr std::uint64_t kSimBudget = 10'000'000'000ULL;

std::string simulate_spec(unsigned k, std::uint32_t n, std::uint32_t trials,
                          std::uint64_t seed) {
  std::ostringstream out;
  out << "{\"schema\": \"ppk-scenario-v1\", \"protocol\": \"kpartition\", "
         "\"k\": " << k << ", \"n\": " << n
      << ", \"topology\": {\"kind\": \"complete\"}, \"fairness\": "
         "{\"policy\": \"uniform-random\"}, \"oracle\": {\"kind\": "
         "\"stable-pattern\"}, \"engine\": \"auto\", \"mode\": \"simulate\", "
         "\"trials\": " << trials << ", \"seed\": " << seed
      << ", \"budget\": " << kSimBudget << ", \"faults\": []}";
  return out.str();
}

/// The EXPERIMENTS.md ring / epsilon-fair walkthrough spec at n = 1000
/// (the documented n = 1e5 takes about a minute per request).
std::string ring_spec(std::uint64_t seed) {
  std::ostringstream out;
  out << "{\"schema\": \"ppk-scenario-v1\", \"protocol\": \"kpartition\", "
         "\"k\": 3, \"n\": 1000, \"topology\": {\"kind\": \"ring\", \"p\": "
         "0.5}, \"fairness\": {\"policy\": \"epsilon-fair\", \"epsilon\": "
         "0.5}, \"oracle\": {\"kind\": \"quiescence\", \"window\": 100000}, "
         "\"engine\": \"auto\", \"mode\": \"simulate\", \"trials\": 2, "
         "\"seed\": " << seed << ", \"budget\": 200000, \"faults\": []}";
  return out.str();
}

std::string markov_spec(unsigned k, std::uint32_t n, std::uint64_t seed) {
  std::ostringstream out;
  out << "{\"schema\": \"ppk-scenario-v1\", \"protocol\": \"kpartition\", "
         "\"k\": " << k << ", \"n\": " << n
      << ", \"topology\": {\"kind\": \"complete\"}, \"fairness\": "
         "{\"policy\": \"uniform-random\"}, \"oracle\": {\"kind\": "
         "\"stable-pattern\"}, \"engine\": \"auto\", \"mode\": \"markov\", "
         "\"trials\": 1, \"seed\": " << seed << ", \"budget\": 1, "
         "\"faults\": []}";
  return out.str();
}

/// Uniform in [0, bound) (bound > 0; the modulo bias is immaterial here).
std::uint64_t below(ppk::SplitMix64& rng, std::uint64_t bound) {
  return rng.next() % bound;
}

/// A paper-size sweep point: k in {3..6}, n = 120 n' for n' in 1..4.
Request sweep_point(ppk::SplitMix64& rng) {
  const auto k = static_cast<unsigned>(3 + below(rng, 4));
  const auto n = static_cast<std::uint32_t>(120 * (1 + below(rng, 4)));
  return {Request::Kind::kColdSweepPoint, simulate_spec(k, n, 1, rng.next()),
          -1};
}

}  // namespace

const char* kind_name(Request::Kind kind) {
  switch (kind) {
    case Request::Kind::kColdSweepPoint: return "cold-sweep-point";
    case Request::Kind::kColdLarge: return "cold-large";
    case Request::Kind::kColdRing: return "cold-ring";
    case Request::Kind::kColdMarkov: return "cold-markov";
    case Request::Kind::kResubmit: return "resubmit";
    case Request::Kind::kMarkovNewSeed: return "markov-new-seed";
  }
  return "unknown";
}

MixScript::MixScript(std::uint64_t seed)
    : rng_state_(ppk::derive_stream_seed(seed, 0x313c)) {
  ppk::SplitMix64 rng(rng_state_);
  // Distinct markov shapes (k = 2 up to 30 agents, k = 3 up to 12), in
  // seed order.
  std::vector<std::pair<unsigned, std::uint32_t>> shapes;
  for (std::uint32_t n = 4; n <= 30; ++n) shapes.emplace_back(2U, n);
  for (std::uint32_t n = 4; n <= 12; ++n) shapes.emplace_back(3U, n);
  for (std::size_t i = shapes.size(); i > 1; --i) {
    std::swap(shapes[i - 1], shapes[below(rng, i)]);
  }
  for (std::size_t i = 0; i < kWarmSet; ++i) {
    if (i % 4 == 3) {
      const auto [k, n] = shapes[i / 4];
      warm_.push_back(
          {Request::Kind::kColdMarkov, markov_spec(k, n, rng.next()), -1});
    } else if (i == 4) {
      warm_.push_back({Request::Kind::kColdLarge,
                       simulate_spec(3, 20'000, 1, rng.next()), -1});
    } else if (i == 8) {
      warm_.push_back({Request::Kind::kColdRing, ring_spec(rng.next()), -1});
    } else {
      warm_.push_back(sweep_point(rng));
    }
  }
  rng_state_ = rng.next();
}

Request MixScript::next() {
  const std::size_t i = index_++;
  if (i < kWarmSet) return warm_[i];
  ppk::SplitMix64 rng(ppk::derive_stream_seed(rng_state_, i));
  if ((i - kWarmSet + 1) % kColdEvery == 0) return sweep_point(rng);
  const auto j = static_cast<int>(below(rng, kWarmSet));
  const Request& warm = warm_[static_cast<std::size_t>(j)];
  if (warm.kind != Request::Kind::kColdMarkov) {
    return {Request::Kind::kResubmit, warm.spec, j};
  }
  // Same shape, new seed: exact answers cache by scenario hash alone.
  std::string spec = warm.spec;
  const auto at = spec.find("\"seed\": ");
  const auto end = spec.find(',', at);
  spec.replace(at, end - at, "\"seed\": " + std::to_string(rng.next()));
  return {Request::Kind::kMarkovNewSeed, spec, j};
}

std::vector<Request> mix_script(std::uint64_t seed, std::size_t count) {
  MixScript script(seed);
  std::vector<Request> out;
  for (std::size_t i = 0; i < count; ++i) out.push_back(script.next());
  return out;
}

std::string dump_inputs(const std::string& workload, std::uint64_t seed) {
  std::ostringstream out;
  out << "workload " << workload << " seed " << seed << '\n';
  if (workload == "paper_sweep") {
    for (const SweepPoint& p : sweep_grid()) {
      out << "point n=" << p.n << " k=" << p.k << " trials=" << p.trials
          << " master_seed=" << p.master_seed << '\n';
    }
  } else if (workload == "large_n") {
    for (const LargeTrial& t : large_trials(seed)) {
      out << "trial n=" << t.n << " k=3 budget=" << t.budget
          << " seed=" << t.seed << '\n';
    }
  } else if (workload == "exact_ceiling") {
    for (const ExactInstance& i : exact_instances(seed)) {
      out << "instance k=" << i.k << " n=" << i.n << '\n';
    }
  } else {
    for (const Request& r : mix_script(seed, 2000)) {
      out << kind_name(r.kind) << ' ' << r.same_as << ' ' << r.spec << '\n';
    }
  }
  return out.str();
}

// ---------------------------------------------------------------------------
// Daemon and client

Daemon::Daemon(const std::string& binary, const std::string& socket_path,
               const std::string& state_dir, const std::string& log_path)
    : socket_path_(socket_path) {
  ::unlink(socket_path.c_str());
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
  std::vector<std::string> args = {binary,      "--socket",    socket_path,
                                   "--state-dir", state_dir, "--threads",
                                   "0"};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    pid_ = -1;
    throw std::runtime_error("cannot start ppkd: " +
                             std::string(std::strerror(rc)));
  }
}

Daemon::~Daemon() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
  }
}

void Daemon::wait_ready(double timeout_s) {
  const double deadline = now_s() + timeout_s;
  while (now_s() < deadline) {
    try {
      Client probe(socket_path_, 10.0);
      const std::string pong = probe.exchange("{\"op\": \"ping\"}");
      if (pong.find("pong") != std::string::npos) return;
    } catch (const std::exception&) {
    }
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error("ppkd exited during start-up");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  throw std::runtime_error("ppkd did not answer ping");
}

double Daemon::peak_rss_mb() const { return process_peak_rss_mb(pid_); }

bool Daemon::shutdown(double timeout_s) {
  bool bye = false;
  try {
    Client client(socket_path_, 10.0);
    bye = client.exchange("{\"op\": \"shutdown\"}").find("bye") !=
          std::string::npos;
  } catch (const std::exception&) {
  }
  const double deadline = now_s() + timeout_s;
  while (now_s() < deadline) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return bye && WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;  // the destructor kills it
}

Client::Client(const std::string& socket_path, double timeout_s) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("socket path too long");
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) throw std::runtime_error("socket() failed");
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("connect() failed");
  }
  // Blocking receives (one system call per wake-up on the timed path),
  // bounded so a stuck daemon fails the run instead of hanging it.
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout_s);
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

void Client::send_line(const std::string& line) {
  const std::string data = line + "\n";
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd_, data.data() + off, data.size() - off,
                             MSG_NOSIGNAL);
    if (n <= 0) throw std::runtime_error("send() failed");
    off += static_cast<std::size_t>(n);
  }
}

std::string Client::read_line() {
  for (;;) {
    const auto nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      std::string line = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      return line;
    }
    char chunk[65536];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      throw std::runtime_error("timed out waiting for a frame");
    }
    if (n <= 0) throw std::runtime_error("connection closed");
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

std::string Client::exchange(const std::string& line) {
  send_line(line);
  return read_line();
}

Reply Client::submit(const std::string& id, const std::string& spec) {
  const double t0 = now_s();
  // Ids are the benchmark's own letters and digits: nothing to escape.
  send_line("{\"op\": \"submit\", \"id\": \"" + id + "\"" +
            ", \"scenario\": " + spec + "}");
  return collect_reply(t0, [&] { return read_line(); });
}

Reply collect_reply(double t0, const std::function<std::string()>& next) {
  Reply reply;
  for (;;) {
    const std::string line = next();
    // Latency ends when the frame arrives; parsing it is the client's cost.
    reply.total_s = now_s() - t0;
    ++reply.frames;
    const auto frame = ppk::io::parse_json(line);
    const ppk::io::JsonValue* event = frame ? frame->find("event") : nullptr;
    if (event == nullptr || !event->is_string()) {
      reply.error = "unparseable frame: " + line.substr(0, 120);
      break;
    }
    const std::string& name = event->as_string();
    if (name == "accepted") {
      reply.accept_s = reply.total_s;
      const ppk::io::JsonValue* cached = frame->find("cached");
      reply.cached =
          cached != nullptr && cached->is_bool() && cached->as_bool();
    } else if (name == "result") {
      reply.result_line = line;
      reply.ok = true;
      break;
    } else if (name == "error" || name == "incomplete") {
      reply.error = name + ": " + line.substr(0, 200);
      break;
    }
  }
  return reply;
}

// ---------------------------------------------------------------------------
// Shared set-up

PpkdEnv::PpkdEnv(const RunConfig& cfg, int setups) {
  // AF_UNIX paths are short; the run directory is relative to the
  // checkout, which is both processes' working directory.
  socket_ = cfg.run_dir + "/ppkd.sock";
  state_ = cfg.run_dir + "/state";
  log_ = cfg.run_dir + "/ppkd.log";
  ::mkdir(state_.c_str(), 0755);
  for (int r = 0; r < setups; ++r) {
    const double t0 = now_s();
    auto daemon = std::make_unique<Daemon>(cfg.ppkd, socket_, state_, log_);
    daemon->wait_ready(30.0);
    setups_.push_back(now_s() - t0);
    if (r + 1 < setups) {
      setup_ok_ = daemon->shutdown(10.0) && setup_ok_;
    } else {
      daemon_ = std::move(daemon);
    }
  }
}

std::string ppkd_reply_check(const Request& r, const Reply& reply,
                             const std::vector<std::string>& lines) {
  if (!reply.ok) return reply.error.empty() ? "no result frame" : reply.error;
  if (r.same_as < 0) {
    if (reply.cached) return "a cold request was answered from the cache";
    if (r.kind != Request::Kind::kColdRing &&
        r.kind != Request::Kind::kColdMarkov &&
        reply.result_line.find("\"stabilized\": false") != std::string::npos) {
      return "a simulate trial did not stabilize";
    }
    return {};
  }
  if (!reply.cached) return "a repeated request missed the cache";
  if (reply.result_line != lines[static_cast<std::size_t>(r.same_as)]) {
    return "cached result line differs from its cold line";
  }
  return {};
}

namespace {

void finish(PpkdEnv& env, WorkloadResult& result,
            const std::vector<double>& latencies) {
  result.metrics["setup_s"] = {median(env.setups()), "s"};
  result.metrics["answer_ms"] = {median(latencies) * 1e3, "ms"};
  result.metrics["peak_rss_mb"] = {env.daemon().peak_rss_mb(), "MiB"};
  result.outcome.record(env.setup_ok() && env.daemon().shutdown(30.0),
                        "ppkd did not shut down cleanly");
}

/// Sample count, median and (when the sample-count rule allows) the
/// `q_tail` percentile of `lat`, as a report member.
std::function<void(ppk::io::JsonWriter&)> latency_report(
    const std::vector<double>& lat, double q_tail) {
  return [lat, q_tail](ppk::io::JsonWriter& out) {
    out.begin_object();
    out.member("samples", static_cast<std::uint64_t>(lat.size()));
    out.member("p50_ms", median(lat) * 1e3);
    if (percentile_reportable(lat.size(), q_tail)) {
      out.member("p" + std::to_string(static_cast<int>(q_tail * 100)) + "_ms",
                 quantile(lat, q_tail) * 1e3);
    }
    out.end_object();
  };
}

}  // namespace

/// Client connections over the timed phase, one at a time, each for an
/// equal slice of it.  A new connection gets a new daemon thread, placed
/// afresh by the scheduler, so one run's median spans many placements; a
/// fixed count keeps the daemon's per-connection memory the same in every
/// run (it keeps finished connection threads until shutdown).
constexpr int kConnections = 16;

WorkloadResult run_ppkd_mix(const RunConfig& cfg) {
  WorkloadResult result;
  PpkdEnv env(cfg, kSetupRepeats);
  auto client = std::make_unique<Client>(env.socket(), kFrameTimeout);
  MixScript script(cfg.seed);
  std::vector<double> hits, colds;
  std::map<std::string, std::vector<double>> warmup;
  std::vector<std::string> lines;  // warm-up result lines
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  double deadline = 0.0;
  int connections = 1;
  for (std::size_t i = 0;; ++i) {
    if (i == kWarmSet) deadline = now_s() + cfg.seconds;
    if (i > kWarmSet && now_s() >= deadline &&
        hits.size() >= kMinCachedRequests &&
        colds.size() >= kMinColdRequests) {
      break;
    }
    if (i > kWarmSet && connections < kConnections &&
        now_s() >= deadline - cfg.seconds * (kConnections - connections) /
                                  kConnections) {
      client = std::make_unique<Client>(env.socket(), kFrameTimeout);
      ++connections;
    }
    const Request r = script.next();
    const Reply reply = client->submit("m" + std::to_string(i), r.spec);
    const std::string why = ppkd_reply_check(r, reply, lines);
    result.outcome.record(why.empty(), std::string("ppkd_mix ") +
                                           kind_name(r.kind) + ": " + why);
    if (i < kWarmSet) {
      warmup[kind_name(r.kind)].push_back(reply.total_s);
      lines.push_back(reply.result_line);
      digest = fnv1a(reply.result_line, digest);
    } else {
      (r.same_as < 0 ? colds : hits).push_back(reply.total_s);
    }
  }
  result.answer_digest = std::to_string(digest);
  finish(env, result, hits);
  result.report["cached"] = latency_report(hits, 0.99);
  result.report["cold"] = latency_report(colds, 0.9);
  result.report["warmup"] = [warmup](ppk::io::JsonWriter& out) {
    out.begin_object();
    for (const auto& [kind, lat] : warmup) {
      out.key(kind);
      latency_report(lat, 0.9)(out);
    }
    out.end_object();
  };
  return result;
}

}  // namespace perfbench
