#include "serve/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "core/invariants.hpp"
#include "core/kpartition.hpp"
#include "io/json.hpp"
#include "io/json_reader.hpp"
#include "util/assert.hpp"
#include "verify/global_fairness.hpp"
#include "verify/markov.hpp"
#include "verify/weak_fairness.hpp"

namespace ppk::serve {

std::string single_line_json(const std::string& pretty) {
  std::string out;
  out.reserve(pretty.size());
  for (std::size_t i = 0; i < pretty.size(); ++i) {
    if (pretty[i] != '\n') {
      out.push_back(pretty[i]);
      continue;
    }
    while (i + 1 < pretty.size() && pretty[i + 1] == ' ') ++i;
  }
  return out;
}

namespace {

/// Builds one single-line frame through a writer callback.
template <typename Fill>
std::string frame(Fill&& fill) {
  std::ostringstream out;
  {
    io::JsonWriter w(out);
    w.begin_object();
    fill(w);
    w.end_object();
  }
  return single_line_json(out.str());
}

std::string error_frame(const std::string& id, const std::string& what) {
  return frame([&](io::JsonWriter& w) {
    w.member("event", "error");
    if (!id.empty()) w.member("id", id);
    w.member("error", what);
  });
}

std::string trial_frame(const std::string& id, std::uint32_t trial,
                        const core::CampaignTrial& t) {
  return frame([&](io::JsonWriter& w) {
    w.member("event", "trial");
    w.member("id", id);
    w.member("trial", static_cast<std::uint64_t>(trial));
    w.member("interactions", t.result.interactions);
    w.member("effective", t.result.effective);
    w.member("stabilized", t.result.stabilized);
    w.member("timed_out", t.result.timed_out);
    w.member("stalled", t.result.stalled);
    w.member("retries", static_cast<std::uint64_t>(t.retries));
    w.member("failed", t.failed);
    w.member("censored", t.censored);
  });
}

}  // namespace

ScenarioService::ScenarioService(ServiceOptions options)
    : options_(std::move(options)), cache_(options_.state_dir) {
  if (!options_.state_dir.empty()) {
    ::mkdir(options_.state_dir.c_str(), 0755);  // best effort; writers report
  }
}

bool ScenarioService::cancel(const std::string& id) {
  const std::lock_guard<std::mutex> lock(jobs_mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return false;
  it->second->stop.store(true, std::memory_order_relaxed);
  return true;
}

void ScenarioService::cancel_all() {
  const std::lock_guard<std::mutex> lock(jobs_mutex_);
  for (auto& [id, job] : jobs_) {
    job->stop.store(true, std::memory_order_relaxed);
  }
}

bool ScenarioService::handle_line(const std::string& line, const Emit& emit) {
  std::string parse_error;
  const std::optional<io::JsonValue> request =
      io::parse_json(line, &parse_error);
  if (!request || !request->is_object()) {
    emit(error_frame(
        {}, !request ? "request: " + parse_error
                     : std::string("request: expected a JSON object")));
    return true;
  }
  const io::JsonValue* op = request->find("op");
  if (op == nullptr || !op->is_string()) {
    emit(error_frame({}, "request: missing string member 'op'"));
    return true;
  }

  if (op->scalar == "ping") {
    emit(frame([](io::JsonWriter& w) { w.member("event", "pong"); }));
    return true;
  }
  if (op->scalar == "submit") {
    handle_submit(*request, emit);
    return true;
  }
  if (op->scalar == "cancel") {
    const io::JsonValue* id = request->find("id");
    if (id == nullptr || !id->is_string()) {
      emit(error_frame({}, "cancel: missing string member 'id'"));
      return true;
    }
    const bool found = cancel(id->scalar);
    emit(frame([&](io::JsonWriter& w) {
      w.member("event", "cancelled");
      w.member("id", id->scalar);
      w.member("found", found);
    }));
    return true;
  }
  if (op->scalar == "status") {
    const std::lock_guard<std::mutex> lock(jobs_mutex_);
    emit(frame([&](io::JsonWriter& w) {
      w.member("event", "status");
      w.key("jobs");
      w.begin_array();
      for (const auto& [id, job] : jobs_) {
        w.begin_object();
        w.member("id", id);
        w.member("scenario", job->hash_hex);
        w.end_object();
      }
      w.end_array();
    }));
    return true;
  }
  if (op->scalar == "shutdown") {
    cancel_all();
    emit(frame([](io::JsonWriter& w) { w.member("event", "bye"); }));
    return false;
  }
  emit(error_frame({}, "request: unknown op '" + op->scalar + "'"));
  return true;
}

void ScenarioService::handle_submit(const io::JsonValue& request,
                                    const Emit& emit) {
  const io::JsonValue* id_value = request.find("id");
  if (id_value == nullptr || !id_value->is_string() ||
      id_value->scalar.empty()) {
    emit(error_frame({}, "submit: missing string member 'id'"));
    return;
  }
  const std::string id = id_value->scalar;
  const io::JsonValue* scenario = request.find("scenario");
  if (scenario == nullptr) {
    emit(error_frame(id, "submit: missing member 'scenario'"));
    return;
  }
  std::string error;
  const std::optional<ScenarioSpec> spec =
      parse_scenario_value(*scenario, &error);
  if (!spec) {
    emit(error_frame(id, error));
    return;
  }
  if (!spec->faults.empty()) {
    // The schedule parsed and validated; honour it honestly or not at all
    // (MonteCarloOptions has no schedule field, so the engine factory the
    // campaign layer builds from cannot construct the churn rule yet --
    // docs/ppkd.md tracks this as the open fault-injection item).
    emit(error_frame(id,
                     "scenario: faults: fault schedules are not yet "
                     "schedulable through the campaign layer"));
    return;
  }

  const std::string hash_hex = scenario_hash_hex(*spec);
  const bool seed_dependent = spec->mode == ScenarioMode::kSimulate ||
                              spec->mode == ScenarioMode::kConformance;
  std::optional<std::string> cached =
      seed_dependent ? cache_.find_sim(hash_hex, spec->seed)
                     : cache_.find_exact(hash_hex);

  emit(frame([&](io::JsonWriter& w) {
    w.member("event", "accepted");
    w.member("id", id);
    w.member("scenario", hash_hex);
    w.member("seed", spec->seed);
    w.member("mode", to_string(spec->mode));
    w.member("cached", cached.has_value());
  }));
  if (cached) {
    emit(*cached);
    return;
  }

  auto job = std::make_shared<Job>();
  job->id = id;
  job->hash_hex = hash_hex;
  {
    const std::lock_guard<std::mutex> lock(jobs_mutex_);
    if (!jobs_.emplace(id, job).second) {
      emit(error_frame(id, "submit: job id already running"));
      return;
    }
  }

  {
    // One campaign at a time owns the cores; a queued submit re-checks the
    // cache once it gets the lock (an identical spec may just have landed).
    const std::lock_guard<std::mutex> run(run_mutex_);
    cached = seed_dependent ? cache_.find_sim(hash_hex, spec->seed)
                            : cache_.find_exact(hash_hex);
    if (cached) {
      emit(*cached);
    } else {
      switch (spec->mode) {
        case ScenarioMode::kSimulate:
          run_simulate(*spec, id, hash_hex, job, emit);
          break;
        case ScenarioMode::kVerify:
        case ScenarioMode::kMarkov:
          run_exact(*spec, id, hash_hex, emit);
          break;
        case ScenarioMode::kConformance:
          run_conformance(*spec, hash_hex, emit);
          break;
      }
    }
  }

  const std::lock_guard<std::mutex> lock(jobs_mutex_);
  jobs_.erase(id);
}

void ScenarioService::run_simulate(const ScenarioSpec& spec,
                                   const std::string& id,
                                   const std::string& hash_hex,
                                   const std::shared_ptr<Job>& job,
                                   const Emit& emit) {
  ScenarioRuntime runtime(spec);
  core::CampaignOptions options = runtime.campaign_options();
  options.mc.threads = options_.job_threads;
  options.chunk_interactions = options_.chunk_interactions;
  options.checkpoint_every_chunks = options_.checkpoint_every_chunks;
  options.stop = &job->stop;
  if (!options_.state_dir.empty()) {
    options.checkpoint_path = options_.state_dir + "/ckpt-" + hash_hex + "-" +
                              std::to_string(spec.seed) + ".json";
  }
  options.on_trial = [&](std::uint32_t trial, const core::CampaignTrial& t) {
    emit(trial_frame(id, trial, t));
  };

  const auto run = [&] {
    return core::run_campaign(runtime.protocol(), runtime.table(), spec.n,
                              runtime.oracle_factory(), options);
  };
  core::CampaignResult result = run();
  if (result.stale_checkpoint) {
    // The checkpoint at the daemon's own path belongs to another campaign
    // configuration or engine mapping (e.g. an older daemon's kAuto pick):
    // it can never resume, so drop it and run the job fresh rather than
    // failing this (spec, seed) forever.
    std::remove(options.checkpoint_path.c_str());
    result = run();
  }

  if (!result.error.empty()) {
    emit(error_frame(id, "campaign: " + result.error));
    return;
  }
  emit(frame([&](io::JsonWriter& w) {
    w.member("event", "job");
    w.member("id", id);
    w.member("resumed", result.resumed);
  }));
  if (!result.complete) {
    emit(frame([&](io::JsonWriter& w) {
      w.member("event", "incomplete");
      w.member("id", id);
      w.member("completed", static_cast<std::uint64_t>(
                                result.completed_count()));
      w.member("trials", static_cast<std::uint64_t>(spec.trials));
    }));
    return;  // the checkpoint stays; resubmitting the spec resumes it
  }

  const std::string result_line = frame([&](io::JsonWriter& w) {
    w.member("event", "result");
    w.member("scenario", hash_hex);
    w.member("seed", spec.seed);
    w.member("mode", "simulate");
    w.member("sim_schema", std::string(kSimResultSchema));
    w.key("trials");
    w.begin_array();
    for (const core::CampaignTrial& t : result.trials) {
      w.begin_object();
      w.member("interactions", t.result.interactions);
      w.member("effective", t.result.effective);
      w.member("stabilized", t.result.stabilized);
      w.member("timed_out", t.result.timed_out);
      w.member("stalled", t.result.stalled);
      w.member("retries", static_cast<std::uint64_t>(t.retries));
      w.member("failed", t.failed);
      w.end_object();
    }
    w.end_array();
    w.key("metrics");
    result.metrics.write_json(w);
  });
  cache_.store(hash_hex, spec.seed, result_line);
  if (!options.checkpoint_path.empty()) {
    std::remove(options.checkpoint_path.c_str());
  }
  emit(result_line);
}

void ScenarioService::run_exact(const ScenarioSpec& spec,
                                const std::string& id,
                                const std::string& hash_hex,
                                const Emit& emit) {
  ScenarioRuntime runtime(spec);
  std::string result_line;
  if (spec.mode == ScenarioMode::kVerify) {
    verify::Verdict verdict;
    switch (spec.family) {
      case ScenarioFamily::kKPartition: {
        verify::ExploreOptions explore;
        explore.max_configs = options_.markov_max_orbits;
        verdict = verify::verify_uniform_partition(
            runtime.protocol(), runtime.table(), spec.n, explore);
        break;
      }
      case ScenarioFamily::kWeakKPartition:
        verdict = verify::verify_weak_uniform_partition(
            runtime.protocol(), runtime.table(), spec.n);
        break;
      case ScenarioFamily::kGraphBipartition: {
        const pp::InteractionGraph topology = runtime.build_topology();
        verdict = verify::verify_graph_uniform_partition(
            runtime.protocol(), runtime.table(), topology);
        break;
      }
    }
    if (!verdict.exploration_complete) {
      // The verdict is unknown and its counts depend on the cap: fail the
      // job, as markov does, rather than cache an answer.
      emit(error_frame(id, verdict.failure));
      return;
    }
    result_line = frame([&](io::JsonWriter& w) {
      w.member("event", "result");
      w.member("scenario", hash_hex);
      w.member("mode", "verify");
      w.member("exact_schema", std::string(kExactResultSchema));
      w.member("solves", verdict.solves);
      w.member("exploration_complete", verdict.exploration_complete);
      w.member("reachable_configs",
               static_cast<std::uint64_t>(verdict.reachable_configs));
      w.member("num_sccs", static_cast<std::uint64_t>(verdict.num_sccs));
      w.member("bottom_sccs", static_cast<std::uint64_t>(verdict.bottom_sccs));
      w.member("failure", verdict.failure);
    });
  } else {
    PPK_ASSERT(spec.mode == ScenarioMode::kMarkov);
    const auto& kp =
        static_cast<const core::KPartitionProtocol&>(runtime.protocol());
    pp::Counts initial(runtime.table().num_states(), 0);
    initial[runtime.protocol().initial_state()] = spec.n;
    verify::MarkovOptions options;
    options.symmetry = runtime.protocol().symmetry();
    options.lumped.max_orbits = options_.markov_max_orbits;
    std::string why;
    const std::optional<verify::MarkovAnalysis> analysis =
        verify::MarkovAnalysis::try_create(runtime.table(), initial,
                                           std::move(options), &why);
    if (!analysis.has_value()) {
      // A too-large chain is a recoverable job failure, never daemon death.
      emit(error_frame(id, why));
      return;
    }
    std::optional<double> expected;
    std::vector<verify::MarkovAnalysis::Absorption> absorptions;
    try {
      expected = analysis->expected_hitting_time([&](const pp::Counts& counts) {
        return core::matches_stable_pattern(kp, spec.n, counts);
      });
      absorptions = analysis->absorption_probabilities();
    } catch (const std::exception& e) {
      emit(error_frame(id, std::string("markov: ") + e.what()));
      return;
    }
    result_line = frame([&](io::JsonWriter& w) {
      w.member("event", "result");
      w.member("scenario", hash_hex);
      w.member("mode", "markov");
      w.member("exact_schema", std::string(kExactResultSchema));
      w.member("solver", analysis->method_name());
      w.member("reachable_configs", analysis->reachable_configs());
      // nullopt (target not a.s. reached) serializes as null, the writer's
      // non-finite convention.
      w.member("expected_interactions",
               expected ? *expected : std::numeric_limits<double>::quiet_NaN());
      w.key("absorptions");
      w.begin_array();
      for (const verify::MarkovAnalysis::Absorption& a : absorptions) {
        w.begin_object();
        w.member("scc", static_cast<std::uint64_t>(a.scc));
        w.key("representative");
        w.begin_array();
        for (const std::uint32_t c : a.representative) {
          w.value(static_cast<std::uint64_t>(c));
        }
        w.end_array();
        w.member("probability", a.probability);
        w.end_object();
      }
      w.end_array();
    });
  }
  cache_.store_exact(hash_hex, result_line);
  emit(result_line);
}

void ScenarioService::run_conformance(const ScenarioSpec& spec,
                                      const std::string& hash_hex,
                                      const Emit& emit) {
  const std::optional<verify::ConformanceCase> c = scenario_to_conformance(spec);
  PPK_ASSERT(c.has_value());  // validate_scenario checked convertibility
  const verify::ConformanceReport report = verify::check_conformance(*c);
  const std::string result_line = frame([&](io::JsonWriter& w) {
    w.member("event", "result");
    w.member("scenario", hash_hex);
    w.member("seed", spec.seed);
    w.member("mode", "conformance");
    w.member("sim_schema", std::string(kSimResultSchema));
    w.member("ok", report.ok());
    w.member("checks_run", static_cast<std::int64_t>(report.checks_run));
    w.key("divergences");
    w.begin_array();
    for (const verify::Divergence& d : report.divergences) {
      w.begin_object();
      w.member("check", verify::conformance_check_name(d.check));
      w.member("engine", verify::conformance_engine_name(d.engine));
      w.member("event", d.event);
      w.member("detail", d.detail);
      w.end_object();
    }
    w.end_array();
  });
  cache_.store(hash_hex, spec.seed, result_line);
  emit(result_line);
}

// ---------------------------------------------------------------------------
// AF_UNIX front end

namespace {

/// One client connection: line framing in, mutex-serialized frames out.
/// Returns true if the client requested daemon shutdown.
bool serve_connection(int fd, ScenarioService& service,
                      std::atomic<bool>* stop) {
  std::mutex write_mutex;
  const ScenarioService::Emit emit = [&](const std::string& body) {
    const std::lock_guard<std::mutex> lock(write_mutex);
    std::string line = body;
    line.push_back('\n');
    const char* data = line.data();
    std::size_t left = line.size();
    while (left > 0) {
      const ::ssize_t wrote = ::send(fd, data, left, MSG_NOSIGNAL);
      if (wrote < 0) {
        if (errno == EINTR) continue;
        return;  // client went away; drop remaining frames
      }
      data += wrote;
      left -= static_cast<std::size_t>(wrote);
    }
  };

  std::string pending;
  bool shutdown_requested = false;
  while (!shutdown_requested &&
         !(stop != nullptr && stop->load(std::memory_order_relaxed))) {
    struct pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 200);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) continue;
    char buffer[4096];
    const ::ssize_t got = ::recv(fd, buffer, sizeof buffer, 0);
    if (got <= 0) break;  // disconnect (or error): the connection is done
    pending.append(buffer, static_cast<std::size_t>(got));
    std::size_t eol;
    while ((eol = pending.find('\n')) != std::string::npos) {
      const std::string line = pending.substr(0, eol);
      pending.erase(0, eol + 1);
      if (line.empty()) continue;
      if (!service.handle_line(line, emit)) {
        shutdown_requested = true;
        break;
      }
    }
  }
  ::close(fd);
  return shutdown_requested;
}

}  // namespace

int run_socket_server(const std::string& socket_path, ScenarioService& service,
                      std::atomic<bool>* stop) {
  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    std::fprintf(stderr, "ppkd: socket: %s\n", std::strerror(errno));
    return 1;
  }
  struct sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof addr.sun_path) {
    std::fprintf(stderr, "ppkd: socket path too long: %s\n",
                 socket_path.c_str());
    ::close(listen_fd);
    return 1;
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  ::unlink(socket_path.c_str());  // stale socket from a killed daemon
  if (::bind(listen_fd, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof addr) < 0 ||
      ::listen(listen_fd, 8) < 0) {
    std::fprintf(stderr, "ppkd: bind %s: %s\n", socket_path.c_str(),
                 std::strerror(errno));
    ::close(listen_fd);
    return 1;
  }
  std::printf("ppkd: listening on %s\n", socket_path.c_str());
  std::fflush(stdout);

  std::atomic<bool> local_stop{false};
  std::atomic<bool>* effective_stop = stop != nullptr ? stop : &local_stop;
  struct Connection {
    std::thread thread;
    std::unique_ptr<std::atomic<bool>> done;
  };
  std::vector<Connection> connections;
  while (!effective_stop->load(std::memory_order_relaxed)) {
    // Join the connections that have hung up: an exited thread keeps its
    // stack mapped until it is joined, so without this the daemon's memory
    // would grow with every connection it has ever served.
    for (auto it = connections.begin(); it != connections.end();) {
      if (it->done->load(std::memory_order_acquire)) {
        it->thread.join();
        it = connections.erase(it);
      } else {
        ++it;
      }
    }
    struct pollfd pfd{listen_fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 200);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) continue;
    const int client = ::accept(listen_fd, nullptr, nullptr);
    if (client < 0) continue;
    // The entry exists before its thread does, so no running thread is
    // ever left outside the vector that joins it.
    Connection& connection = connections.emplace_back(
        Connection{{}, std::make_unique<std::atomic<bool>>(false)});
    std::atomic<bool>* finished = connection.done.get();
    connection.thread =
        std::thread([client, &service, effective_stop, finished] {
          if (serve_connection(client, service, effective_stop)) {
            effective_stop->store(true, std::memory_order_relaxed);
          }
          finished->store(true, std::memory_order_release);
        });
  }
  // Winding down: flip every running job's stop flag so in-flight submits
  // checkpoint and return, then collect the connection threads (they watch
  // the same stop flag).
  service.cancel_all();
  for (Connection& connection : connections) connection.thread.join();
  ::close(listen_fd);
  ::unlink(socket_path.c_str());
  return 0;
}

}  // namespace ppk::serve
