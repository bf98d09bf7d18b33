// paper_sweep and large_n: Algorithm 1 through pp::run_monte_carlo, and
// the set-up timing every in-process workload shares.

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "core/invariants.hpp"
#include "util/log_fact.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {

namespace pp = ppk::pp;
namespace core = ppk::core;

// ---------------------------------------------------------------------------
// Oracle probe

namespace {

class ProbeOracle final : public pp::StabilityOracle {
 public:
  /// Calls timed per sample (a clock read costs more than most oracle
  /// calls, so only one call in kTimeEvery is timed and the sum scaled).
  static constexpr std::uint64_t kTimeEvery = 64;

  ProbeOracle(std::unique_ptr<pp::StabilityOracle> inner, OracleStats* stats,
              FinalCounts* finals)
      : inner_(std::move(inner)), stats_(stats), finals_(finals) {}

  ~ProbeOracle() override {
    if (stats_ != nullptr) {
      stats_->transitions += transitions_;
      stats_->batches += batches_;
      stats_->queries += queries_;
      stats_->busy_ns += static_cast<std::int64_t>(
          sampled_ns_ * static_cast<double>(kTimeEvery));
    }
    if (finals_ != nullptr) {
      const std::lock_guard<std::mutex> lock(finals_->mutex);
      finals_->counts.push_back(counts_);
    }
  }

  void reset(const pp::Counts& counts) override {
    if (finals_ != nullptr) counts_ = counts;
    timed([&] { inner_->reset(counts); });
  }

  void on_transition(pp::StateId p, pp::StateId q, pp::StateId p_next,
                     pp::StateId q_next) override {
    ++transitions_;
    if (finals_ != nullptr) {
      --counts_[p];
      --counts_[q];
      ++counts_[p_next];
      ++counts_[q_next];
    }
    timed([&] { inner_->on_transition(p, q, p_next, q_next); });
  }

  void on_batch(const pp::Counts& counts, std::uint64_t interactions,
                std::uint64_t effective) override {
    ++batches_;
    if (finals_ != nullptr) counts_ = counts;
    timed([&] { inner_->on_batch(counts, interactions, effective); });
  }

  [[nodiscard]] bool stable() const override {
    ++queries_;
    bool result = false;
    timed([&] { result = inner_->stable(); });
    return result;
  }

  void on_external_change(const pp::Counts& counts) override {
    if (finals_ != nullptr) counts_ = counts;
    inner_->on_external_change(counts);
  }

  [[nodiscard]] std::vector<std::uint64_t> save_state() const override {
    return inner_->save_state();
  }

  void restore_state(const std::vector<std::uint64_t>& state) override {
    inner_->restore_state(state);
  }

 private:
  template <class Fn>
  void timed(Fn&& fn) const {
    if (stats_ == nullptr || ++calls_ % kTimeEvery != 0) {
      fn();
      return;
    }
    const double t0 = now_s();
    fn();
    // Minus the cost of the clock reads themselves (an empty interval).
    sampled_ns_ += (now_s() - t0) * 1e9 - clock_overhead_ns();
  }

  /// Median length of an empty timed interval, measured once.
  static double clock_overhead_ns() {
    static const double overhead = [] {
      std::vector<double> empty;
      for (int i = 0; i < 1001; ++i) {
        const double t0 = now_s();
        empty.push_back((now_s() - t0) * 1e9);
      }
      return median(empty);
    }();
    return overhead;
  }

  std::unique_ptr<pp::StabilityOracle> inner_;
  OracleStats* stats_;
  FinalCounts* finals_;
  pp::Counts counts_;
  std::uint64_t transitions_ = 0;
  std::uint64_t batches_ = 0;
  mutable std::uint64_t queries_ = 0;
  mutable std::uint64_t calls_ = 0;
  mutable double sampled_ns_ = 0.0;
};

std::string trials_digest(const std::vector<pp::TrialResult>& trials) {
  std::ostringstream out;
  for (const pp::TrialResult& t : trials) {
    out << t.interactions << ',' << t.effective << ',' << t.stabilized << ';';
  }
  return out.str();
}

}  // namespace

pp::OracleFactory probe_factory(pp::OracleFactory inner, OracleStats* stats,
                                FinalCounts* finals) {
  if (stats == nullptr && finals == nullptr) return inner;
  return [inner = std::move(inner), stats, finals] {
    return std::unique_ptr<pp::StabilityOracle>(
        new ProbeOracle(inner(), stats, finals));
  };
}

// ---------------------------------------------------------------------------
// paper_sweep

namespace {

/// Fixed master seed of every sweep trial stream: the sweep is the same
/// deterministic computation in every run.
constexpr std::uint64_t kSweepMasterSeed = 0x5EED'F165'0000'0005ULL;
/// Fig. 5: k in {3..6}, n = 120 n' for n' = 1..8.
constexpr std::uint32_t kFig5Trials = 8;
/// Fig. 6: n = 960 and every k | 960 in [2, kFig6MaxK].
constexpr std::uint32_t kFig6N = 960;
constexpr pp::GroupId kFig6MaxK = 6;
constexpr std::uint32_t kFig6Trials = 8;

}  // namespace

std::vector<SweepPoint> sweep_grid() {
  std::vector<SweepPoint> grid;
  for (pp::GroupId k = 3; k <= 6; ++k) {
    for (std::uint32_t mult = 1; mult <= 8; ++mult) {
      grid.push_back({120 * mult, k, kFig5Trials, 0});
    }
  }
  for (pp::GroupId k = 2; k <= kFig6MaxK; ++k) {
    if (kFig6N % k == 0) grid.push_back({kFig6N, k, kFig6Trials, 0});
  }
  for (std::size_t i = 0; i < grid.size(); ++i) {
    grid[i].master_seed = ppk::derive_stream_seed(kSweepMasterSeed, i);
  }
  return grid;
}

PaperSweep::PaperSweep(unsigned threads)
    : grid_(sweep_grid()), threads_(threads) {
  pp::GroupId max_k = 0;
  for (const SweepPoint& p : grid_) max_k = std::max(max_k, p.k);
  families_.resize(max_k + 1U);
  for (const SweepPoint& p : grid_) {
    Family& f = families_[p.k];
    if (f.protocol) continue;
    f.protocol = std::make_unique<core::KPartitionProtocol>(p.k);
    f.table = std::make_unique<pp::TransitionTable>(*f.protocol);
  }
}

const core::KPartitionProtocol& PaperSweep::protocol(pp::GroupId k) const {
  return *families_.at(k).protocol;
}

PaperSweep::Answer PaperSweep::run(Tracer* tracer, OracleStats* stats,
                                   FinalCounts* finals,
                                   ppk::obs::MetricsRegistry* metrics) const {
  Answer answer;
  const double t0 = now_s();
  // One point at a time, its trials on a pool of `threads_` trial threads
  // plus this one.
  for (const SweepPoint& p : grid_) {
    const core::KPartitionProtocol& protocol = *families_[p.k].protocol;
    pp::MonteCarloOptions options;
    options.trials = p.trials;
    options.master_seed = p.master_seed;
    options.engine = pp::Engine::kAuto;
    options.threads = threads_;
    options.metrics = metrics;
    const std::uint32_t n = p.n;
    const pp::OracleFactory oracle = probe_factory(
        [&protocol, n] { return core::stable_pattern_oracle(protocol, n); },
        stats, finals);
    const double p0 = now_s();
    {
      Span span(tracer, "pp.run_monte_carlo");
      answer.points.push_back(pp::run_monte_carlo(protocol,
                                                  *families_[p.k].table, n,
                                                  oracle, options)
                                  .trials);
    }
    answer.point_seconds.push_back(now_s() - p0);
  }
  answer.seconds = now_s() - t0;
  return answer;
}

void PaperSweep::check(const Answer& answer, FinalCounts& finals,
                       Outcome& out) const {
  // Final configurations arrive in completion order, not per point; each
  // carries its own (n, k): n is its sum and its length is 3k - 2.
  std::size_t total_trials = 0;
  for (std::size_t i = 0; i < grid_.size(); ++i) {
    for (const pp::TrialResult& t : answer.points[i]) {
      ++total_trials;
      out.record(t.stabilized,
                 "paper_sweep: trial did not stabilize at n=" +
                     std::to_string(grid_[i].n) +
                     " k=" + std::to_string(grid_[i].k));
    }
  }
  const std::lock_guard<std::mutex> lock(finals.mutex);
  for (const pp::Counts& c : finals.counts) {
    const auto k = static_cast<pp::GroupId>((c.size() + 2) / 3);  // 3k-2
    const auto n = static_cast<std::uint32_t>(
        std::accumulate(c.begin(), c.end(), std::uint64_t{0}));
    if (k < 2 || k >= families_.size() || !families_[k].protocol ||
        !core::matches_stable_pattern(*families_[k].protocol, n, c)) {
      out.record(false, "paper_sweep: final counts miss the stable pattern "
                        "at n=" + std::to_string(n));
    }
  }
  if (finals.counts.size() != total_trials) {
    out.record(false, "paper_sweep: " + std::to_string(finals.counts.size()) +
                          " final configurations for " +
                          std::to_string(total_trials) + " trials");
  }
}

std::string PaperSweep::digest(const Answer& answer) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& point : answer.points) h = fnv1a(trials_digest(point), h);
  return std::to_string(h);
}

WorkloadResult run_paper_sweep(const RunConfig& cfg) {
  WorkloadResult result;
  const std::vector<double> setups = timed_setups(cfg);
  const auto sweep = std::make_unique<PaperSweep>(cfg.threads);

  // The first sweep is the checked one (count-tracking oracles, untimed);
  // every timed sweep must reproduce its per-trial results exactly.
  FinalCounts finals;
  const PaperSweep::Answer reference =
      sweep->run(nullptr, nullptr, &finals, nullptr);
  sweep->check(reference, finals, result.outcome);
  result.answer_digest = PaperSweep::digest(reference);

  std::vector<double> answers, points;
  const double deadline = now_s() + cfg.seconds;
  while (answers.size() < 3 || now_s() < deadline) {
    const PaperSweep::Answer a = sweep->run(nullptr, nullptr, nullptr, nullptr);
    answers.push_back(a.seconds);
    points.insert(points.end(), a.point_seconds.begin(), a.point_seconds.end());
    for (std::size_t i = 0; i < a.points.size(); ++i) {
      for (std::size_t t = 0; t < a.points[i].size(); ++t) {
        const pp::TrialResult& got = a.points[i][t];
        const pp::TrialResult& want = reference.points[i][t];
        result.outcome.record(got.interactions == want.interactions &&
                                  got.effective == want.effective &&
                                  got.stabilized == want.stabilized,
                              "paper_sweep: timed trial differs from the "
                              "checked one");
      }
    }
  }

  result.metrics["setup_s"] = {median(setups), "s"};
  result.metrics["answer_ms"] = {median(answers) * 1e3, "ms"};
  result.metrics["peak_rss_mb"] = {self_peak_rss_mb(), "MiB"};
  const std::size_t grid_points = sweep->grid().size();
  result.report["samples"] = [count = answers.size(), grid_points,
                              points](ppk::io::JsonWriter& out) {
    out.begin_object();
    out.member("answers", static_cast<std::uint64_t>(count));
    out.member("grid_points", static_cast<std::uint64_t>(grid_points));
    out.member("point_p50_ms", median(points) * 1e3);
    out.member("point_max_ms", quantile(points, 1.0) * 1e3);
    out.end_object();
  };
  return result;
}

// ---------------------------------------------------------------------------
// large_n

namespace {

constexpr std::uint64_t kLargeSeed = 0x5EED'1A46'0000'0003ULL;
constexpr std::uint64_t kBudget1e6 = 1ULL << 30;
constexpr std::uint64_t kBudget1e8 = 1ULL << 28;

}  // namespace

std::vector<LargeTrial> large_trials(std::uint64_t workload_seed) {
  std::vector<LargeTrial> trials = {
      {1'000'000, kBudget1e6, ppk::derive_stream_seed(kLargeSeed, 6)},
      {100'000'000, kBudget1e8, ppk::derive_stream_seed(kLargeSeed, 8)},
  };
  if (ppk::derive_stream_seed(workload_seed, 0x1a46) & 1U) {
    std::swap(trials[0], trials[1]);
  }
  return trials;
}

LargeN::LargeN(std::uint64_t workload_seed, unsigned threads)
    : trials_(large_trials(workload_seed)),
      protocol_(3),
      table_(protocol_),
      threads_(threads),
      log_fact_(ppk::LogFactTable::shared(100'000'000)) {}

LargeN::Answer LargeN::run(Tracer* tracer, OracleStats* stats,
                           ppk::obs::MetricsRegistry* metrics) const {
  Answer answer;
  const double t0 = now_s();
  for (const LargeTrial& trial : trials_) {
    pp::MonteCarloOptions options;
    options.trials = 1;
    options.master_seed = trial.seed;
    options.max_interactions = trial.budget;
    options.engine = pp::Engine::kAuto;
    options.threads = 1;
    options.engine_threads = threads_;
    options.metrics = metrics;
    FinalCounts finals;
    const pp::OracleFactory oracle = probe_factory(
        [] { return std::make_unique<pp::NeverStableOracle>(); },
        stats, &finals);
    pp::MonteCarloResult result;
    {
      Span span(tracer, "pp.run_monte_carlo");
      result =
          pp::run_monte_carlo(protocol_, table_, trial.n, oracle, options);
    }
    answer.trials.push_back(result.trials.at(0));
    answer.finals.push_back(finals.counts.empty() ? pp::Counts{}
                                                  : finals.counts.front());
  }
  answer.seconds = now_s() - t0;
  return answer;
}

void LargeN::check(const Answer& answer, Outcome& out) const {
  for (std::size_t i = 0; i < trials_.size(); ++i) {
    const pp::TrialResult& t = answer.trials[i];
    const pp::Counts& c = answer.finals[i];
    const std::uint64_t total =
        std::accumulate(c.begin(), c.end(), std::uint64_t{0});
    const std::string where = "large_n n=" + std::to_string(trials_[i].n);
    out.record(t.interactions == trials_[i].budget && !t.stabilized &&
                   total == trials_[i].n && core::lemma1_holds(protocol_, c),
               where + ": budget not met exactly or Lemma 1 broken");
  }
}

std::string LargeN::digest(const Answer& answer) {
  std::ostringstream out;
  out << trials_digest(answer.trials);
  for (const pp::Counts& c : answer.finals) {
    for (const auto v : c) out << v << ' ';
    out << '|';
  }
  return std::to_string(fnv1a(out.str()));
}

WorkloadResult run_large_n(const RunConfig& cfg) {
  WorkloadResult result;
  const std::vector<double> setups = timed_setups(cfg);
  const auto large = std::make_unique<LargeN>(cfg.seed, cfg.threads);

  // The first answer warms the engines' lazily built state (untimed);
  // every answer is checked and must repeat the first one exactly.
  const LargeN::Answer first = large->run(nullptr, nullptr, nullptr);
  large->check(first, result.outcome);
  result.answer_digest = LargeN::digest(first);
  std::vector<double> answers;
  const double deadline = now_s() + cfg.seconds;
  while (answers.size() < 3 || now_s() < deadline) {
    const LargeN::Answer a = large->run(nullptr, nullptr, nullptr);
    answers.push_back(a.seconds);
    large->check(a, result.outcome);
    result.outcome.record(LargeN::digest(a) == result.answer_digest,
                          "large_n: answer differs between repeats");
  }

  result.metrics["setup_s"] = {median(setups), "s"};
  result.metrics["answer_ms"] = {median(answers) * 1e3, "ms"};
  result.metrics["peak_rss_mb"] = {self_peak_rss_mb(), "MiB"};
  result.report["samples"] = [count = answers.size()](
                                ppk::io::JsonWriter& out) {
    out.begin_object();
    out.member("answers", static_cast<std::uint64_t>(count));
    out.end_object();
  };
  return result;
}

// ---------------------------------------------------------------------------
// Set-up timing

void build_setup(const RunConfig& cfg) {
  if (cfg.workload == "paper_sweep") {
    const PaperSweep sweep(cfg.threads);
  } else if (cfg.workload == "large_n") {
    const LargeN large(cfg.seed, cfg.threads);
  } else if (cfg.workload == "exact_ceiling") {
    const ExactCeiling exact(cfg.seed);
  }
}

std::vector<double> timed_setups(const RunConfig& cfg) {
  std::vector<std::string> args = {"perfbench", "--workload", cfg.workload,
                                   "--seed", std::to_string(cfg.seed),
                                   "--setup-only"};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  std::vector<double> times;
  for (int r = 0; r < kSetupRepeats; ++r) {
    int fds[2];
    if (::pipe(fds) != 0) throw std::runtime_error("pipe() failed");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    pid_t pid = -1;
    const double t0 = now_s();
    const int rc = posix_spawn(&pid, "/proc/self/exe", &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(fds[1]);
    char ready[8] = {};
    const bool got = rc == 0 && ::read(fds[0], ready, 6) == 6;
    const double elapsed = now_s() - t0;
    ::close(fds[0]);
    int status = 0;
    if (rc == 0) ::waitpid(pid, &status, 0);
    if (!got || std::string(ready, 6) != "ready\n" || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      throw std::runtime_error("set-up child failed");
    }
    times.push_back(elapsed);
  }
  return times;
}

}  // namespace perfbench
