// The benchmark's workload families.  Each family has a set-up step (what
// a user's process pays before its first answer) and an answer step (one
// complete answer to the workload's question).  The gated runner times
// both with tracing off; traced.cpp reuses the same code with a Tracer and
// probe counters attached.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/kpartition.hpp"
#include "obs/metrics.hpp"
#include "pp/monte_carlo.hpp"
#include "pp/transition_table.hpp"

namespace perfbench {

// ---------------------------------------------------------------------------
// Oracle probe: a decorator around any stability oracle that can keep the
// trial's count vector (answer checks) and count / sample-time the calls
// (the traced run's core.oracle.* figures).

struct OracleStats {
  std::atomic<std::uint64_t> transitions{0};
  std::atomic<std::uint64_t> batches{0};
  std::atomic<std::uint64_t> queries{0};
  /// Nanoseconds measured on every 64th call (less the clock's own cost),
  /// scaled back up: an estimate, since one call is a few nanoseconds.
  std::atomic<std::int64_t> busy_ns{0};
};

/// Final configurations of the trials a probe oracle watched.
struct FinalCounts {
  std::mutex mutex;
  std::vector<ppk::pp::Counts> counts;
};

/// Builds the oracle factory used by every simulation workload: the inner
/// factory's oracle, decorated when `stats` (timing) or `finals` (count
/// tracking) is non-null; plain otherwise.
[[nodiscard]] ppk::pp::OracleFactory probe_factory(
    ppk::pp::OracleFactory inner, OracleStats* stats, FinalCounts* finals);

// ---------------------------------------------------------------------------
// paper_sweep

struct SweepPoint {
  std::uint32_t n = 0;
  ppk::pp::GroupId k = 0;
  std::uint32_t trials = 0;
  std::uint64_t master_seed = 0;
};

/// The Fig. 5 + Fig. 6 grid.  Trial seeds are fixed (independent of the
/// workload seed), so every run does identical work.
[[nodiscard]] std::vector<SweepPoint> sweep_grid();

class PaperSweep {
 public:
  /// Set-up: one protocol and transition table per k of the grid.  Each
  /// point's trials run on `threads` trial threads.
  explicit PaperSweep(unsigned threads);

  struct Answer {
    /// Per point, per trial: interactions, effective, stabilized.
    std::vector<std::vector<ppk::pp::TrialResult>> points;
    std::vector<double> point_seconds;
    double seconds = 0.0;
  };

  /// One whole sweep.  `finals` (may be null) collects final counts for
  /// the answer checks; `stats`/`metrics`/`tracer` are the traced run's.
  Answer run(Tracer* tracer, OracleStats* stats, FinalCounts* finals,
             ppk::obs::MetricsRegistry* metrics) const;

  /// Checks a checked answer (run with `finals`): every trial stabilized
  /// and every final configuration matches the stable pattern.
  void check(const Answer& answer, FinalCounts& finals, Outcome& out) const;

  [[nodiscard]] static std::string digest(const Answer& answer);
  [[nodiscard]] const std::vector<SweepPoint>& grid() const { return grid_; }
  [[nodiscard]] const ppk::core::KPartitionProtocol& protocol(
      ppk::pp::GroupId k) const;

 private:
  struct Family {
    std::unique_ptr<ppk::core::KPartitionProtocol> protocol;
    std::unique_ptr<ppk::pp::TransitionTable> table;
  };
  std::vector<SweepPoint> grid_;
  std::vector<Family> families_;  // indexed by k
  unsigned threads_;
};

// ---------------------------------------------------------------------------
// large_n

struct LargeTrial {
  std::uint32_t n = 0;
  std::uint64_t budget = 0;
  std::uint64_t seed = 0;
};

/// The two fixed-budget k = 3 trials (n = 1e6 and 1e8), in seed order.
[[nodiscard]] std::vector<LargeTrial> large_trials(std::uint64_t workload_seed);

class LargeN {
 public:
  LargeN(std::uint64_t workload_seed, unsigned threads);

  struct Answer {
    std::vector<ppk::pp::TrialResult> trials;
    std::vector<ppk::pp::Counts> finals;
    double seconds = 0.0;
  };

  Answer run(Tracer* tracer, OracleStats* stats,
             ppk::obs::MetricsRegistry* metrics) const;
  /// interactions == budget, and Lemma 1 on the final counts.
  void check(const Answer& answer, Outcome& out) const;

  [[nodiscard]] static std::string digest(const Answer& answer);
  [[nodiscard]] const std::vector<LargeTrial>& trials() const {
    return trials_;
  }
  [[nodiscard]] const ppk::core::KPartitionProtocol& protocol() const {
    return protocol_;
  }
  [[nodiscard]] const ppk::pp::TransitionTable& table() const {
    return table_;
  }

 private:
  std::vector<LargeTrial> trials_;
  ppk::core::KPartitionProtocol protocol_;
  ppk::pp::TransitionTable table_;
  unsigned threads_;
  /// The process-wide log-factorial table the batch engines share, built
  /// here so its fill is set-up rather than the first answer's cost.
  std::shared_ptr<const std::vector<double>> log_fact_;
};

// ---------------------------------------------------------------------------
// exact_ceiling

struct ExactInstance {
  ppk::pp::GroupId k = 0;
  std::uint32_t n = 0;
  /// Pinned reference answers (relative tolerance 1e-9).
  double expected_interactions = 0.0;
  std::size_t bottom_sccs = 0;
};

/// The two instances (k = 2 near the lumped ceiling, k = 3), in seed order.
[[nodiscard]] std::vector<ExactInstance> exact_instances(
    std::uint64_t workload_seed);

class ExactCeiling {
 public:
  explicit ExactCeiling(std::uint64_t workload_seed);

  struct InstanceAnswer {
    bool ok = false;
    std::string error;
    std::string solver;
    std::uint64_t reachable_configs = 0;
    double expected = 0.0;
    std::vector<double> absorption;
    double create_s = 0.0;
    double hitting_s = 0.0;
    double absorption_s = 0.0;
  };
  struct Answer {
    std::vector<InstanceAnswer> instances;
    double seconds = 0.0;
  };

  Answer run(Tracer* tracer) const;
  /// Certified solves, pinned references, probabilities summing to one.
  void check(const Answer& answer, Outcome& out) const;
  /// The dense back end agrees with the lumped one on k = 2 at the largest
  /// n it reaches (untimed).
  void check_dense_agreement(Outcome& out) const;

  [[nodiscard]] static std::string digest(const Answer& answer);
  [[nodiscard]] const std::vector<ExactInstance>& instances() const {
    return instances_;
  }
  [[nodiscard]] const ppk::core::KPartitionProtocol& protocol(
      ppk::pp::GroupId k) const;
  [[nodiscard]] const ppk::pp::TransitionTable& table(
      ppk::pp::GroupId k) const;

 private:
  std::vector<ExactInstance> instances_;
  std::unique_ptr<ppk::core::KPartitionProtocol> k2_, k3_;
  std::unique_ptr<ppk::pp::TransitionTable> t2_, t3_;
};

/// Relative difference |a - b| / max(|a|, |b|, tiny).
[[nodiscard]] double relative_diff(double a, double b);

// ---------------------------------------------------------------------------
// Gated runners (tracing off): set up several times, then answer until the
// run's time is up.

WorkloadResult run_paper_sweep(const RunConfig& cfg);
WorkloadResult run_large_n(const RunConfig& cfg);
WorkloadResult run_exact_ceiling(const RunConfig& cfg);
WorkloadResult run_ppkd_mix(const RunConfig& cfg);

/// The traced run: every layer's spans and counters (traced.cpp).
WorkloadResult run_traced(const RunConfig& cfg);

/// The benchmark's own checks (self_test.cpp); returns the exit code.
int run_self_test();

/// Set-up repetitions per run; setup_s is their median.
inline constexpr int kSetupRepeats = 21;

/// The set-up of an in-process workload, alone: what `--setup-only` runs
/// in a child process before it reports ready.
void build_setup(const RunConfig& cfg);

/// kSetupRepeats timings of a fresh process (this binary, --setup-only)
/// from spawn until it has built the workload's set-up and says so.
[[nodiscard]] std::vector<double> timed_setups(const RunConfig& cfg);

}  // namespace perfbench
