// Shared plumbing of the perfbench binary: clocks, order statistics, the
// span tracer, result accounting and the machine record.  Nothing here
// calls into the library's simulation code.

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "io/json.hpp"

namespace perfbench {

/// Seconds on the steady clock (arbitrary epoch).
[[nodiscard]] double now_s();

/// Nearest-rank quantile (q in [0, 1]) of `values`; 0 for an empty set.
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// Median (nearest-rank, lower middle).
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Samples strictly beyond the nearest-rank q-quantile of n samples.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double q);

/// The reporting rule for tail percentiles: a percentile is reported only
/// when at least ten samples lie beyond it.
[[nodiscard]] inline bool percentile_reportable(std::size_t n, double q) {
  return samples_beyond(n, q) >= 10;
}

/// True iff every character of `name` is in [A-Za-z0-9_.-] and the name
/// starts with a letter or digit (the metric naming rule).
[[nodiscard]] bool valid_metric_name(const std::string& name);

/// One reported figure.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Attempted / failed operation accounting with the first few reasons.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> reasons;

  /// Counts one operation; a false `ok` records it as failed.
  void record(bool ok, const std::string& what);
};

/// In-memory span recorder (name, start, end, parent, run id).  A null
/// Tracer* makes every Span a no-op, which is how the gated runs call the
/// same code with tracing off.
class Tracer {
 public:
  explicit Tracer(std::uint64_t run_id) : run_id_(run_id) {}

  struct Record {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
  };

  int begin(const std::string& name);
  void end(int index);

  /// Self time per layer (the span name up to its first '.'): each span's
  /// duration minus the part of it its direct children cover.
  [[nodiscard]] std::map<std::string, double> self_seconds_by_layer() const;

  /// Every span, as one JSON object of the report file.
  void write(ppk::io::JsonWriter& out) const;

 private:
  std::uint64_t run_id_;
  std::vector<Record> spans_;
  std::vector<int> open_;
};

/// RAII span; a null tracer records nothing.
class Span {
 public:
  Span(Tracer* tracer, const std::string& name)
      : tracer_(tracer), index_(tracer ? tracer->begin(name) : -1) {}
  ~Span() {
    if (tracer_ != nullptr) tracer_->end(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

/// Peak resident set (VmHWM) of this process in MiB.
[[nodiscard]] double self_peak_rss_mb();

/// Peak resident set (VmHWM) of another live process in MiB; 0 if unknown.
[[nodiscard]] double process_peak_rss_mb(int pid);

/// Name of the filesystem holding `path` (ext4, tmpfs, ...).
[[nodiscard]] std::string filesystem_type(const std::string& path);

/// The machine and build that produced a result, as one JSON object.
/// `calibration_ns` is the benchmark-owned ALU loop figure (ungated).
void write_machine(ppk::io::JsonWriter& out, const std::string& state_dir,
                   const std::string& git_rev, double calibration_ns);

/// Runs a fixed integer loop and returns its median ns per iteration over
/// three repeats: a host-drift reference printed next to the metrics.
[[nodiscard]] double calibration_ns_per_iter();

/// FNV-1a 64 over `text`, continuing from `hash`.
[[nodiscard]] std::uint64_t fnv1a(const std::string& text,
                                  std::uint64_t hash = 0xcbf29ce484222325ULL);

/// Hardware threads (at least 1).
[[nodiscard]] unsigned hardware_threads();

/// Size for the library's thread pools: one less than the hardware threads
/// (at least 1).  A ThreadPool's caller drains work too, so nproc - 1
/// workers keep nproc threads busy and never more.
[[nodiscard]] unsigned pool_threads();

/// Everything a workload needs from the command line.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Fresh per-run scratch directory inside the checkout (ppkd state,
  /// checkpoints, reports).
  std::string run_dir;
  /// The ppkd daemon binary.
  std::string ppkd;
  std::string git_rev = "unknown";
  /// Trial and engine thread-pool size: pool_threads().
  unsigned threads = 1;
};

/// What one workload run hands back to main().
struct WorkloadResult {
  Outcome outcome;
  Metrics metrics;
  /// Extra members of the report file (sample counts, tails, spans):
  /// each writes its member's value.
  std::map<std::string, std::function<void(ppk::io::JsonWriter&)>> report;
  /// Digest of the answers (in the report): equal digests mean equal
  /// answers, across runs and across commits.
  std::string answer_digest;
};

}  // namespace perfbench
