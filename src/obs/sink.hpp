// ObsSink: the single hook type the engines know about, and the
// PPK_OBS_HOOK macro that keeps the hot path free when observability is
// disabled.
//
// Layering.  Engines (pp/, faults, recovery) hold a nullable `ObsSink*`
// and invoke it through PPK_OBS_HOOK at their instrumentation points; they
// never touch MetricsRegistry or ConvergenceTimeline directly.  The sink
// resolves its counters/histograms once at construction and caches raw
// pointers, so a hook invocation on the hot path is: one null check, a few
// pointer-chased increments, and one compare for the timeline stride.
//
// Disablement is layered:
//  - Runtime: no sink attached (the default).  PPK_OBS_HOOK is a single
//    always-false, branch-predictable null test; measured overhead on the
//    agent and batch engines is within noise (the <= 2% CI gate in
//    scripts/check_bench_regression.py).
//  - Compile time: building with PPK_OBS_ENABLED=0 (CMake option
//    PPK_OBSERVABILITY=OFF) compiles every hook out entirely; the sink
//    pointer remains so the API surface does not change shape.
//
// Totals counted by a sink start at the moment it is attached; attach
// before run() for whole-run numbers.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "pp/population.hpp"

// Compile-time master switch for the observability hooks.  Defined to 0 by
// the build when PPK_OBSERVABILITY=OFF; defaults to on so header-only
// consumers get working hooks without extra configuration.
#ifndef PPK_OBS_ENABLED
#define PPK_OBS_ENABLED 1
#endif

// Invokes `call` on non-null sink pointer `sink`; compiles to nothing when
// observability is disabled at build time.  Usage:
//   PPK_OBS_HOOK(obs_, on_step(population_.counts(), interactions_, true));
#if PPK_OBS_ENABLED
#define PPK_OBS_HOOK(sink, call)            \
  do {                                      \
    if ((sink) != nullptr) (sink)->call;    \
  } while (false)
#else
#define PPK_OBS_HOOK(sink, call) \
  do {                           \
  } while (false)
#endif

namespace ppk::obs {

/// How an engine advanced the interaction clock at a hook point; selects
/// the advances.* counter and advance_size.* histogram a hook feeds.
enum class AdvanceKind : std::size_t {
  /// One drawn pair, applied individually (agent, count, churn engines).
  kPairwise = 0,
  /// A geometric null-run plus one effective pair (jump engine).
  kJump = 1,
  /// The batch engine's thin regime (same shape as kJump).
  kThin = 2,
  /// A collision-free batch (batch engine).
  kBatch = 3,
};

/// Number of AdvanceKind values (array sizing).
inline constexpr std::size_t kNumAdvanceKinds = 4;

/// Name of an AdvanceKind ("pairwise", "jump", "thin", "batch").
[[nodiscard]] constexpr const char* advance_kind_name(AdvanceKind kind) {
  switch (kind) {
    case AdvanceKind::kPairwise:
      return "pairwise";
    case AdvanceKind::kJump:
      return "jump";
    case AdvanceKind::kThin:
      return "thin";
    case AdvanceKind::kBatch:
      return "batch";
  }
  return "unknown";
}

/// The hook object engines invoke.  Binds a MetricsRegistry (owned by the
/// caller) and an optional ConvergenceTimeline; not thread-safe -- one
/// sink per engine per thread, merged afterwards (see MetricsRegistry).
class ObsSink {
 public:
  /// Creates a sink writing into `registry`, optionally feeding `timeline`
  /// (both must outlive the sink).  Resolves and caches all hot-path
  /// instruments up front so hook invocations never perform name lookups.
  explicit ObsSink(MetricsRegistry& registry,
                   ConvergenceTimeline* timeline = nullptr)
      : registry_(&registry),
        timeline_(timeline),
        interactions_(&registry.counter("sim.interactions")),
        effective_(&registry.counter("sim.effective")) {
    for (std::size_t kind = 0; kind < kNumAdvanceKinds; ++kind) {
      const char* name = advance_kind_name(static_cast<AdvanceKind>(kind));
      advances_[kind] = &registry.counter(std::string("sim.advances.") + name);
      null_run_[kind] =
          &registry.histogram(std::string("sim.null_run.") + name);
      advance_size_[kind] =
          &registry.histogram(std::string("sim.advance_size.") + name);
    }
  }

  /// Pairwise hook: one interaction was drawn and applied, bringing the
  /// total to `now`; `effective` says whether it changed a state.
  void on_step(const pp::Counts& counts, std::uint64_t now, bool effective) {
    interactions_->inc();
    if (effective) {
      effective_->inc();
      ++effective_total_;
    }
    if (timeline_ != nullptr) timeline_->record(now, counts, effective_total_);
  }

  /// Null-run hook (jump engine, batch thin regime): `skipped` null
  /// interactions were skipped in one go, bringing the clock to `now`
  /// without changing the configuration -- so timeline boundaries inside
  /// the run get exact configurations.  Engines call this BEFORE applying
  /// the effective pair that ends the run (and alone when a budget clamp
  /// truncates the run with no pair applied).
  void on_skip(const pp::Counts& counts, std::uint64_t now,
               std::uint64_t skipped, AdvanceKind kind) {
    interactions_->inc(skipped);
    null_run_[static_cast<std::size_t>(kind)]->record(skipped);
    if (timeline_ != nullptr) timeline_->record(now, counts, effective_total_);
  }

  /// Effective-pair hook (jump engine, batch thin regime): the single
  /// effective interaction concluding a null run was applied at `now`.
  void on_apply(const pp::Counts& counts, std::uint64_t now,
                AdvanceKind kind) {
    interactions_->inc();
    effective_->inc();
    ++effective_total_;
    advances_[static_cast<std::size_t>(kind)]->inc();
    if (timeline_ != nullptr) timeline_->record(now, counts, effective_total_);
  }

  /// Batch hook: a collision-free batch of `drawn` interactions (of which
  /// `effective` changed states) advanced the clock to `now`.  Timeline
  /// boundaries inside the batch receive the endpoint configuration (see
  /// obs/timeline.hpp for the attribution contract).
  void on_advance(const pp::Counts& counts, std::uint64_t now,
                  std::uint64_t drawn, std::uint64_t effective,
                  AdvanceKind kind) {
    interactions_->inc(drawn);
    effective_->inc(effective);
    effective_total_ += effective;
    const auto k = static_cast<std::size_t>(kind);
    advances_[k]->inc();
    advance_size_[k]->record(drawn);
    if (timeline_ != nullptr) timeline_->record(now, counts, effective_total_);
  }

  /// Named event counter (fault injections, recovery waves, ...); not a
  /// hot path -- resolves the counter by name and caches nothing.
  void on_event(const char* name, std::uint64_t delta = 1) {
    registry_->counter(name).inc(delta);
  }

  /// Sets the named gauge (current epoch, live population size, ...).
  void set_gauge(const char* name, std::int64_t value) {
    registry_->gauge(name).set(value);
  }

  /// The bound registry.
  [[nodiscard]] MetricsRegistry& registry() noexcept { return *registry_; }

  /// The bound timeline (may be null).
  [[nodiscard]] ConvergenceTimeline* timeline() noexcept { return timeline_; }

 private:
  MetricsRegistry* registry_;
  ConvergenceTimeline* timeline_;
  Counter* interactions_;
  Counter* effective_;
  Counter* advances_[kNumAdvanceKinds] = {};
  Histogram* null_run_[kNumAdvanceKinds] = {};
  Histogram* advance_size_[kNumAdvanceKinds] = {};
  std::uint64_t effective_total_ = 0;
};

}  // namespace ppk::obs
