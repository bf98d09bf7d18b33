// Crash-safe Monte-Carlo campaigns (docs/campaigns.md).
//
// A campaign is a repeated-trial run (pp/monte_carlo.hpp) hardened for
// unattended execution:
//
//  - Checkpointing.  The runner periodically persists a versioned
//    `ppk-campaign-v1` checkpoint -- completed trial results, engine
//    snapshots of in-flight trials (pp/snapshot.hpp), and the merged
//    observability metrics -- via an atomic write-temp-then-rename
//    (io/atomic_file.hpp).  A campaign killed at any instant (SIGKILL
//    included) resumes from its checkpoint with no completed trial lost,
//    and the finished statistics are bit-identical to an uninterrupted
//    run at any thread count.
//
//  - Supervision.  Per-trial wall-clock deadlines, stalled/timeout
//    classification, bounded retry with exponential interaction-budget
//    backoff, and graceful degradation past a global deadline with
//    completed/retried/failed/censored accounting.
//
// Determinism model: a campaign trial is the Monte-Carlo trial.  Both
// runners build the engine through pp::with_engine() and drive it through
// pp::drive_trial() (pp/trial.hpp); the campaign passes its fixed chunk
// size and a boundary callback that captures in-flight state and checks
// the halt conditions.  The grant sequence depends only on (budget, chunk,
// interactions consumed at restore), so an interrupted trial restored from
// its snapshot sees exactly the grants the uninterrupted trial would have
// seen -- the engines' snapshot contract then guarantees a bit-identical
// trajectory for every engine, including the jump and batch engines whose
// sampling depends on grant boundaries.  Wall-clock supervision
// (deadlines, stop flag) only decides *whether* a trial keeps running; it
// never alters the trajectory of a trial that completes.

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "pp/monte_carlo.hpp"
#include "pp/snapshot.hpp"
#include "pp/trial.hpp"

namespace ppk::core {

/// Schema tag of the checkpoint file format.
inline constexpr std::string_view kCampaignSchema = "ppk-campaign-v1";

/// Default per-grant chunk size: the Monte-Carlo runner's wall-clock check
/// cadence, so a campaign with a trial deadline and a Monte-Carlo run with
/// a wall-clock limit draw the same trials.
inline constexpr std::uint64_t kDefaultChunkInteractions =
    pp::kDefaultChunkInteractions;

struct CampaignTrial;

/// Campaign configuration: a base Monte-Carlo configuration plus the
/// checkpointing and supervision knobs.
struct CampaignOptions {
  /// Base trial configuration (trials, seed, budget, engine, threads,
  /// watch state, topology).  `metrics` is owned by the campaign and must
  /// stay null (the campaign manages per-trial registries; see
  /// CampaignResult::metrics).  `wall_clock_limit_seconds` is the
  /// per-attempt deadline, read at chunk boundaries: an attempt past it
  /// stops with a timed_out verdict (no retry: the wall clock, unlike the
  /// interaction budget, does not back off).
  pp::MonteCarloOptions mc;

  /// Checkpoint file path; empty disables checkpointing.  run() resumes
  /// from this file when it exists and its fingerprint matches.
  std::string checkpoint_path;

  /// Interactions granted per run()/resume() call.  Part of the trial's
  /// deterministic identity: a checkpoint records results for one chunk
  /// size and resuming requires the same value.
  std::uint64_t chunk_interactions = kDefaultChunkInteractions;

  /// Checkpoint write cadence, counted in progress events (completed
  /// chunks and completed trials) across all workers.
  std::uint32_t checkpoint_every_chunks = 16;

  /// Retry budget for trials that end stalled or budget-exhausted without
  /// stabilizing.  Each retry re-runs the trial from the initial
  /// configuration with a fresh derived seed and a backed-off budget.
  std::uint32_t max_retries = 0;

  /// Interaction-budget multiplier per retry (attempt r runs with
  /// mc.max_interactions * retry_backoff^r, saturating at UINT64_MAX).
  double retry_backoff = 2.0;

  /// Campaign-wide wall-clock deadline, checked at chunk boundaries.
  /// Past it, in-flight trials are captured and censored, pending trials
  /// never start, and run() returns with complete = false; the final
  /// checkpoint keeps everything resumable.
  std::optional<double> campaign_deadline_seconds;

  /// Cooperative cancellation (e.g. a SIGINT handler's flag): when it
  /// becomes true the campaign winds down exactly as if the campaign
  /// deadline had passed.
  const std::atomic<bool>* stop = nullptr;

  /// Streaming hook: invoked once per trial verdict (completed, failed,
  /// or censored) as trials finish, under the campaign lock -- callbacks
  /// are serialized and must not re-enter the campaign.  Trials restored
  /// as already-completed from a checkpoint are NOT re-announced.
  std::function<void(std::uint32_t trial, const CampaignTrial&)> on_trial;

  /// Operational (non-deterministic) campaign metrics: checkpoint write
  /// durations (campaign.checkpoint.write_us), checkpoint count
  /// (campaign.checkpoints), retries (campaign.retries) and final
  /// censored/failed gauges (campaign.trials.censored/.failed).  Kept out
  /// of the deterministic merged registry on purpose.  Must outlive run().
  obs::MetricsRegistry* runtime_metrics = nullptr;
};

/// Outcome of one supervised trial.
struct CampaignTrial {
  /// The trial verdict.  interactions/effective accumulate across retries
  /// (total work spent on the trial); stabilized/timed_out/stalled and
  /// watch_marks describe the final attempt.
  pp::TrialResult result;

  /// Retries consumed (0 = first attempt sufficed).
  std::uint32_t retries = 0;

  /// True iff every attempt ended stalled or budget-exhausted: the trial
  /// has a final verdict, and it is "did not stabilize".
  bool failed = false;

  /// True iff supervision cut the trial off (global deadline or stop
  /// flag) before a verdict; a checkpointed campaign resumes it later.
  bool censored = false;
};

/// Everything run() knows when it returns.
struct CampaignResult {
  /// Per-trial outcomes, indexed by trial number.
  std::vector<CampaignTrial> trials;

  /// Merged observability metrics over *completed* trials (censored
  /// trials' partial registries live only in the checkpoint).  The merge
  /// is commutative, so this is bit-identical across thread counts and
  /// across kill/resume boundaries once the campaign completes.
  obs::MetricsRegistry metrics;

  /// True iff every trial reached a verdict (stabilized, timed out, or
  /// failed after retries).
  bool complete = false;

  /// True iff this run started from an existing checkpoint.
  bool resumed = false;

  /// Non-empty iff run() refused to start: the checkpoint file exists but
  /// is malformed or was written by a different configuration.  Nothing
  /// ran and `trials` is empty in that case.
  std::string error;

  /// True iff `error` is a fingerprint mismatch: the checkpoint is well
  /// formed but belongs to a different configuration (or to an engine
  /// mapping of an older build).  A caller that owns the checkpoint path
  /// may delete the file and run afresh.
  bool stale_checkpoint = false;

  /// Trials with a verdict.
  [[nodiscard]] std::uint32_t completed_count() const;
  /// Trials that needed at least one retry.
  [[nodiscard]] std::uint32_t retried_count() const;
  /// Trials whose verdict is failed.
  [[nodiscard]] std::uint32_t failed_count() const;
  /// Trials cut off without a verdict.
  [[nodiscard]] std::uint32_t censored_count() const;
};

/// Checkpointed state of one in-flight trial: enough to restore the
/// engine mid-attempt and continue bit-identically.
struct InFlightTrial {
  /// Trial number.
  std::uint32_t trial = 0;
  /// Retry index of the attempt the snapshot belongs to.
  std::uint32_t retry = 0;
  /// Interactions consumed within this attempt (a multiple of the chunk
  /// size; snapshots are taken at chunk boundaries only).
  std::uint64_t consumed = 0;
  /// Trial-accumulated interaction total at the snapshot (across
  /// attempts).
  std::uint64_t interactions = 0;
  /// Trial-accumulated effective-interaction total at the snapshot.
  std::uint64_t effective = 0;
  /// Engine state at the snapshot (pp/snapshot.hpp).
  pp::Snapshot snapshot;
  /// Oracle progress at the snapshot (StabilityOracle::save_state()).
  std::vector<std::uint64_t> oracle_state;
  /// Configuration at the snapshot; restore passes it to oracle.reset()
  /// before restore_state().
  pp::Counts counts;
  /// Watch marks recorded so far in this attempt.
  std::vector<std::uint64_t> watch_marks;
  /// The attempt's partial observability registry.
  obs::MetricsRegistry metrics;
};

/// One completed trial as stored in a checkpoint.
struct CompletedTrial {
  /// Trial number.
  std::uint32_t trial = 0;
  /// Its verdict.
  CampaignTrial data;
};

/// Parsed form of a `ppk-campaign-v1` checkpoint file.
struct CampaignCheckpoint {
  /// Configuration fingerprint (campaign_fingerprint()); resume refuses a
  /// checkpoint whose fingerprint differs from the running configuration.
  std::string fingerprint;
  /// Trials with a verdict.
  std::vector<CompletedTrial> completed;
  /// Trials captured mid-attempt.
  std::vector<InFlightTrial> in_flight;
  /// Merged registry over the completed trials.
  obs::MetricsRegistry metrics;
};

/// Deterministic one-line description of everything that shapes trial
/// trajectories (trials, seed, budget, the engine as resolved -- kAuto is
/// recorded as the engine it picks for this population --, fairness
/// policy + epsilon, chunk size, retry policy, watch state, the edge list
/// of trial 0's topology, initial configuration).  Stored in checkpoints
/// and compared verbatim on resume, so a checkpoint written on one
/// topology refuses to resume on another.
[[nodiscard]] std::string campaign_fingerprint(const pp::Counts& initial,
                                               const CampaignOptions& options);

/// Serializes a checkpoint to its JSON file form.
[[nodiscard]] std::string serialize_campaign_checkpoint(
    const CampaignCheckpoint& checkpoint);

/// Parses serialize_campaign_checkpoint() output.  nullopt (and a
/// one-line reason in `error` when non-null) on malformed input --
/// checkpoint files come from disk, so parsing is soft-fail.
[[nodiscard]] std::optional<CampaignCheckpoint> parse_campaign_checkpoint(
    std::string_view text, std::string* error = nullptr);

/// Runs a supervised, checkpointed campaign.  Resumes from
/// `options.checkpoint_path` when the file exists; writes a final
/// checkpoint (when checkpointing is enabled) before returning, so an
/// interrupted campaign can be re-run with the same arguments until
/// complete.
///
/// This counts-only overload cannot realize non-uniform fairness (the
/// adversarial engine needs the protocol's group map to probe for
/// non-progressing pairs) and fails fast -- PPK_EXPECTS -- when
/// `options.mc.fairness.needs_adversarial_engine()`; use a
/// protocol-taking overload for those specs.
[[nodiscard]] CampaignResult run_campaign(const pp::TransitionTable& table,
                                          const pp::Counts& initial,
                                          const pp::OracleFactory& make_oracle,
                                          const CampaignOptions& options);

/// Full-axis overload: carries the protocol so `options.mc.fairness`
/// specs that need the agent-level adversarial engine (weak round-robin,
/// epsilon-fair with epsilon < 1) are routed to it by pp::with_engine(),
/// as in the Monte-Carlo runner.  Adversarial campaigns require engine
/// kAuto or kAgentArray and no watch state; `mc.graph` composes as the
/// scheduling topology.
[[nodiscard]] CampaignResult run_campaign(const pp::Protocol& protocol,
                                          const pp::TransitionTable& table,
                                          const pp::Counts& initial,
                                          const pp::OracleFactory& make_oracle,
                                          const CampaignOptions& options);

/// Convenience overload: n agents, all in the protocol's designated
/// initial state.
[[nodiscard]] CampaignResult run_campaign(const pp::Protocol& protocol,
                                          const pp::TransitionTable& table,
                                          std::uint32_t n,
                                          const pp::OracleFactory& make_oracle,
                                          const CampaignOptions& options);

}  // namespace ppk::core
