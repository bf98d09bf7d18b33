// Stopping criteria for simulations.
//
// The paper measures "the total number of interactions until a population
// reaches a stable configuration".  Deciding stability in general requires
// reasoning about all reachable futures, but in practice a protocol's stable
// configurations fall into one of two easily checkable shapes:
//
//  - CountPatternOracle: the stable configurations are exactly those whose
//    state counts match a known target pattern, possibly up to merging some
//    states into equivalence classes (e.g. the paper's protocol is stable
//    exactly at the Lemma 6 pattern, with initial and initial' equivalent).
//    O(1) per interaction via an incrementally maintained L1 distance.
//
//  - SilenceOracle: the protocol is eventually *silent* (no effective
//    transition enabled) and silent configurations are the stable ones
//    (leader election, majority, ...).  O(#present states) per change.
//
// Oracles are notified of every effective transition; null interactions
// cannot change stability, so the simulator skips notifying on them.
// Engines rely on this: stable() is a function of the callbacks received
// so far (see StabilityOracle::stable()), so they may query it only after
// a callback instead of after every null draw.

#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "pp/population.hpp"
#include "pp/protocol.hpp"
#include "pp/transition_table.hpp"
#include "util/assert.hpp"

namespace ppk::pp {

/// Interface for incremental stability detection.
class StabilityOracle {
 public:
  virtual ~StabilityOracle() = default;

  /// (Re)initializes from a full count vector.
  virtual void reset(const Counts& counts) = 0;

  /// Called after every effective interaction with the applied rule.
  virtual void on_transition(StateId p, StateId q, StateId p_next,
                             StateId q_next) = 0;

  /// Called by aggregating engines (see pp/batch_simulator.hpp) that apply
  /// whole groups of interactions at once: the configuration advanced to
  /// `counts` over `interactions` drawn pairs, of which `effective` changed
  /// some agent.  The intra-batch order is not observable, so oracles see
  /// the batch's endpoints only; engines keep batches no coarser than their
  /// exactness argument allows (and fall back to on_transition for the
  /// pairwise draws they interleave).  The default rebuilds from the new
  /// counts, which is exact for any oracle whose verdict is a function of
  /// the current configuration (pattern matching, silence); history-keeping
  /// oracles override to carry their window across the batch.
  virtual void on_batch(const Counts& counts, std::uint64_t interactions,
                        std::uint64_t effective) {
    (void)interactions;
    (void)effective;
    reset(counts);
  }

  /// True iff the current configuration is stable.  The verdict must be
  /// a function of the callbacks received so far (reset, on_transition,
  /// on_batch, on_external_change, restore_state): it may not change
  /// between two callbacks.  Engines rely on this to skip the query after
  /// null draws, which make no callback -- the shared run()/resume() loop
  /// (pp/engine_loop.hpp) asks once per grant and then once per advance
  /// that made a callback.
  [[nodiscard]] virtual bool stable() const = 0;

  /// Called by AgentSimulator's churn rule (pp/agent_simulator.hpp) when the
  /// configuration changes by something *other* than a protocol transition:
  /// an agent crashed, joined, or had its state corrupted.  `counts` is the
  /// complete new count vector; the population size may have changed.
  /// Oracles constructed for a fixed population must override this to
  /// rebuild their targets; the default marks the oracle stale, and a stale
  /// oracle fails loudly on the next stable() query instead of silently
  /// measuring against an outdated pattern.
  virtual void on_external_change(const Counts& counts) {
    (void)counts;
    stale_ = true;
  }

  /// True once an external change has invalidated this oracle.
  [[nodiscard]] bool is_stale() const noexcept { return stale_; }

  /// Serializes oracle-internal *history* for engine snapshots (see
  /// pp/snapshot.hpp).  An oracle whose verdict is a pure function of the
  /// current configuration carries none -- restoring it is just
  /// reset(counts) -- so the default returns an empty payload.
  /// History-keeping oracles (QuiescenceOracle's lull counter) override
  /// both hooks.
  [[nodiscard]] virtual std::vector<std::uint64_t> save_state() const {
    return {};
  }

  /// Restores a save_state() payload.  Call reset() with the snapshotted
  /// configuration first, then this; afterwards the oracle continues
  /// exactly where the snapshotted one left off.
  virtual void restore_state(const std::vector<std::uint64_t>& state) {
    PPK_EXPECTS(state.empty());
  }

 protected:
  /// Subclasses whose targets depend on the population call this from
  /// stable(): using a stale oracle is a programming error, not a
  /// recoverable condition.
  void assert_fresh() const { PPK_ASSERT(!stale_); }

  bool stale_ = false;
};

/// Stability = counts match a fixed target pattern over state equivalence
/// classes.  The pattern must characterize stability exactly (both necessary
/// and sufficient); protocol-specific factories (see core/invariants.hpp)
/// construct it from theory.
class CountPatternOracle final : public StabilityOracle {
 public:
  /// `state_class[s]` maps state s to its equivalence class;
  /// `target[c]` is the required number of agents across class c.
  CountPatternOracle(std::vector<std::uint16_t> state_class,
                     std::vector<std::uint32_t> target)
      : state_class_(std::move(state_class)), target_(std::move(target)) {
    for (auto c : state_class_) PPK_EXPECTS(c < target_.size());
    current_.assign(target_.size(), 0);
    target_total_ = 0;
    for (auto t : target_) target_total_ += t;
  }

  void reset(const Counts& counts) override {
    PPK_EXPECTS(counts.size() == state_class_.size());
    // The target pattern is built for one fixed population size; resetting
    // from a configuration of a different size means the caller holds a
    // stale oracle (e.g. after churn) and would never observe stability.
    std::uint64_t total = 0;
    for (auto c : counts) total += c;
    PPK_EXPECTS(total == target_total_);
    current_.assign(target_.size(), 0);
    for (StateId s = 0; s < counts.size(); ++s) {
      current_[state_class_[s]] += counts[s];
    }
    mismatch_ = 0;
    for (std::size_t c = 0; c < target_.size(); ++c) {
      if (current_[c] != target_[c]) ++mismatch_;
    }
    stale_ = false;
  }

  void on_transition(StateId p, StateId q, StateId p_next,
                     StateId q_next) override {
    const std::uint16_t cp = state_class_[p];
    const std::uint16_t cq = state_class_[q];
    const std::uint16_t cp_next = state_class_[p_next];
    const std::uint16_t cq_next = state_class_[q_next];
    // The same class multiset before and after moves no class count, so
    // no verdict can change (flips inside a merged class, swaps).
    if ((cp == cp_next && cq == cq_next) || (cp == cq_next && cq == cp_next)) {
      return;
    }
    bump(cp, -1);
    bump(cq, -1);
    bump(cp_next, +1);
    bump(cq_next, +1);
  }

  [[nodiscard]] bool stable() const override {
    assert_fresh();  // churn invalidates the fixed target pattern
    return mismatch_ == 0;
  }

 private:
  void bump(std::uint16_t cls, int delta) {
    const bool was_ok = current_[cls] == target_[cls];
    current_[cls] = static_cast<std::uint32_t>(
        static_cast<std::int64_t>(current_[cls]) + delta);
    const bool now_ok = current_[cls] == target_[cls];
    if (was_ok && !now_ok) ++mismatch_;
    if (!was_ok && now_ok) --mismatch_;
  }

  std::vector<std::uint16_t> state_class_;
  std::vector<std::uint32_t> target_;
  std::vector<std::uint32_t> current_;
  std::uint64_t target_total_ = 0;
  std::uint32_t mismatch_ = 0;
};

/// Stability = silence: no ordered pair of *present* states has an effective
/// transition.  Recomputed lazily after count changes; cost is
/// O(present^2) per effective interaction, fine for the small state spaces
/// here (|Q| <= a few dozen for every silent protocol in the repo).
class SilenceOracle final : public StabilityOracle {
 public:
  /// Builds the oracle over `table`'s effective-pair structure; the table
  /// must outlive the oracle.  Call reset() before the first query.
  explicit SilenceOracle(const TransitionTable& table) : table_(&table) {}

  void reset(const Counts& counts) override {
    counts_ = counts;
    stale_ = false;
    recompute();
  }

  void on_transition(StateId p, StateId q, StateId p_next,
                     StateId q_next) override {
    --counts_[p];
    --counts_[q];
    ++counts_[p_next];
    ++counts_[q_next];
    recompute();
  }

  /// Silence is a property of the current counts alone, so churn does not
  /// invalidate this oracle: rebuild from the new configuration.
  void on_external_change(const Counts& counts) override { reset(counts); }

  [[nodiscard]] bool stable() const override { return silent_; }

 private:
  void recompute() {
    present_.clear();
    for (StateId s = 0; s < counts_.size(); ++s) {
      if (counts_[s] > 0) present_.push_back(s);
    }
    silent_ = true;
    for (StateId p : present_) {
      for (StateId q : present_) {
        if (p == q && counts_[p] < 2) continue;
        if (table_->effective(p, q)) {
          silent_ = false;
          return;
        }
      }
    }
  }

  const TransitionTable* table_;
  Counts counts_;
  std::vector<StateId> present_;
  bool silent_ = false;
};

/// Never stops: used to run for a fixed interaction budget.
class NeverStableOracle final : public StabilityOracle {
 public:
  void reset(const Counts&) override {}
  void on_transition(StateId, StateId, StateId, StateId) override {}
  void on_external_change(const Counts&) override {}  // population-independent
  [[nodiscard]] bool stable() const override { return false; }
};

/// Heuristic quiescence detection for protocols with neither a known
/// stable pattern nor eventual silence: reports "stable" once the output
/// (group-size vector) has not changed for `window` *effective*
/// interactions.
///
/// This is NOT a sound stability check -- a long lull is not a proof, and
/// the window trades false positives against detection delay -- but it is
/// the standard practical stopping rule for exploratory simulation, and
/// having it in the library (clearly labeled) beats every caller
/// reinventing it.  Use CountPatternOracle or SilenceOracle whenever the
/// protocol admits one.
class QuiescenceOracle final : public StabilityOracle {
 public:
  /// `group_of[s]` maps each state to its output group.
  QuiescenceOracle(std::vector<GroupId> group_of, std::uint64_t window)
      : group_of_(std::move(group_of)), window_(window) {
    PPK_EXPECTS(window >= 1);
  }

  void reset(const Counts& counts) override {
    PPK_EXPECTS(counts.size() == group_of_.size());
    GroupId num_groups = 0;
    for (auto g : group_of_) {
      num_groups = std::max(num_groups, static_cast<GroupId>(g + 1));
    }
    sizes_.assign(num_groups, 0);
    for (StateId s = 0; s < counts.size(); ++s) {
      sizes_[group_of_[s]] += counts[s];
    }
    unchanged_ = 0;
    stale_ = false;
  }

  /// Churn restarts the quiescence window: the output vector just changed
  /// by fiat, so the lull observed so far is no longer evidence.
  void on_external_change(const Counts& counts) override { reset(counts); }

  /// Batch semantics: the window counts *effective* interactions whose
  /// output vector stayed put.  If the group sizes at the batch's endpoints
  /// match, all of the batch's effective interactions are credited to the
  /// window (an intra-batch wiggle that cancelled out is invisible --
  /// acceptable for a heuristic stopping rule, and the engines keep batches
  /// far smaller than any sensible window).  If the endpoints differ, the
  /// window restarts: a conservative choice (the last movement may have
  /// happened early in the batch), which can only delay the stop, never
  /// fabricate one.
  void on_batch(const Counts& counts, std::uint64_t interactions,
                std::uint64_t effective) override {
    (void)interactions;
    PPK_EXPECTS(counts.size() == group_of_.size());
    bool moved = false;
    std::vector<std::uint32_t> sizes(sizes_.size(), 0);
    for (StateId s = 0; s < counts.size(); ++s) {
      sizes[group_of_[s]] += counts[s];
    }
    if (sizes != sizes_) {
      sizes_ = std::move(sizes);
      moved = true;
    }
    if (moved) {
      unchanged_ = 0;
    } else {
      unchanged_ += effective;
    }
  }

  void on_transition(StateId p, StateId q, StateId p_next,
                     StateId q_next) override {
    const bool moved = group_of_[p] != group_of_[p_next] ||
                       group_of_[q] != group_of_[q_next];
    if (!moved) {
      ++unchanged_;
      return;
    }
    --sizes_[group_of_[p]];
    --sizes_[group_of_[q]];
    ++sizes_[group_of_[p_next]];
    ++sizes_[group_of_[q_next]];
    unchanged_ = 0;
  }

  [[nodiscard]] bool stable() const override {
    return unchanged_ >= window_;
  }

  /// The lull counter is history a reset cannot reconstruct, so it is the
  /// one piece of oracle state engine snapshots must carry.
  [[nodiscard]] std::vector<std::uint64_t> save_state() const override {
    return {unchanged_};
  }

  /// Restores a save_state() payload (after reset() from the snapshotted
  /// counts, which rebuilds the group-size vector).
  void restore_state(const std::vector<std::uint64_t>& state) override {
    PPK_EXPECTS(state.size() == 1);
    unchanged_ = state[0];
  }

  /// The output vector being watched for quiescence: current agents per
  /// group under the `group_of` map given at construction.
  [[nodiscard]] const std::vector<std::uint32_t>& group_sizes()
      const noexcept {
    return sizes_;
  }

 private:
  std::vector<GroupId> group_of_;
  std::uint64_t window_;
  std::vector<std::uint32_t> sizes_;
  std::uint64_t unchanged_ = 0;
};

/// Builds a QuiescenceOracle from a protocol's output map.
inline QuiescenceOracle make_quiescence_oracle(const Protocol& protocol,
                                               std::uint64_t window) {
  std::vector<GroupId> group_of(protocol.num_states());
  for (StateId s = 0; s < protocol.num_states(); ++s) {
    group_of[s] = protocol.group(s);
  }
  return QuiescenceOracle(std::move(group_of), window);
}

}  // namespace ppk::pp
