// A configuration of a population: the per-agent state array together with
// the (redundant but always consistent) state-count vector.
//
// The agent array is the ground truth -- it is exactly the paper's model of
// n distinguishable-but-anonymous agents -- and the counts are maintained
// incrementally so predicates over the configuration (stability patterns,
// invariants) are O(1) per interaction instead of O(n).

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "pp/protocol.hpp"
#include "util/assert.hpp"

namespace ppk::pp {

/// State-count vector: counts[s] = number of agents currently in state s.
using Counts = std::vector<std::uint32_t>;

/// FNV-1a over the raw count words, for hash maps keyed by Counts.
struct CountsHash {
  std::size_t operator()(const Counts& counts) const noexcept {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::uint32_t c : counts) {
      h ^= c;
      h *= 0x100000001b3ULL;
    }
    return static_cast<std::size_t>(h);
  }
};

class Population {
 public:
  /// All n agents start in `initial`, the designated initial state.
  Population(std::uint32_t n, StateId num_states, StateId initial)
      : states_(n, initial), counts_(num_states, 0) {
    PPK_EXPECTS(n >= 2);
    PPK_EXPECTS(initial < num_states);
    counts_[initial] = n;
  }

  /// Starts from an explicit initial count vector (e.g. majority inputs).
  /// Agents with lower indices receive the lower-numbered states.
  Population(const Counts& initial_counts) : counts_(initial_counts) {
    std::uint64_t n = 0;
    for (auto c : initial_counts) n += c;
    PPK_EXPECTS(n >= 2);
    states_.reserve(n);
    for (StateId s = 0; s < initial_counts.size(); ++s) {
      states_.insert(states_.end(), initial_counts[s], s);
    }
  }

  [[nodiscard]] std::uint32_t size() const noexcept {
    return static_cast<std::uint32_t>(states_.size());
  }

  [[nodiscard]] StateId state_of(std::uint32_t agent) const noexcept {
    return states_[agent];
  }

  [[nodiscard]] const Counts& counts() const noexcept { return counts_; }

  [[nodiscard]] const std::vector<StateId>& states() const noexcept {
    return states_;
  }

  /// Applies one interaction outcome to agents i (initiator) and j
  /// (responder).  Keeps counts consistent.
  void apply(std::uint32_t i, std::uint32_t j, const Transition& t) noexcept {
    const StateId pi = states_[i];
    const StateId pj = states_[j];
    states_[i] = t.initiator;
    states_[j] = t.responder;
    --counts_[pi];
    --counts_[pj];
    ++counts_[t.initiator];
    ++counts_[t.responder];
  }

  /// Adds one agent in state `s` (churn: join).  Returns the new agent's
  /// index, which is always the current highest.
  std::uint32_t add_agent(StateId s) {
    PPK_EXPECTS(s < counts_.size());
    states_.push_back(s);
    ++counts_[s];
    return static_cast<std::uint32_t>(states_.size() - 1);
  }

  /// Removes an agent (churn: crash) by swapping the last agent into its
  /// slot, and returns the departed agent's state.  Callers tracking
  /// per-agent metadata must mirror the swap.  Pair sampling needs at least
  /// two agents, so the population may not shrink below that.
  StateId remove_agent(std::uint32_t agent) {
    PPK_EXPECTS(states_.size() > 2);
    PPK_EXPECTS(agent < states_.size());
    const StateId s = states_[agent];
    states_[agent] = states_.back();
    states_.pop_back();
    --counts_[s];
    return s;
  }

  /// Overwrites a single agent's state (used by examples that seed custom
  /// configurations).
  void set_state(std::uint32_t agent, StateId s) {
    PPK_EXPECTS(agent < states_.size());
    PPK_EXPECTS(s < counts_.size());
    --counts_[states_[agent]];
    states_[agent] = s;
    ++counts_[s];
  }

  /// Replaces the whole configuration with an explicit per-agent state
  /// array (snapshot restore).  Unlike the Counts constructor, which orders
  /// agents low-state-first, this preserves the given agent order -- churn
  /// swap-removals and graph engines make the order significant.  The
  /// state-count vector keeps its current length; every restored state must
  /// fit it.
  void restore_states(std::vector<StateId> states) {
    PPK_EXPECTS(states.size() >= 2);
    Counts counts(counts_.size(), 0);
    for (const StateId s : states) {
      PPK_EXPECTS(s < counts.size());
      ++counts[s];
    }
    states_ = std::move(states);
    counts_ = std::move(counts);
  }

  /// Group-size vector under a protocol's output map.
  [[nodiscard]] std::vector<std::uint32_t> group_sizes(
      const Protocol& protocol) const {
    std::vector<std::uint32_t> sizes(protocol.num_groups(), 0);
    for (StateId s = 0; s < counts_.size(); ++s) {
      if (counts_[s] > 0) sizes[protocol.group(s)] += counts_[s];
    }
    return sizes;
  }

 private:
  std::vector<StateId> states_;
  Counts counts_;
};

/// True iff all entries of `sizes` differ pairwise by at most one -- the
/// uniformity condition of the k-partition problem.
inline bool is_uniform_partition(const std::vector<std::uint32_t>& sizes) {
  if (sizes.empty()) return true;
  std::uint32_t lo = sizes[0];
  std::uint32_t hi = sizes[0];
  for (auto v : sizes) {
    if (v < lo) lo = v;
    if (v > hi) hi = v;
  }
  return hi - lo <= 1;
}

}  // namespace ppk::pp
