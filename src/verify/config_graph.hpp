// Exhaustive exploration of the reachable configuration space.
//
// A configuration of n anonymous agents is fully described by its state
// count vector, so the reachable space is explored over count vectors (a
// massive reduction versus per-agent states: configurations are multisets).
// The graph's edges carry the ordered state pair whose rule produced them,
// which the global-fairness verifier needs to decide output preservation.
//
// Intended for small (n, k): the space is at most C(n+|Q|-1, |Q|-1) but the
// *reachable* subset is far smaller; exploration aborts cleanly at
// max_configs rather than exhausting memory.  SCCs come from the shared
// condensation in verify/scc.hpp.

#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "pp/population.hpp"
#include "pp/transition_table.hpp"
#include "verify/scc.hpp"

namespace ppk::verify {

struct Edge {
  std::uint32_t target;  // index of the successor configuration
  pp::StateId p, q;      // the ordered state pair whose rule was applied
};

/// Exploration limits.
struct ExploreOptions {
  std::size_t max_configs = 5'000'000;
};

class ConfigGraph {
 public:
  using Options = ExploreOptions;

  /// Explores everything reachable from `initial` under `table`.
  ConfigGraph(const pp::TransitionTable& table, const pp::Counts& initial,
              Options options = {});

  /// False iff exploration hit max_configs (results are then partial and
  /// must not be used for verification).
  [[nodiscard]] bool complete() const noexcept { return complete_; }

  [[nodiscard]] std::size_t num_configs() const noexcept {
    return configs_.size();
  }

  [[nodiscard]] const pp::Counts& config(std::size_t index) const {
    return configs_[index];
  }

  /// Outgoing effective-transition edges of a configuration.
  [[nodiscard]] const std::vector<Edge>& edges(std::size_t index) const {
    return edges_[index];
  }

  /// The SCC condensation (verify/scc.hpp).  Its bottom SCCs are exactly
  /// the sets in which globally fair executions are eventually trapped.
  /// Empty unless complete().
  [[nodiscard]] const Condensation& sccs() const noexcept { return sccs_; }

 private:
  void explore(const pp::TransitionTable& table, const pp::Counts& initial,
               const Options& options);

  std::vector<pp::Counts> configs_;
  std::vector<std::vector<Edge>> edges_;
  Condensation sccs_;
  bool complete_ = true;
};

}  // namespace ppk::verify
