// Dense-elimination reference for the exact Markov analysis.
//
// verify::MarkovAnalysis answers through one solver: the symmetry-lumped
// chain and its residual-certified sparse Gauss-Seidel
// (verify/lumped_markov.hpp).  This header keeps the independent oracle it
// is checked against: the raw reachable configuration graph
// (config_graph_reference.hpp) with its linear systems assembled from exact
// integer rate numerators and solved by dense Gaussian elimination with
// partial pivoting.  It shares nothing with the lumped path but the
// transition table -- no orbits, no sparse storage, no iterative sweeps --
// so agreement between the two is evidence for both.
//
// O(m^3) work and O(m^2) memory in the number of unknowns m, so it refuses
// systems above kMaxDenseSystem = 3000 unknowns by throwing
// std::runtime_error.  The tests and bench/exact_vs_monte_carlo use it;
// the library does not.

#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "pp/population.hpp"
#include "pp/transition_table.hpp"
#include "util/assert.hpp"
#include "config_graph_reference.hpp"

namespace ppk::verify {

class DenseMarkovReference {
 public:
  /// Largest linear system eliminated densely.  O(size^3) work: 3000
  /// unknowns take a few seconds.  Exceeding it throws.
  static constexpr std::size_t kMaxDenseSystem = 3000;

  /// One bottom SCC of the raw chain and the probability of being
  /// absorbed into it.
  struct Absorption {
    /// SCC id of the raw configuration graph.
    std::uint32_t scc;
    /// The SCC's smallest member configuration.
    pp::Counts representative;
    /// Probability of ending in this SCC; probabilities sum to 1.
    double probability;
  };

  /// Explores the raw chain reachable from `initial` under `table`.
  /// Throws std::runtime_error if exploration exceeds `explore`'s limit
  /// and std::invalid_argument if the population is below 2.
  DenseMarkovReference(const pp::TransitionTable& table,
                       const pp::Counts& initial, ExploreOptions explore = {})
      : graph_(table, initial, explore) {
    for (const std::uint32_t c : initial) n_ += c;
    if (n_ < 2) {
      throw std::invalid_argument("dense reference: population size < 2");
    }
    if (!graph_.complete()) {
      throw std::runtime_error(
          "dense reference: configuration-space exploration exceeded "
          "max_configs (" +
          std::to_string(explore.max_configs) + ")");
    }
  }

  /// The raw configuration graph (configuration 0 is the initial one).
  [[nodiscard]] const ConfigGraph& graph() const noexcept { return graph_; }

  /// Number of reachable configurations.
  [[nodiscard]] std::uint64_t reachable_configs() const noexcept {
    return graph_.num_configs();
  }

  /// Exact expected number of interactions (including nulls) until
  /// `target` is entered; nullopt if it is not reached with probability
  /// 1.  Throws std::runtime_error past kMaxDenseSystem unknowns or on a
  /// numerically singular pivot.
  [[nodiscard]] std::optional<double> expected_hitting_time(
      const std::function<bool(const pp::Counts&)>& target) const {
    const ConfigGraph& graph = graph_;
    const std::size_t num_configs = graph.num_configs();
    const std::uint64_t denom = n_ * (n_ - 1);

    std::vector<char> is_target(num_configs, 0);
    for (std::size_t c = 0; c < num_configs; ++c) {
      is_target[c] = target(graph.config(c)) ? 1 : 0;
    }
    if (is_target[0]) return 0.0;  // config 0 is the initial configuration

    // The target is hit with probability 1 iff every bottom SCC contains a
    // target configuration (fair executions are absorbed into bottom SCCs
    // and then visit all of their configurations).
    const Condensation& sccs = graph.sccs();
    std::vector<char> scc_has_target(sccs.size(), 0);
    for (std::size_t c = 0; c < num_configs; ++c) {
      if (is_target[c]) scc_has_target[sccs.of[c]] = 1;
    }
    for (std::uint32_t scc = 0; scc < sccs.size(); ++scc) {
      if (sccs.bottom[scc] && !scc_has_target[scc]) {
        return std::nullopt;  // positive probability of never hitting
      }
    }

    // Unknowns: non-target configurations.
    std::vector<std::uint32_t> unknown_index(num_configs, UINT32_MAX);
    std::vector<std::uint32_t> unknown_configs;
    for (std::uint32_t c = 0; c < num_configs; ++c) {
      if (!is_target[c]) {
        unknown_index[c] = static_cast<std::uint32_t>(unknown_configs.size());
        unknown_configs.push_back(c);
      }
    }
    const std::size_t m = unknown_configs.size();
    if (m > kMaxDenseSystem) throw_dense_cap(m);
    if (m == 0) return 0.0;

    // (I - Q) E = 1, where Q is the sub-stochastic transition matrix
    // restricted to non-target configurations.  Rows are assembled from
    // exact integer numerators over n*(n-1).
    std::vector<std::vector<double>> a(m, std::vector<double>(m, 0.0));
    std::vector<double> b(m, 1.0);
    const auto d = static_cast<double>(denom);
    for (std::size_t row = 0; row < m; ++row) {
      const DenseRow rates = dense_row(graph, unknown_configs[row], denom);
      a[row][row] = static_cast<double>(denom - rates.self) / d;
      for (const auto& [target_config, numerator] : rates.rates) {
        if (is_target[target_config]) continue;  // E = 0 there
        a[row][unknown_index[target_config]] -=
            static_cast<double>(numerator) / d;
      }
    }
    const auto expectation = solve_dense(a, b);
    if (!expectation.has_value()) throw_singular();
    return (*expectation)[unknown_index[0]];
  }

  /// Probability, from the initial configuration, of eventually being
  /// absorbed in each bottom SCC.  A lone bottom SCC gets exactly 1.0
  /// without elimination; otherwise throws under the same conditions as
  /// expected_hitting_time().
  [[nodiscard]] std::vector<Absorption> absorption_probabilities() const {
    const ConfigGraph& graph = graph_;
    const std::size_t num_configs = graph.num_configs();
    const std::uint64_t denom = n_ * (n_ - 1);

    // Each bottom SCC is represented by its smallest member.
    const Condensation& sccs = graph.sccs();
    const std::vector<std::uint32_t> bottoms = sccs.bottoms();
    const auto representative = [&](std::uint32_t scc) {
      return graph.config(sccs.members(scc).front());
    };

    // A finite chain ends in some bottom SCC with probability 1, so a lone
    // one takes all the mass -- exactly, with no elimination.  (This covers
    // an initial configuration that is already bottom: every configuration
    // is reachable from it, so its SCC is the only one.)
    if (bottoms.size() == 1) {
      return {Absorption{bottoms[0], representative(bottoms[0]), 1.0}};
    }

    // Transient = not in a bottom SCC.
    std::vector<std::uint32_t> unknown_index(num_configs, UINT32_MAX);
    std::vector<std::uint32_t> unknown_configs;
    for (std::uint32_t c = 0; c < num_configs; ++c) {
      if (!sccs.bottom[sccs.of[c]]) {
        unknown_index[c] = static_cast<std::uint32_t>(unknown_configs.size());
        unknown_configs.push_back(c);
      }
    }
    const std::size_t m = unknown_configs.size();
    if (m > kMaxDenseSystem) throw_dense_cap(m);

    std::vector<Absorption> result;
    const auto d = static_cast<double>(denom);
    for (std::uint32_t scc : bottoms) {
      // Solve (I - Q) x = r, where r[c] = P(one step from c into this SCC).
      std::vector<std::vector<double>> a(m, std::vector<double>(m, 0.0));
      std::vector<double> b(m, 0.0);
      for (std::size_t row = 0; row < m; ++row) {
        const DenseRow rates = dense_row(graph, unknown_configs[row], denom);
        a[row][row] = static_cast<double>(denom - rates.self) / d;
        for (const auto& [target_config, numerator] : rates.rates) {
          if (unknown_index[target_config] != UINT32_MAX) {
            a[row][unknown_index[target_config]] -=
                static_cast<double>(numerator) / d;
          } else if (sccs.of[target_config] == scc) {
            b[row] += static_cast<double>(numerator) / d;
          }
        }
      }
      const auto x = solve_dense(a, b);
      if (!x.has_value()) throw_singular();
      result.push_back(
          Absorption{scc, representative(scc), (*x)[unknown_index[0]]});
    }
    return result;
  }

 private:
  /// Solves A x = b in place by Gaussian elimination with partial
  /// pivoting.  Returns nullopt if a pivot is negligible *relative to the
  /// matrix scale* (the system is numerically singular) instead of
  /// dividing by noise: near-absorbing chains produce legitimately tiny
  /// entries, and only the relative test distinguishes "ill-conditioned
  /// but solvable" from "rank-deficient".
  static std::optional<std::vector<double>> solve_dense(
      std::vector<std::vector<double>>& a, std::vector<double>& b) {
    const std::size_t m = b.size();
    double scale = 0.0;
    for (const auto& row : a) {
      for (const double v : row) scale = std::max(scale, std::abs(v));
    }
    if (scale == 0.0) scale = 1.0;
    for (std::size_t col = 0; col < m; ++col) {
      // Pivot.
      std::size_t pivot = col;
      for (std::size_t row = col + 1; row < m; ++row) {
        if (std::abs(a[row][col]) > std::abs(a[pivot][col])) pivot = row;
      }
      if (std::abs(a[pivot][col]) <= 1e-12 * scale) return std::nullopt;
      std::swap(a[col], a[pivot]);
      std::swap(b[col], b[pivot]);
      // Eliminate below.
      for (std::size_t row = col + 1; row < m; ++row) {
        const double factor = a[row][col] / a[col][col];
        if (factor == 0.0) continue;
        for (std::size_t j = col; j < m; ++j) a[row][j] -= factor * a[col][j];
        b[row] -= factor * b[col];
      }
    }
    // Back-substitute.
    std::vector<double> x(m, 0.0);
    for (std::size_t row = m; row-- > 0;) {
      double acc = b[row];
      for (std::size_t j = row + 1; j < m; ++j) acc -= a[row][j] * x[j];
      x[row] = acc / a[row][row];
    }
    return x;
  }

  [[noreturn]] static void throw_dense_cap(std::size_t unknowns) {
    throw std::runtime_error(
        "dense reference: linear system has " + std::to_string(unknowns) +
        " unknowns, exceeding the dense cap of " +
        std::to_string(kMaxDenseSystem));
  }

  [[noreturn]] static void throw_singular() {
    throw std::runtime_error(
        "dense reference: elimination hit a numerically singular pivot");
  }

  /// Exact integer out-rate row of a raw configuration: per-target
  /// numerators over n*(n-1), accumulated in integers so the assembled
  /// matrix entries are each a single rounding away from the rational
  /// truth.
  struct DenseRow {
    std::map<std::uint32_t, std::uint64_t> rates;  // target -> numerator
    std::uint64_t self = 0;  // nulls + transitions reproducing the config
  };

  static DenseRow dense_row(const ConfigGraph& graph, std::uint32_t c,
                            std::uint64_t denom) {
    DenseRow row;
    const pp::Counts& config = graph.config(c);
    std::uint64_t effective = 0;
    for (const Edge& e : graph.edges(c)) {
      const std::uint64_t numerator =
          std::uint64_t{config[e.p]} *
          (config[e.q] - (e.p == e.q ? 1u : 0u));
      effective += numerator;
      if (e.target == c) {
        row.self += numerator;
      } else {
        row.rates[e.target] += numerator;
      }
    }
    PPK_ASSERT(effective <= denom);
    row.self += denom - effective;  // null-interaction mass
    return row;
  }

  ConfigGraph graph_;
  std::uint64_t n_ = 0;
};

}  // namespace ppk::verify
