#include "verify/markov.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>
#include <utility>

#include "pp/symmetry.hpp"
#include "util/assert.hpp"

namespace ppk::verify {

namespace {

// Largest linear system we are willing to eliminate densely.  O(size^3)
// work: 3000 unknowns ~ a few seconds, which matches the small-(n, k)
// regime the dense back end is documented for.  Exceeding it throws (the
// lumped back end has no such cap).
constexpr std::size_t kMaxDenseSystem = 3000;

/// Solves A x = b in place by Gaussian elimination with partial pivoting.
/// Returns nullopt if a pivot is negligible *relative to the matrix scale*
/// (the system is numerically singular) instead of dividing by noise or
/// aborting: near-absorbing chains produce legitimately tiny entries, and
/// only the relative test distinguishes "ill-conditioned but solvable"
/// from "rank-deficient".
std::optional<std::vector<double>> solve_dense(
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

[[noreturn]] void throw_dense_cap(std::size_t unknowns) {
  throw std::runtime_error(
      "markov: dense linear system has " + std::to_string(unknowns) +
      " unknowns, exceeding the dense cap of " +
      std::to_string(kMaxDenseSystem) +
      "; declare a protocol symmetry to route through the lumped solver");
}

[[noreturn]] void throw_singular() {
  throw std::runtime_error(
      "markov: dense elimination hit a numerically singular pivot");
}

/// Exact integer out-rate row of a raw configuration: per-target
/// numerators over n*(n-1), accumulated in integers so the assembled
/// matrix entries are each a single rounding away from the rational truth
/// (the old per-edge double accumulation drifted on near-absorbing chains
/// and then had to clamp a negative self-loop mass).
struct DenseRow {
  std::map<std::uint32_t, std::uint64_t> rates;  // target config -> numerator
  std::uint64_t self = 0;  // nulls + transitions reproducing the config
};

DenseRow dense_row(const ConfigGraph& graph, std::uint32_t c,
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

}  // namespace

std::optional<MarkovAnalysis> MarkovAnalysis::try_create(
    const pp::TransitionTable& table, const pp::Counts& initial,
    MarkovOptions options, std::string* why) {
  const auto fail = [&](std::string reason) -> std::optional<MarkovAnalysis> {
    if (why != nullptr) *why = std::move(reason);
    return std::nullopt;
  };

  if (initial.size() != table.num_states()) {
    return fail("markov: initial configuration has " +
                std::to_string(initial.size()) + " state counts, table has " +
                std::to_string(table.num_states()));
  }
  MarkovAnalysis out;
  for (const std::uint32_t c : initial) out.n_ += c;
  if (out.n_ < 2) return fail("markov: population size must be >= 2");

  const bool want_lumped =
      options.method == MarkovMethod::kLumped ||
      (options.method == MarkovMethod::kAuto && options.symmetry.has_value());
  std::string lumped_why;
  if (want_lumped) {
    const pp::SymmetrySpec spec = options.symmetry.has_value()
                                      ? *options.symmetry
                                      : pp::trivial_symmetry(table.num_states());
    auto lumped = LumpedMarkovAnalysis::try_build(table, spec, initial,
                                                  options.lumped, &lumped_why);
    if (lumped.has_value()) {
      out.lumped_ = std::move(lumped);
      out.method_ = MarkovMethod::kLumped;
      return out;
    }
    if (options.method == MarkovMethod::kLumped) return fail(lumped_why);
  }

  ConfigGraph graph(table, initial, options.explore);
  if (!graph.complete()) {
    std::string reason =
        "markov: configuration-space exploration exceeded max_configs (" +
        std::to_string(options.explore.max_configs) + ")";
    if (!lumped_why.empty()) reason += "; lumped fallback: " + lumped_why;
    return fail(std::move(reason));
  }
  out.graph_ = std::move(graph);
  out.method_ = MarkovMethod::kDense;
  return out;
}

MarkovAnalysis::MarkovAnalysis(const pp::TransitionTable& table,
                               const pp::Counts& initial,
                               MarkovOptions options) {
  std::string why;
  auto built = try_create(table, initial, std::move(options), &why);
  if (!built.has_value()) throw std::runtime_error(why);
  *this = std::move(*built);
}

std::uint64_t MarkovAnalysis::reachable_configs() const noexcept {
  return method_ == MarkovMethod::kLumped
             ? lumped_->raw_config_count()
             : static_cast<std::uint64_t>(graph_->num_configs());
}

const ConfigGraph& MarkovAnalysis::graph() const {
  PPK_EXPECTS(graph_.has_value());
  return *graph_;
}

const LumpedMarkovAnalysis& MarkovAnalysis::lumped() const {
  PPK_EXPECTS(lumped_.has_value());
  return *lumped_;
}

std::optional<double> MarkovAnalysis::expected_hitting_time(
    const ConfigPredicate& target, util::SolveCertificate* certificate) const {
  if (method_ == MarkovMethod::kLumped) {
    return lumped_->expected_hitting_time(target, certificate);
  }
  if (certificate != nullptr) *certificate = {.converged = true};

  const ConfigGraph& graph = *graph_;
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

std::vector<MarkovAnalysis::Absorption>
MarkovAnalysis::absorption_probabilities(
    util::SolveCertificate* certificate) const {
  if (method_ == MarkovMethod::kLumped) {
    std::vector<Absorption> result;
    for (auto& a : lumped_->absorption_probabilities(certificate)) {
      result.push_back(
          Absorption{a.scc, std::move(a.representative), a.probability});
    }
    return result;
  }

  if (certificate != nullptr) *certificate = {.converged = true};
  const ConfigGraph& graph = *graph_;
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

}  // namespace ppk::verify
