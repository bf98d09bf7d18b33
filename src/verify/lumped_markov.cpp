#include "verify/lumped_markov.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "pp/symmetry.hpp"
#include "util/assert.hpp"

namespace ppk::verify {

namespace {

/// Lex-min image of `counts` under the (identity-first) group.
pp::Counts canonicalize(const std::vector<std::vector<pp::StateId>>& group,
                        const pp::Counts& counts) {
  pp::Counts best = counts;
  for (std::size_t g = 1; g < group.size(); ++g) {
    pp::Counts image = pp::permute_counts(group[g], counts);
    if (image < best) best = std::move(image);
  }
  return best;
}

/// The exact out-rate row of one raw configuration, with every target
/// already canonicalized: (canonical successor -> integer numerator over
/// n*(n-1)), plus the null-interaction numerator.  Keyed by Counts so two
/// rows are comparable before orbit indices exist -- the lumpability
/// certificate compares the row of a representative against the rows of
/// its group images with exact integer equality.
struct RawRow {
  std::map<pp::Counts, std::uint64_t> rates;
  std::uint64_t stay = 0;
};

RawRow raw_row(const pp::TransitionTable& table,
               const std::vector<std::vector<pp::StateId>>& group,
               const pp::Counts& config, std::uint64_t denom) {
  RawRow row;
  const pp::StateId num_states = table.num_states();
  std::uint64_t effective = 0;
  for (pp::StateId p = 0; p < num_states; ++p) {
    if (config[p] == 0) continue;
    for (pp::StateId q = 0; q < num_states; ++q) {
      if (config[q] == 0) continue;
      if (p == q && config[p] < 2) continue;
      if (!table.effective(p, q)) continue;
      const std::uint64_t numerator =
          std::uint64_t{config[p]} * (config[q] - (p == q ? 1u : 0u));
      const pp::Transition& t = table.apply(p, q);
      pp::Counts next = config;
      --next[p];
      --next[q];
      ++next[t.initiator];
      ++next[t.responder];
      row.rates[canonicalize(group, next)] += numerator;
      effective += numerator;
    }
  }
  PPK_ASSERT(effective <= denom);
  row.stay = denom - effective;
  return row;
}

/// The error of a solve whose certificate did not hold.
[[noreturn]] void throw_uncertified(const util::SolveCertificate& cert,
                                    const std::string& what) {
  throw std::runtime_error(
      "lumped: sparse solve failed to certify convergence" + what +
      " (residual " + std::to_string(cert.residual) + " > bound " +
      std::to_string(cert.residual_bound) + " after " +
      std::to_string(cert.sweeps) + " sweeps in " +
      std::to_string(cert.blocks) + " blocks)");
}

}  // namespace

std::optional<LumpedMarkovAnalysis> LumpedMarkovAnalysis::try_build(
    const pp::TransitionTable& table, const pp::SymmetrySpec& symmetry,
    const pp::Counts& initial, LumpedOptions options, std::string* why) {
  const auto fail = [&](std::string reason) -> std::optional<LumpedMarkovAnalysis> {
    if (why != nullptr) *why = std::move(reason);
    return std::nullopt;
  };

  if (initial.size() != table.num_states()) {
    return fail("lumped: initial configuration has " +
                std::to_string(initial.size()) + " state counts, table has " +
                std::to_string(table.num_states()));
  }
  std::uint64_t n = 0;
  for (const std::uint32_t c : initial) n += c;
  if (n < 2) return fail("lumped: population size must be >= 2");

  if (const std::string diag = pp::check_symmetry(table, symmetry);
      !diag.empty()) {
    return fail("lumped: " + diag);
  }
  std::vector<std::vector<pp::StateId>> group =
      pp::expand_symmetry_group(symmetry, options.max_group_order);
  if (group.empty()) {
    return fail("lumped: symmetry group expansion failed (order > " +
                std::to_string(options.max_group_order) +
                " or malformed generator)");
  }

  LumpedMarkovAnalysis out;
  out.n_ = n;
  out.denom_ = n * (n - 1);
  out.group_ = std::move(group);
  out.solver_ = options.solver;

  std::unordered_map<pp::Counts, std::uint32_t, pp::CountsHash> index;
  std::deque<std::uint32_t> frontier;
  auto intern = [&](pp::Counts canonical) -> std::uint32_t {
    auto [it, inserted] = index.try_emplace(
        std::move(canonical), static_cast<std::uint32_t>(out.reps_.size()));
    if (inserted) {
      out.reps_.push_back(it->first);
      out.rows_.emplace_back();
      frontier.push_back(it->second);
    }
    return it->second;
  };

  intern(canonicalize(out.group_, initial));
  while (!frontier.empty()) {
    if (out.reps_.size() > options.max_orbits) {
      return fail("lumped: exploration exceeded max_orbits (" +
                  std::to_string(options.max_orbits) + ")");
    }
    const std::uint32_t current = frontier.front();
    frontier.pop_front();

    // Copy: intern() may grow reps_ while we hold references into it.
    const pp::Counts rep = out.reps_[current];
    const RawRow row = raw_row(table, out.group_, rep, out.denom_);

    if (options.check_lumpability) {
      // The certificate: every raw configuration in the orbit must carry
      // exactly the same canonicalized rate row (integer-for-integer).
      // check_symmetry already implies this; checking it anyway means a
      // wrong declaration can never silently corrupt an exact answer.
      for (std::size_t g = 1; g < out.group_.size(); ++g) {
        const pp::Counts image = pp::permute_counts(out.group_[g], rep);
        if (image == rep) continue;
        const RawRow other = raw_row(table, out.group_, image, out.denom_);
        if (other.rates != row.rates || other.stay != row.stay) {
          return fail(
              "lumped: rate-sum lumpability check failed at orbit " +
              std::to_string(current) + " under group element " +
              std::to_string(g));
        }
      }
    }

    OrbitRow stored;
    stored.stay = row.stay;
    stored.rates.reserve(row.rates.size());
    for (const auto& [target, numerator] : row.rates) {
      stored.rates.emplace_back(intern(target), numerator);
    }
    std::sort(stored.rates.begin(), stored.rates.end());
    out.rows_[current] = std::move(stored);
  }

  out.sizes_.reserve(out.reps_.size());
  for (const pp::Counts& rep : out.reps_) {
    std::set<pp::Counts> images;
    for (const auto& g : out.group_) images.insert(pp::permute_counts(g, rep));
    out.sizes_.push_back(images.size());
    out.raw_config_count_ += images.size();
  }

  out.sccs_ = condense(
      static_cast<std::uint32_t>(out.rows_.size()),
      [&](std::uint32_t u) -> const auto& { return out.rows_[u].rates; },
      [](const auto& rate) { return rate.first; });
  return out;
}

std::vector<char> LumpedMarkovAnalysis::target_orbits(
    const ConfigPredicate& target) const {
  std::vector<char> is_target(reps_.size(), 0);
  for (std::size_t orbit = 0; orbit < reps_.size(); ++orbit) {
    const bool value = target(reps_[orbit]);
    for (std::size_t g = 1; g < group_.size(); ++g) {
      if (target(pp::permute_counts(group_[g], reps_[orbit])) != value) {
        throw std::invalid_argument(
            "lumped: target predicate is not constant on orbit " +
            std::to_string(orbit) + " (not symmetry-invariant)");
      }
    }
    is_target[orbit] = value ? 1 : 0;
  }
  return is_target;
}

std::uint64_t LumpedMarkovAnalysis::self_numerator(std::size_t orbit) const {
  std::uint64_t self = rows_[orbit].stay;
  for (const auto& [target, numerator] : rows_[orbit].rates) {
    if (target == orbit) self += numerator;
  }
  return self;
}

std::optional<double> LumpedMarkovAnalysis::expected_hitting_time(
    const ConfigPredicate& target) const {
  const std::vector<char> is_target = target_orbits(target);
  if (is_target[0]) return 0.0;  // orbit 0 holds the initial configuration

  // Hit with probability 1 iff every bottom SCC contains a target orbit
  // (lumping preserves bottom SCCs: orbits of raw bottom SCCs).
  std::vector<char> scc_has_target(sccs_.size(), 0);
  for (std::size_t orbit = 0; orbit < reps_.size(); ++orbit) {
    if (is_target[orbit]) scc_has_target[sccs_.of[orbit]] = 1;
  }
  for (std::uint32_t scc = 0; scc < sccs_.size(); ++scc) {
    if (sccs_.bottom[scc] && !scc_has_target[scc]) return std::nullopt;
  }

  // Unknowns: non-target orbits in SCC member order (ascending SCC id,
  // ascending orbit within an SCC).  SCC ids are reverse topological, so
  // an orbit's row references only its own SCC and SCCs earlier in the
  // order: the matrix is block-lower-triangular, and solve_sparse solves
  // it one SCC block at a time, absorbing side first, each block with
  // everything downstream of it already final.
  std::vector<std::uint32_t> unknown_index(reps_.size(), UINT32_MAX);
  std::vector<std::uint32_t> unknown_orbits;
  for (const std::uint32_t orbit : sccs_.nodes) {
    if (is_target[orbit]) continue;
    unknown_index[orbit] = static_cast<std::uint32_t>(unknown_orbits.size());
    unknown_orbits.push_back(orbit);
  }
  const auto m = static_cast<std::uint32_t>(unknown_orbits.size());
  if (m == 0) return 0.0;

  // Embedded jump chain: with L = denom - self_numerator (the leave rate),
  // E[orbit] = denom/L + sum_{j != orbit} (w_j / L) E[j].  Nulls and
  // within-orbit transitions both fold into L exactly -- no floating
  // accumulation of per-edge probabilities, so the matrix entries are
  // single exact-integer ratios.
  util::CsrBuilder builder(m, m);
  std::vector<double> b(m, 0.0);
  for (std::uint32_t row = 0; row < m; ++row) {
    const std::uint32_t orbit = unknown_orbits[row];
    const std::uint64_t leave = denom_ - self_numerator(orbit);
    // A zero leave rate would mean an absorbing non-target orbit: its
    // singleton SCC is bottom and target-free, caught above.
    PPK_ASSERT(leave > 0);
    builder.add(row, row, 1.0);
    for (const auto& [target_orbit, numerator] : rows_[orbit].rates) {
      if (target_orbit == orbit || is_target[target_orbit]) continue;
      builder.add(row, unknown_index[target_orbit],
                  -static_cast<double>(numerator) /
                      static_cast<double>(leave));
    }
    b[row] = static_cast<double>(denom_) / static_cast<double>(leave);
  }
  const util::CsrMatrix a = builder.build();
  std::vector<double> x;
  const util::SolveCertificate cert = util::solve_sparse(a, b, x, solver_);
  if (!cert.converged) throw_uncertified(cert, "");
  return x[unknown_index[0]];
}

std::vector<LumpedMarkovAnalysis::Absorption>
LumpedMarkovAnalysis::absorption_probabilities() const {
  // The first orbit of each bottom SCC names the absorption outcome.
  const std::vector<std::uint32_t> bottoms = sccs_.bottoms();
  const auto first_rep = [&](std::uint32_t scc) -> const pp::Counts& {
    return reps_[sccs_.members(scc).front()];
  };

  // A finite chain ends in some bottom SCC with probability 1, so a lone
  // one takes all the mass -- exactly, with no solve.  (This covers an
  // initial orbit that is already bottom: every orbit is reachable from
  // it, so its SCC is the only one.)
  std::vector<Absorption> result;
  if (bottoms.size() == 1) {
    result.push_back(Absorption{bottoms[0], first_rep(bottoms[0]), 1.0});
    return result;
  }

  // Transient = not in a bottom SCC; same SCC member order as
  // expected_hitting_time.
  std::vector<std::uint32_t> unknown_index(reps_.size(), UINT32_MAX);
  std::vector<std::uint32_t> unknown_orbits;
  for (const std::uint32_t orbit : sccs_.nodes) {
    if (sccs_.bottom[sccs_.of[orbit]]) continue;
    unknown_index[orbit] = static_cast<std::uint32_t>(unknown_orbits.size());
    unknown_orbits.push_back(orbit);
  }
  const auto m = static_cast<std::uint32_t>(unknown_orbits.size());

  // One matrix, one rhs per bottom SCC: (I - Q) x = r with
  // r[orbit] = P(jump from orbit directly into the SCC).
  util::CsrBuilder builder(m, m);
  std::vector<std::uint64_t> leaves(m, 0);
  for (std::uint32_t row = 0; row < m; ++row) {
    const std::uint32_t orbit = unknown_orbits[row];
    const std::uint64_t leave = denom_ - self_numerator(orbit);
    PPK_ASSERT(leave > 0);  // transient orbits always have an exit
    leaves[row] = leave;
    builder.add(row, row, 1.0);
    for (const auto& [target_orbit, numerator] : rows_[orbit].rates) {
      if (target_orbit == orbit) continue;
      if (unknown_index[target_orbit] == UINT32_MAX) continue;
      builder.add(row, unknown_index[target_orbit],
                  -static_cast<double>(numerator) /
                      static_cast<double>(leave));
    }
  }
  const util::CsrMatrix a = builder.build();

  for (const std::uint32_t scc : bottoms) {
    std::vector<double> b(m, 0.0);
    for (std::uint32_t row = 0; row < m; ++row) {
      const std::uint32_t orbit = unknown_orbits[row];
      for (const auto& [target_orbit, numerator] : rows_[orbit].rates) {
        if (unknown_index[target_orbit] == UINT32_MAX &&
            sccs_.of[target_orbit] == scc) {
          b[row] += static_cast<double>(numerator) /
                    static_cast<double>(leaves[row]);
        }
      }
    }
    std::vector<double> x;
    const util::SolveCertificate cert = util::solve_sparse(a, b, x, solver_);
    if (!cert.converged) {
      throw_uncertified(cert, " for SCC " + std::to_string(scc));
    }
    result.push_back(Absorption{scc, first_rep(scc), x[unknown_index[0]]});
  }
  return result;
}

std::vector<double> LumpedMarkovAnalysis::hitting_time_cdf(
    const ConfigPredicate& target, std::size_t horizon) const {
  const std::vector<char> is_target = target_orbits(target);

  // Step the full lumped chain (self-loops as stay mass) with target
  // orbits absorbing; F[t] is then exactly the absorbed mass after t
  // interactions.
  std::vector<double> dist(reps_.size(), 0.0);
  dist[0] = 1.0;
  std::vector<double> next(reps_.size(), 0.0);
  std::vector<double> cdf(horizon + 1, 0.0);

  const auto absorbed = [&](const std::vector<double>& d) {
    util::CompensatedSum acc;
    for (std::size_t orbit = 0; orbit < d.size(); ++orbit) {
      if (is_target[orbit]) acc.add(d[orbit]);
    }
    return acc.value();
  };

  cdf[0] = absorbed(dist);
  const auto denom = static_cast<double>(denom_);
  for (std::size_t t = 1; t <= horizon; ++t) {
    std::fill(next.begin(), next.end(), 0.0);
    for (std::size_t orbit = 0; orbit < dist.size(); ++orbit) {
      const double mass = dist[orbit];
      if (mass == 0.0) continue;
      if (is_target[orbit]) {
        next[orbit] += mass;  // absorbing
        continue;
      }
      next[orbit] +=
          mass * (static_cast<double>(self_numerator(orbit)) / denom);
      for (const auto& [target_orbit, numerator] : rows_[orbit].rates) {
        if (target_orbit == orbit) continue;
        next[target_orbit] += mass * (static_cast<double>(numerator) / denom);
      }
    }
    dist.swap(next);
    cdf[t] = absorbed(dist);
  }
  return cdf;
}

}  // namespace ppk::verify
