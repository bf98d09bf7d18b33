// Tests of the symmetry-lumped exact Markov analysis
// (verify/lumped_markov.hpp) and its wiring through MarkovAnalysis:
//
//  * agreement with the dense-elimination reference
//    (tests/dense_markov_reference.hpp) -- the lumped solve must reproduce
//    its hitting times and absorption mass to <= 1e-9 relative error at
//    every size the reference can reach, for the k-partition,
//    weak-k-partition and bipartition families;
//  * rejection of a symmetry declaration that is not one;
//  * the ceiling claim -- for each family, a size where the reference
//    refuses and the lumped path answers;
//  * exact hand-computed pins of the hitting-time CDF;
//  * absorption: exactly 1 for a lone bottom SCC in both, and agreement
//    with the reference across several bottom SCCs;
//  * the benchmark's k = 2, n = 160 answer;
//  * golden digests of the exploration (orbits, sizes, rows via the CDF);
//  * every stored row equal, integer for integer, to a pair-by-pair
//    reference enumeration (the explorer evaluates one successor per net
//    move class instead);
//  * Gauss-Seidel / Jacobi agreement on hitting times and absorption;
//  * the merge classes that form the solver's lines, answers left bit for
//    bit alone where there are none, and the line sweep's work pinned;
//  * recoverable refusal of the sizes the narrowed fields cannot hold, and
//    a bytes-per-orbit bound on the stored arrays.

#include "verify/lumped_markov.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/bipartition.hpp"
#include "core/invariants.hpp"
#include "core/kpartition.hpp"
#include "core/weak_kpartition.hpp"
#include "dense_markov_reference.hpp"
#include "pp/symmetry.hpp"
#include "pp/transition_table.hpp"
#include "rule_list_protocol.hpp"
#include "verify/markov.hpp"

namespace ppk::verify {
namespace {

pp::Counts initial_counts(const pp::Protocol& protocol, std::uint32_t n) {
  pp::Counts counts(protocol.num_states(), 0);
  counts[protocol.initial_state()] = n;
  return counts;
}

/// Silence with respect to `table`: no present ordered pair is effective.
ConfigPredicate silence_predicate(const pp::TransitionTable& table) {
  return [&table](const pp::Counts& counts) {
    for (std::size_t p = 0; p < counts.size(); ++p) {
      if (counts[p] == 0) continue;
      for (std::size_t q = 0; q < counts.size(); ++q) {
        if (counts[q] == 0) continue;
        if (p == q && counts[p] < 2) continue;
        if (table.effective(static_cast<pp::StateId>(p),
                            static_cast<pp::StateId>(q))) {
          return false;
        }
      }
    }
    return true;
  };
}

/// Builds the dense reference and the lumped analysis over the same chain
/// and requires their hitting time and their absorption mass on `target`
/// to agree to 1e-9 relative.
void expect_backends_agree(const pp::Protocol& protocol,
                           const pp::TransitionTable& table, std::uint32_t n,
                           const ConfigPredicate& target,
                           const std::string& label) {
  const pp::Counts initial = initial_counts(protocol, n);

  const DenseMarkovReference dense(table, initial);

  MarkovOptions lumped_options;
  lumped_options.symmetry = protocol.symmetry();
  const MarkovAnalysis lumped(table, initial, std::move(lumped_options));

  const std::optional<double> dense_time = dense.expected_hitting_time(target);
  const std::optional<double> lumped_time =
      lumped.expected_hitting_time(target);
  ASSERT_EQ(dense_time.has_value(), lumped_time.has_value()) << label;
  if (dense_time.has_value()) {
    EXPECT_NEAR(*lumped_time / *dense_time, 1.0, 1e-9)
        << label << ": dense=" << *dense_time << " lumped=" << *lumped_time;
  }

  // Bottom-SCC identities differ between the two (the lumped quotient
  // merges symmetric bottoms), so compare the symmetry-invariant summary:
  // total mass and the mass absorbed on target-satisfying bottoms.
  double dense_total = 0.0;
  double dense_on_target = 0.0;
  for (const auto& a : dense.absorption_probabilities()) {
    dense_total += a.probability;
    if (target(a.representative)) dense_on_target += a.probability;
  }
  double lumped_total = 0.0;
  double lumped_on_target = 0.0;
  for (const auto& a : lumped.absorption_probabilities()) {
    lumped_total += a.probability;
    if (target(a.representative)) lumped_on_target += a.probability;
  }
  EXPECT_NEAR(dense_total, 1.0, 1e-9) << label;
  EXPECT_NEAR(lumped_total, 1.0, 1e-9) << label;
  EXPECT_NEAR(lumped_on_target, dense_on_target, 1e-9) << label;
}

// ---------------------------------------------------------------------------
// Agreement with the dense reference at every size it reaches

TEST(LumpedMarkov, AgreesWithDenseForKPartition) {
  struct Case {
    pp::GroupId k;
    std::uint32_t n;
  };
  for (const Case& c : {Case{2, 4}, Case{2, 6}, Case{2, 9}, Case{3, 6},
                        Case{3, 7}, Case{4, 8}}) {
    const core::KPartitionProtocol protocol(c.k);
    const pp::TransitionTable table(protocol);
    expect_backends_agree(
        protocol, table, c.n,
        [&](const pp::Counts& config) {
          return core::matches_stable_pattern(protocol, c.n, config);
        },
        "kpartition k=" + std::to_string(c.k) + " n=" + std::to_string(c.n));
  }
}

TEST(LumpedMarkov, AgreesWithDenseForWeakKPartition) {
  // Trivial symmetry group: the lumped analysis degenerates to the sparse
  // solver over the raw chain, which must still match dense elimination.
  for (std::uint32_t n : {4u, 5u, 6u}) {
    const core::WeakKPartitionProtocol protocol(2);
    const pp::TransitionTable table(protocol);
    expect_backends_agree(protocol, table, n, silence_predicate(table),
                          "weak-kpartition k=2 n=" + std::to_string(n));
  }
}

TEST(LumpedMarkov, AgreesWithDenseForBipartition) {
  // The order-4 group (free-flip x group-swap) -- the strongest lumping
  // this repo declares.
  for (std::uint32_t n : {3u, 4u, 6u, 7u, 8u}) {
    const core::BipartitionProtocol protocol;
    const pp::TransitionTable table(protocol);
    const auto free_agents = [](const pp::Counts& config) {
      return config[core::BipartitionProtocol::kInitial] +
             config[core::BipartitionProtocol::kInitialPrime];
    };
    expect_backends_agree(
        protocol, table, n,
        [&, n](const pp::Counts& config) {
          return free_agents(config) == n % 2 &&
                 config[core::BipartitionProtocol::kG1] +
                         config[core::BipartitionProtocol::kG2] ==
                     n - n % 2;
        },
        "bipartition n=" + std::to_string(n));
  }
}

// ---------------------------------------------------------------------------
// Exact hand pins (bipartition, n = 3)
//
// From (3 initial): every pair fires rule 1, so A=(3,0,0,0) -> B=(1,2,0,0)
// with probability 1.  From B the six ordered draws split 2:4 between
// (initial',initial') -> A and the pairing rule -> C=(0,1,1,1), which is
// the stable pattern (one parked free agent).  Hence T = 2k with
// P(T=2k) = (2/3)(1/3)^(k-1):  E[T] = 3 exactly, F[2] = 2/3, F[4] = 8/9.

TEST(LumpedMarkov, BipartitionHandComputedPinsAreExact) {
  const core::BipartitionProtocol protocol;
  const pp::TransitionTable table(protocol);
  const pp::Counts initial = initial_counts(protocol, 3);
  const ConfigPredicate target = [](const pp::Counts& config) {
    return config[core::BipartitionProtocol::kG1] == 1 &&
           config[core::BipartitionProtocol::kG2] == 1;
  };

  std::string why;
  const auto lumped = LumpedMarkovAnalysis::try_build(
      table, protocol.symmetry(), initial, {}, &why);
  ASSERT_TRUE(lumped.has_value()) << why;

  const auto expected = lumped->expected_hitting_time(target);
  ASSERT_TRUE(expected.has_value());
  EXPECT_NEAR(*expected, 3.0, 1e-12);

  const std::vector<double> cdf = lumped->hitting_time_cdf(target, 200);
  ASSERT_EQ(cdf.size(), 201u);
  EXPECT_DOUBLE_EQ(cdf[0], 0.0);
  EXPECT_DOUBLE_EQ(cdf[1], 0.0);
  EXPECT_NEAR(cdf[2], 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(cdf[3], 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(cdf[4], 8.0 / 9.0, 1e-12);
  // Monotone, converging to 1.
  for (std::size_t t = 1; t < cdf.size(); ++t) {
    EXPECT_GE(cdf[t], cdf[t - 1]) << "t=" << t;
  }
  EXPECT_NEAR(cdf.back(), 1.0, 1e-12);
  // E[T] = sum_t P(T > t): the CDF and the hitting-time solve must tell
  // the same story.
  double tail_sum = 0.0;
  for (const double f : cdf) tail_sum += 1.0 - f;
  EXPECT_NEAR(tail_sum, 3.0, 1e-9);
}

// ---------------------------------------------------------------------------
// Absorption probabilities

TEST(LumpedMarkov, LoneBottomSccAbsorbsWithProbabilityExactlyOne) {
  const core::KPartitionProtocol protocol(3);
  const pp::TransitionTable table(protocol);
  const pp::Counts initial = initial_counts(protocol, 7);

  const auto expect_lone_bottom = [&](const auto& absorption,
                                      const char* label) {
    ASSERT_EQ(absorption.size(), 1u) << label;
    EXPECT_EQ(absorption[0].probability, 1.0) << label;
    EXPECT_TRUE(
        core::matches_stable_pattern(protocol, 7, absorption[0].representative))
        << label;
  };
  expect_lone_bottom(
      DenseMarkovReference(table, initial).absorption_probabilities(),
      "dense");
  MarkovOptions options;
  options.symmetry = protocol.symmetry();
  expect_lone_bottom(
      MarkovAnalysis(table, initial, options).absorption_probabilities(),
      "lumped");
}

TEST(LumpedMarkov, SeveralBottomSccsAgreeWithDense) {
  // The basic strategy wedges: several bottom SCCs, so the lumped analysis
  // (here over the trivial group, i.e. the raw chain, as no symmetry is
  // declared) must solve one system per bottom SCC.
  const core::BasicStrategyProtocol protocol(3);
  const pp::TransitionTable table(protocol);
  const pp::Counts initial = initial_counts(protocol, 6);

  const DenseMarkovReference dense(table, initial);
  const MarkovAnalysis lumped(table, initial);
  ASSERT_EQ(lumped.lumped().group_order(), 1u);

  // Bottom-SCC ids and representatives differ between the two: key the
  // dense answer by every configuration of each bottom SCC.
  std::map<pp::Counts, double> dense_by_config;
  const auto dense_absorption = dense.absorption_probabilities();
  for (const auto& a : dense_absorption) {
    for (const std::uint32_t c : dense.graph().sccs().members(a.scc)) {
      dense_by_config[dense.graph().config(c)] = a.probability;
    }
  }
  const auto lumped_absorption = lumped.absorption_probabilities();
  ASSERT_GE(lumped_absorption.size(), 2u);
  ASSERT_EQ(lumped_absorption.size(), dense_absorption.size());
  double total = 0.0;
  for (const auto& a : lumped_absorption) {
    const auto it = dense_by_config.find(a.representative);
    ASSERT_NE(it, dense_by_config.end());
    EXPECT_NEAR(a.probability, it->second, 1e-9);
    total += a.probability;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(LumpedMarkov, KPartitionK2N160MatchesThePinnedAnswer) {
  // The exact answer the benchmark pins for k = 2, n = 160 (3281 orbits in
  // 81 SCCs).
  const core::KPartitionProtocol protocol(2);
  const pp::TransitionTable table(protocol);
  MarkovOptions options;
  options.symmetry = protocol.symmetry();
  const MarkovAnalysis markov(table, initial_counts(protocol, 160),
                              std::move(options));
  const auto expected =
      markov.expected_hitting_time([&](const pp::Counts& config) {
        return core::matches_stable_pattern(protocol, 160, config);
      });
  ASSERT_TRUE(expected.has_value());
  EXPECT_NEAR(*expected / 35159.468358745275, 1.0, 1e-9);
}

// ---------------------------------------------------------------------------
// Exploration golden pins
//
// A digest of everything the exploration decides -- orbit numbering,
// canonical representatives, orbit sizes, the raw configuration count --
// plus the bits of the 200-step hitting-time CDF, which steps the stored
// rows directly (no solver), so it pins every rate numerator and its
// orbit index.  A change to how orbits are found, canonicalized, numbered
// or rated must leave these digests unchanged.

/// FNV-1a over the little-endian bytes of each mixed word.
struct Fnv1a {
  std::uint64_t hash = 14695981039346656037ULL;
  void mix(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xffU;
      hash *= 1099511628211ULL;
    }
  }
};

std::uint64_t exploration_digest(const pp::Protocol& protocol,
                                 const pp::TransitionTable& table,
                                 std::uint32_t n,
                                 const ConfigPredicate& target) {
  std::string why;
  const auto lumped = LumpedMarkovAnalysis::try_build(
      table, protocol.symmetry(), initial_counts(protocol, n), {}, &why);
  EXPECT_TRUE(lumped.has_value()) << why;
  if (!lumped.has_value()) return 0;
  Fnv1a fnv;
  fnv.mix(lumped->num_orbits());
  fnv.mix(lumped->raw_config_count());
  for (std::size_t orbit = 0; orbit < lumped->num_orbits(); ++orbit) {
    for (const std::uint32_t c : lumped->representative(orbit)) fnv.mix(c);
    fnv.mix(lumped->orbit_size(orbit));
  }
  for (const double f : lumped->hitting_time_cdf(target, 200)) {
    fnv.mix(std::bit_cast<std::uint64_t>(f));
  }
  return fnv.hash;
}

TEST(LumpedMarkov, ExplorationMatchesTheGoldenDigests) {
  {
    const core::KPartitionProtocol protocol(2);
    const pp::TransitionTable table(protocol);
    ASSERT_EQ(pp::expand_symmetry_group(protocol.symmetry(), 4096).size(), 4u);
    EXPECT_EQ(exploration_digest(protocol, table, 40,
                                 [&](const pp::Counts& config) {
                                   return core::matches_stable_pattern(
                                       protocol, 40, config);
                                 }),
              6387928800355029911ULL)
        << "kpartition k=2 n=40";
  }
  {
    const core::KPartitionProtocol protocol(3);
    const pp::TransitionTable table(protocol);
    EXPECT_EQ(exploration_digest(protocol, table, 18,
                                 [&](const pp::Counts& config) {
                                   return core::matches_stable_pattern(
                                       protocol, 18, config);
                                 }),
              13035533931136967510ULL)
        << "kpartition k=3 n=18";
  }
  {
    const core::BipartitionProtocol protocol;
    const pp::TransitionTable table(protocol);
    EXPECT_EQ(exploration_digest(
                  protocol, table, 31,
                  [](const pp::Counts& config) {
                    return config[core::BipartitionProtocol::kG1] +
                               config[core::BipartitionProtocol::kG2] ==
                           30;
                  }),
              12129883009692265769ULL)
        << "bipartition n=31";
  }
  {
    const core::WeakKPartitionProtocol protocol(2);
    const pp::TransitionTable table(protocol);
    EXPECT_EQ(exploration_digest(protocol, table, 12, silence_predicate(table)),
              3639025868792790683ULL)
        << "weak-kpartition k=2 n=12";
  }
}

// ---------------------------------------------------------------------------
// Rows against a pair-by-pair reference
//
// The explorer groups the table's effective ordered pairs by their net
// count change and evaluates each class's successor once.  The reference
// below visits every effective ordered pair on its own, as the explorer
// once did; every orbit's (target, numerator) row and null numerator must
// match it integer for integer.

using Rate = std::pair<std::uint32_t, std::uint64_t>;

/// Calls visit(successor, numerator) for every effective ordered pair
/// present in `config`, with `numerator` its rate over n*(n-1).  Returns
/// the total effective numerator.
template <class Visit>
std::uint64_t for_each_pair_successor(const pp::TransitionTable& table,
                                      const pp::Counts& config, Visit&& visit) {
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
      visit(next, numerator);
      effective += numerator;
    }
  }
  return effective;
}

/// An orbit's stored representative as a count vector.
pp::Counts representative_of(const LumpedMarkovAnalysis& lumped,
                             std::uint32_t orbit) {
  const auto rep = lumped.representative(orbit);
  return pp::Counts(rep.begin(), rep.end());
}

/// Builds the lumped chain from `initial` and requires every orbit's row
/// and null numerator to equal the pair-by-pair reference's.
void expect_rows_match_pairwise(const pp::TransitionTable& table,
                                const pp::SymmetrySpec& symmetry,
                                const pp::Counts& initial,
                                const std::string& label) {
  std::string why;
  const auto lumped =
      LumpedMarkovAnalysis::try_build(table, symmetry, initial, {}, &why);
  ASSERT_TRUE(lumped.has_value()) << label << ": " << why;
  const std::vector<std::vector<pp::StateId>> group =
      pp::expand_symmetry_group(symmetry, 4096);
  std::map<pp::Counts, std::uint32_t> orbit_of;
  for (std::uint32_t orbit = 0; orbit < lumped->num_orbits(); ++orbit) {
    orbit_of.emplace(representative_of(*lumped, orbit), orbit);
  }
  pp::Counts image;
  const auto canonical = [&](const pp::Counts& counts) {
    pp::Counts best = counts;
    for (const std::vector<pp::StateId>& element : group) {
      pp::permute_counts(element, counts, image);
      best = std::min(best, image);
    }
    return best;
  };
  const std::uint64_t n = lumped->population_size();

  std::size_t rows_with_rates = 0;
  for (std::uint32_t orbit = 0; orbit < lumped->num_orbits(); ++orbit) {
    std::map<std::uint32_t, std::uint64_t> reference;
    bool known = true;
    const std::uint64_t effective = for_each_pair_successor(
        table, representative_of(*lumped, orbit),
        [&](const pp::Counts& successor, std::uint64_t numerator) {
          const auto it = orbit_of.find(canonical(successor));
          if (it == orbit_of.end()) {
            known = false;
            return;
          }
          reference[it->second] += numerator;
        });
    ASSERT_TRUE(known) << label << ": orbit " << orbit
                       << " leads outside the explored orbits";
    const auto stored = lumped->rates(orbit);
    EXPECT_EQ(std::vector<Rate>(stored.begin(), stored.end()),
              std::vector<Rate>(reference.begin(), reference.end()))
        << label << ": row of orbit " << orbit;
    EXPECT_EQ(lumped->null_numerator(orbit), n * (n - 1) - effective)
        << label << ": null numerator of orbit " << orbit;
    if (!reference.empty()) ++rows_with_rates;
  }
  EXPECT_GT(rows_with_rates, 0u) << label;
}

using pp::RuleListProtocol;

/// The orbit whose representative is `counts` (the trivial group's orbits
/// are single configurations).
std::uint32_t orbit_with(const LumpedMarkovAnalysis& lumped,
                         const pp::Counts& counts) {
  for (std::uint32_t orbit = 0; orbit < lumped.num_orbits(); ++orbit) {
    if (std::ranges::equal(lumped.representative(orbit), counts)) return orbit;
  }
  ADD_FAILURE() << "no orbit holds the configuration";
  return UINT32_MAX;
}

/// The numerator of `orbit`'s row entry for `target`, or 0.
std::uint64_t rate_to(const LumpedMarkovAnalysis& lumped, std::uint32_t orbit,
                      std::uint32_t target) {
  for (const auto& [to, numerator] : lumped.rates(orbit)) {
    if (to == target) return numerator;
  }
  return 0;
}

TEST(LumpedMarkov, RowsMatchThePairByPairReference) {
  for (const auto& [k, n] : {std::pair<pp::GroupId, std::uint32_t>{2, 40},
                             std::pair<pp::GroupId, std::uint32_t>{3, 14},
                             std::pair<pp::GroupId, std::uint32_t>{4, 11},
                             std::pair<pp::GroupId, std::uint32_t>{5, 9}}) {
    // k = 2 declares the order-4 group, so the lumpability certificate
    // also enumerates image rows through the move classes.
    const core::KPartitionProtocol protocol(k);
    const pp::TransitionTable table(protocol);
    expect_rows_match_pairwise(
        table, protocol.symmetry(), initial_counts(protocol, n),
        "kpartition k=" + std::to_string(k) + " n=" + std::to_string(n));
  }
  {
    const core::BipartitionProtocol protocol;
    const pp::TransitionTable table(protocol);
    expect_rows_match_pairwise(table, protocol.symmetry(),
                               initial_counts(protocol, 15), "bipartition n=15");
  }
  for (const pp::GroupId k : {pp::GroupId{2}, pp::GroupId{3}}) {
    const core::WeakKPartitionProtocol protocol(k);
    const pp::TransitionTable table(protocol);
    expect_rows_match_pairwise(table, protocol.symmetry(),
                               initial_counts(protocol, 8),
                               "weak-kpartition k=" + std::to_string(k));
  }
}

TEST(LumpedMarkov, AnEffectiveSwapLandsOnTheOrbitsOwnEntry) {
  // a = 0, b = 1, c = 2.  (a, b) and (b, a) swap: effective, but with no
  // net change, so their rate is a transition back into the orbit itself.
  const RuleListProtocol protocol(
      3, {{0, 1, 1, 0}, {1, 0, 0, 1}, {0, 0, 2, 2}, {2, 1, 0, 1}});
  const pp::TransitionTable table(protocol);
  ASSERT_TRUE(table.effective(0, 1));
  const pp::Counts initial{4, 2, 0};
  expect_rows_match_pairwise(table, protocol.symmetry(), initial,
                             "swap table");

  std::string why;
  const auto lumped = LumpedMarkovAnalysis::try_build(
      table, protocol.symmetry(), initial, {}, &why);
  ASSERT_TRUE(lumped.has_value()) << why;
  // From (4, 2, 0): the swaps carry 4*2 + 2*4 = 16 of the 30 ordered
  // pairs back to the orbit, (a, a) carries 4*3 = 12 on to (2, 2, 2), and
  // (b, b)'s 2 are nulls.
  EXPECT_EQ(rate_to(*lumped, 0, 0), 16u);
  EXPECT_EQ(rate_to(*lumped, 0, orbit_with(*lumped, {2, 2, 2})), 12u);
  EXPECT_EQ(lumped->null_numerator(0), 2u);
}

TEST(LumpedMarkov, PairsSharingANetChangeSumIntoOneEntry) {
  // a = 0, b = 1, c = 2.  A b turns into c whoever it meets: the five
  // ordered pairs (a, b), (b, a), (c, b), (b, c), (b, b) all move one
  // agent from b to c.
  const RuleListProtocol protocol(3, {{0, 1, 0, 2},
                                      {1, 0, 2, 0},
                                      {2, 1, 2, 2},
                                      {1, 2, 2, 2},
                                      {1, 1, 1, 2},
                                      {2, 2, 0, 1},
                                      {0, 2, 1, 2},
                                      {2, 0, 2, 1}});
  const pp::TransitionTable table(protocol);
  const pp::Counts initial{3, 2, 1};
  expect_rows_match_pairwise(table, protocol.symmetry(), initial,
                             "shared-change table");

  std::string why;
  const auto lumped = LumpedMarkovAnalysis::try_build(
      table, protocol.symmetry(), initial, {}, &why);
  ASSERT_TRUE(lumped.has_value()) << why;
  // Every ordered pair with a b in it: 2*5 with b first, 4*2 with b
  // second only -- 3*2 + 2*3 + 1*2 + 2*1 + 2*1.
  EXPECT_EQ(rate_to(*lumped, 0, orbit_with(*lumped, {3, 1, 2})), 18u);
}

// ---------------------------------------------------------------------------
// Solver agreement: the block-by-block, downstream-first Gauss-Seidel and
// the order-independent Jacobi reference solve the same systems.
//
// Both run to a residual bound 100x tighter than the default.  At the
// default 1e-13 each answer is certified, but the certified residual still
// leaves the two stopping points ~1e-11 apart relative (k = 2, n = 60):
// that measures the stopping rule, not the sweeps.

constexpr double kAgreementTolerance = 1e-15;

void expect_solvers_agree(const pp::TransitionTable& table,
                          const pp::SymmetrySpec& symmetry,
                          const pp::Counts& initial,
                          const ConfigPredicate& target,
                          const std::string& label) {
  LumpedOptions gs_options;
  gs_options.solver.tolerance = kAgreementTolerance;
  gs_options.solver.method = util::SolveOptions::Method::kGaussSeidel;
  LumpedOptions jacobi_options;
  jacobi_options.solver.tolerance = kAgreementTolerance;
  jacobi_options.solver.method = util::SolveOptions::Method::kJacobi;
  std::string why;
  const auto gs =
      LumpedMarkovAnalysis::try_build(table, symmetry, initial, gs_options, &why);
  ASSERT_TRUE(gs.has_value()) << label << ": " << why;
  const auto jacobi = LumpedMarkovAnalysis::try_build(table, symmetry, initial,
                                                      jacobi_options, &why);
  ASSERT_TRUE(jacobi.has_value()) << label << ": " << why;

  const std::optional<double> gs_time = gs->expected_hitting_time(target);
  const std::optional<double> jacobi_time =
      jacobi->expected_hitting_time(target);
  ASSERT_EQ(gs_time.has_value(), jacobi_time.has_value()) << label;
  if (gs_time.has_value()) {
    EXPECT_NEAR(*gs_time / *jacobi_time, 1.0, 1e-12)
        << label << ": gauss-seidel=" << *gs_time
        << " jacobi=" << *jacobi_time;
  }

  const auto gs_absorption = gs->absorption_probabilities();
  const auto jacobi_absorption = jacobi->absorption_probabilities();
  ASSERT_EQ(gs_absorption.size(), jacobi_absorption.size()) << label;
  for (std::size_t i = 0; i < gs_absorption.size(); ++i) {
    EXPECT_EQ(gs_absorption[i].scc, jacobi_absorption[i].scc) << label;
    EXPECT_NEAR(gs_absorption[i].probability,
                jacobi_absorption[i].probability,
                1e-12 * jacobi_absorption[i].probability)
        << label << ": bottom SCC " << gs_absorption[i].scc;
  }
}

TEST(LumpedMarkov, GaussSeidelAndJacobiAgree) {
  for (const auto& [k, n] : {std::pair<pp::GroupId, std::uint32_t>{3, 18},
                             std::pair<pp::GroupId, std::uint32_t>{2, 60}}) {
    const core::KPartitionProtocol protocol(k);
    const pp::TransitionTable table(protocol);
    expect_solvers_agree(
        table, protocol.symmetry(), initial_counts(protocol, n),
        [&protocol, n](const pp::Counts& config) {
          return core::matches_stable_pattern(protocol, n, config);
        },
        "kpartition k=" + std::to_string(k) + " n=" + std::to_string(n));
  }
  // The k-partition chains have a lone bottom SCC, so their absorption
  // needs no solve; the basic strategy's wedges give several.
  const core::BasicStrategyProtocol protocol(3);
  const pp::TransitionTable table(protocol);
  const ConfigPredicate silent = silence_predicate(table);
  expect_solvers_agree(table, pp::trivial_symmetry(protocol.num_states()),
                       initial_counts(protocol, 9), silent,
                       "basic strategy k=3 n=9");
}

// ---------------------------------------------------------------------------
// Lines: merge classes and line Gauss-Seidel

/// The lumped chain of `protocol` from n agents in its initial state.
std::optional<LumpedMarkovAnalysis> build_lumped(
    const pp::Protocol& protocol, const pp::TransitionTable& table,
    const pp::SymmetrySpec& symmetry, std::uint32_t n,
    LumpedOptions options = {}) {
  std::string why;
  auto lumped = LumpedMarkovAnalysis::try_build(
      table, symmetry, initial_counts(protocol, n), options, &why);
  EXPECT_TRUE(lumped.has_value()) << why;
  return lumped;
}

TEST(LumpedMarkov, KPartitionMergesExactlyTheFreeFlip) {
  // initial and initial' have one effectiveness row and column, and rules
  // 1-4 move agents only between them; no other pair's transfers stay
  // among twins.
  for (pp::GroupId k = 2; k <= 6; ++k) {
    const core::KPartitionProtocol protocol(k);
    const pp::TransitionTable table(protocol);
    const auto lumped =
        build_lumped(protocol, table, protocol.symmetry(), 2 * k);
    ASSERT_TRUE(lumped.has_value());
    const std::vector<std::vector<pp::StateId>> expected = {
        {core::KPartitionProtocol::kInitial,
         core::KPartitionProtocol::kInitialPrime}};
    EXPECT_EQ(lumped->merge_classes(), expected) << "k=" << int{k};
  }
  // At k = 5 the builders m2, m3, m4 are twins as well, but no pair moves
  // an agent only among them, so the classes above leave them apart.
  const core::KPartitionProtocol protocol(5);
  const pp::TransitionTable table(protocol);
  for (const pp::GroupId i : {pp::GroupId{2}, pp::GroupId{3}}) {
    for (pp::StateId x = 0; x < protocol.num_states(); ++x) {
      EXPECT_EQ(table.effective(protocol.m(i), x),
                table.effective(protocol.m(i + 1), x));
      EXPECT_EQ(table.effective(x, protocol.m(i)),
                table.effective(x, protocol.m(i + 1)));
    }
  }
}

TEST(LumpedMarkov, WithoutTwinMovesTheAnswersAreBitIdentical) {
  // No merge class, so every line is one orbit and the solve is the point
  // Gauss-Seidel: the answers are the bits the point solver gave.
  const auto bits = [](double value) {
    return std::bit_cast<std::uint64_t>(value);
  };
  {
    const core::WeakKPartitionProtocol protocol(3);
    const pp::TransitionTable table(protocol);
    const auto lumped = build_lumped(protocol, table, protocol.symmetry(), 12);
    ASSERT_TRUE(lumped.has_value());
    EXPECT_TRUE(lumped->merge_classes().empty());
    const auto expected =
        lumped->expected_hitting_time(silence_predicate(table));
    ASSERT_TRUE(expected.has_value());
    EXPECT_EQ(bits(*expected), bits(0x1.fbbb05a7e0184p+7));
  }
  {
    // Rule (0, 0) -> (1, 1) then (0, 1) -> (2, 2): several silent ends.
    const pp::RuleListProtocol protocol(3, {{0, 0, 1, 1}, {0, 1, 2, 2}});
    const pp::TransitionTable table(protocol);
    const auto lumped = build_lumped(
        protocol, table, pp::trivial_symmetry(protocol.num_states()), 12);
    ASSERT_TRUE(lumped.has_value());
    EXPECT_TRUE(lumped->merge_classes().empty());
    const auto expected =
        lumped->expected_hitting_time(silence_predicate(table));
    ASSERT_TRUE(expected.has_value());
    EXPECT_EQ(bits(*expected), bits(0x1.dc9d0c37e96e5p+5));
    const std::vector<std::pair<pp::Counts, double>> pinned = {
        {{0, 12, 0}, 0x1.808bc7885347bp-8},
        {{0, 8, 4}, 0x1.d95475ab79fb1p-3},
        {{0, 4, 8}, 0x1.4653b298c322bp-1},
        {{0, 0, 12}, 0x1.015861b536df8p-3}};
    const auto absorption = lumped->absorption_probabilities();
    ASSERT_EQ(absorption.size(), pinned.size());
    for (std::size_t i = 0; i < pinned.size(); ++i) {
      EXPECT_EQ(absorption[i].representative, pinned[i].first) << i;
      EXPECT_EQ(bits(absorption[i].probability), bits(pinned[i].second)) << i;
    }
  }
}

TEST(LumpedMarkov, LineSweepsMatchJacobiWhereLinesAreLong) {
  // k = 3, n = 36 and k = 4, n = 28: lines of up to n + 1 orbits.
  for (const auto& [k, n] : {std::pair<pp::GroupId, std::uint32_t>{3, 36},
                             std::pair<pp::GroupId, std::uint32_t>{4, 28}}) {
    const core::KPartitionProtocol protocol(k);
    const pp::TransitionTable table(protocol);
    const auto target = [&protocol, n](const pp::Counts& config) {
      return core::matches_stable_pattern(protocol, n, config);
    };
    LumpedOptions jacobi_options;
    jacobi_options.solver.method = util::SolveOptions::Method::kJacobi;
    const auto gs = build_lumped(protocol, table, protocol.symmetry(), n);
    const auto reference = build_lumped(protocol, table, protocol.symmetry(),
                                        n, jacobi_options);
    ASSERT_TRUE(gs.has_value() && reference.has_value());
    const std::optional<double> lines = gs->expected_hitting_time(target);
    const std::optional<double> jacobi =
        reference->expected_hitting_time(target);
    ASSERT_TRUE(lines.has_value() && jacobi.has_value());
    EXPECT_NEAR(*lines / *jacobi, 1.0, 1e-11)
        << "k=" << int{k} << " n=" << n << ": lines=" << *lines
        << " jacobi=" << *jacobi;
  }
}

TEST(LumpedMarkov, LineSweepsBoundTheSolversWork) {
  // k = 3, n = 36: point Gauss-Seidel needs 251 sweeps on the largest
  // block and about 1.16 M row updates; lines need a few dozen sweeps.
  const core::KPartitionProtocol protocol(3);
  const pp::TransitionTable table(protocol);
  MarkovOptions options;
  options.symmetry = protocol.symmetry();
  const MarkovAnalysis markov(table, initial_counts(protocol, 36),
                              std::move(options));
  util::SolveCertificate cert;
  const auto expected = markov.expected_hitting_time(
      [&protocol](const pp::Counts& config) {
        return core::matches_stable_pattern(protocol, 36, config);
      },
      &cert);
  ASSERT_TRUE(expected.has_value());
  EXPECT_TRUE(cert.converged);
  EXPECT_LE(cert.sweeps, 40u);
  EXPECT_LE(cert.row_updates, 300'000u);
  EXPECT_NEAR(*expected / 1346.5513005261539, 1.0, 1e-11);

  // Absorption here needs no solve: a converged, empty certificate.
  cert.sweeps = 7;
  (void)markov.absorption_probabilities(&cert);
  EXPECT_TRUE(cert.converged);
  EXPECT_EQ(cert.sweeps, 0u);
  EXPECT_EQ(cert.row_updates, 0u);
}

// ---------------------------------------------------------------------------
// Symmetry-declaration hygiene

TEST(LumpedMarkov, RejectsADeclaredSymmetryThatIsNotOne) {
  // g1 <-> g2 alone is NOT a symmetry of the k = 3 protocol (rules 5-7
  // name explicit group indices): try_build must refuse with a reason, not
  // silently lump a non-lumpable partition.
  const core::KPartitionProtocol protocol(3);
  const pp::TransitionTable table(protocol);
  const pp::SymmetrySpec bogus{
      protocol.num_states(),
      {pp::transposition(protocol.num_states(), protocol.g(1),
                         protocol.g(2))}};
  std::string why;
  const auto lumped = LumpedMarkovAnalysis::try_build(
      table, bogus, initial_counts(protocol, 6), {}, &why);
  EXPECT_FALSE(lumped.has_value());
  EXPECT_FALSE(why.empty());
}

TEST(LumpedMarkov, OrbitCapIsARecoverableError) {
  const core::KPartitionProtocol protocol(3);
  const pp::TransitionTable table(protocol);
  LumpedOptions options;
  options.max_orbits = 4;
  std::string why;
  const auto lumped = LumpedMarkovAnalysis::try_build(
      table, protocol.symmetry(), initial_counts(protocol, 8), options, &why);
  EXPECT_FALSE(lumped.has_value());
  EXPECT_NE(why.find("orbit"), std::string::npos) << why;
}

TEST(LumpedMarkov, APopulationBeyondTheNumeratorWidthIsRefusedAtOnce) {
  // Row numerators are 32 bits and each is at most n(n-1), which reaches
  // 2^32 at n = 65,537.  try_build refuses that before exploring; one
  // below, it starts exploring and stops at the orbit cap instead.
  const core::KPartitionProtocol protocol(2);
  const pp::TransitionTable table(protocol);
  LumpedOptions options;
  options.max_orbits = 4;
  std::string why;
  EXPECT_FALSE(LumpedMarkovAnalysis::try_build(
                   table, protocol.symmetry(),
                   initial_counts(protocol, 65'537), {}, &why)
                   .has_value());
  EXPECT_NE(why.find("32-bit rate numerators"), std::string::npos) << why;
  EXPECT_FALSE(LumpedMarkovAnalysis::try_build(
                   table, protocol.symmetry(),
                   initial_counts(protocol, 65'536), options, &why)
                   .has_value());
  EXPECT_NE(why.find("max_orbits"), std::string::npos) << why;
}

TEST(LumpedMarkov, AGroupOrderCapBeyondTheOrbitSizeWidthIsRefused) {
  // Orbit sizes are 16 bits wide, so a cap that admits larger groups is
  // refused even when the declared group is small.
  const core::KPartitionProtocol protocol(2);
  const pp::TransitionTable table(protocol);
  LumpedOptions options;
  options.max_group_order = 65'536;
  std::string why;
  EXPECT_FALSE(LumpedMarkovAnalysis::try_build(table, protocol.symmetry(),
                                               initial_counts(protocol, 12),
                                               options, &why)
                   .has_value());
  EXPECT_NE(why.find("max_group_order"), std::string::npos) << why;
  options.max_group_order = 65'535;
  EXPECT_TRUE(LumpedMarkovAnalysis::try_build(table, protocol.symmetry(),
                                              initial_counts(protocol, 12),
                                              options, &why)
                  .has_value())
      << why;
}

// ---------------------------------------------------------------------------
// Storage pin: the stored arrays' summed capacities per orbit, a count of
// bytes and so free of host noise.  An orbit costs 4|Q| bytes of counts, a
// 4-byte row offset, 2 bytes of size unless the group is trivial and about
// 8 bytes of SCC condensation, and each of its row entries 8 bytes.
// Measured: 97.6 bytes at k = 3, n = 36 (|Q| = 7, 7.2 entries per row) and
// 68.8 at k = 2, n = 160 (|Q| = 4, 4.8 entries per row, order-4 group).  A
// per-orbit heap vector for each representative or a 16-byte row entry
// breaks both bounds.

TEST(LumpedMarkov, StorageStaysWithinItsBytesPerOrbit) {
  for (const auto& [k, n, max_bytes] :
       {std::tuple<pp::GroupId, std::uint32_t, double>{3, 36, 110.0},
        std::tuple<pp::GroupId, std::uint32_t, double>{2, 160, 80.0}}) {
    const core::KPartitionProtocol protocol(k);
    const pp::TransitionTable table(protocol);
    std::string why;
    const auto lumped = LumpedMarkovAnalysis::try_build(
        table, protocol.symmetry(), initial_counts(protocol, n), {}, &why);
    ASSERT_TRUE(lumped.has_value()) << why;
    const double per_orbit = static_cast<double>(lumped->storage_bytes()) /
                             static_cast<double>(lumped->num_orbits());
    EXPECT_LE(per_orbit, max_bytes) << "k=" << k << " n=" << n;
  }
}

// ---------------------------------------------------------------------------
// The ceiling claim: beyond the dense reference's reach, per family

/// Smallest n in [lo, hi] whose reachable configuration count exceeds the
/// dense reference's 3000-unknown cap (0 if none): the dense hitting-time
/// query must throw there, and the lumped one must answer.
std::uint32_t first_beyond_dense(const pp::Protocol& protocol,
                                 const pp::TransitionTable& table,
                                 std::uint32_t lo, std::uint32_t hi) {
  for (std::uint32_t n = lo; n <= hi; ++n) {
    ExploreOptions explore;
    explore.max_configs = 200'000;
    const ConfigGraph graph(table, initial_counts(protocol, n), explore);
    if (graph.complete() &&
        graph.num_configs() > DenseMarkovReference::kMaxDenseSystem) {
      return n;
    }
  }
  return 0;
}

void expect_lumped_outreaches_dense(const pp::Protocol& protocol,
                                    const pp::TransitionTable& table,
                                    std::uint32_t n,
                                    const ConfigPredicate& target,
                                    const std::string& label) {
  const pp::Counts initial = initial_counts(protocol, n);

  // Dense: exploration still completes, but the hitting-time system
  // exceeds the cap -- an exception, not an abort.
  const DenseMarkovReference dense(table, initial);
  EXPECT_GT(dense.reachable_configs(), DenseMarkovReference::kMaxDenseSystem)
      << label;
  EXPECT_THROW((void)dense.expected_hitting_time(target), std::runtime_error)
      << label;

  // Lumped: same chain, exact answer.
  MarkovOptions lumped_options;
  lumped_options.symmetry = protocol.symmetry();
  const MarkovAnalysis lumped(table, initial, std::move(lumped_options));
  const auto expected = lumped.expected_hitting_time(target);
  ASSERT_TRUE(expected.has_value()) << label;
  EXPECT_GT(*expected, 0.0) << label;
  EXPECT_TRUE(std::isfinite(*expected)) << label;
  EXPECT_GE(lumped.reachable_configs(), dense.reachable_configs()) << label;
}

TEST(LumpedMarkov, ReachesBeyondTheDenseCapForKPartition) {
  const core::KPartitionProtocol protocol(2);
  const pp::TransitionTable table(protocol);
  // Reachable configs keep g1 == g2, so the space is ~n^2/4: the dense cap
  // falls around n = 110.
  const std::uint32_t n = first_beyond_dense(protocol, table, 100, 140);
  ASSERT_GT(n, 0u);
  expect_lumped_outreaches_dense(
      protocol, table, n,
      [&](const pp::Counts& config) {
        return core::matches_stable_pattern(protocol, n, config);
      },
      "kpartition k=2 n=" + std::to_string(n));
}

TEST(LumpedMarkov, ReachesBeyondTheDenseCapForWeakKPartition) {
  const core::WeakKPartitionProtocol protocol(2);
  const pp::TransitionTable table(protocol);
  const std::uint32_t n = first_beyond_dense(protocol, table, 6, 32);
  ASSERT_GT(n, 0u);
  expect_lumped_outreaches_dense(protocol, table, n,
                                 silence_predicate(table),
                                 "weak-kpartition k=2 n=" + std::to_string(n));
}

TEST(LumpedMarkov, ReachesBeyondTheDenseCapForBipartition) {
  const core::BipartitionProtocol protocol;
  const pp::TransitionTable table(protocol);
  const std::uint32_t n = first_beyond_dense(protocol, table, 100, 140);
  ASSERT_GT(n, 0u);
  expect_lumped_outreaches_dense(
      protocol, table, n,
      [n](const pp::Counts& config) {
        return config[core::BipartitionProtocol::kInitial] +
                       config[core::BipartitionProtocol::kInitialPrime] ==
                   n % 2 &&
               config[core::BipartitionProtocol::kG1] +
                       config[core::BipartitionProtocol::kG2] ==
                   n - n % 2;
      },
      "bipartition n=" + std::to_string(n));
}

// ---------------------------------------------------------------------------
// MarkovAnalysis routing

TEST(LumpedMarkov, AutoRoutesBySymmetryPresence) {
  // Every route is the lumped chain: kAuto quotients by the declared
  // symmetry, or by the trivial group when none is declared, and kDense
  // ignores the declared symmetry.  k = 2 declares an order-4 group, so
  // the group order tells the routes apart.
  const core::KPartitionProtocol protocol(2);
  const pp::TransitionTable table(protocol);
  const pp::Counts initial = initial_counts(protocol, 6);

  const MarkovAnalysis unlumped(table, initial);  // no symmetry declared
  EXPECT_STREQ(unlumped.method_name(), "lumped");
  EXPECT_EQ(unlumped.lumped().group_order(), 1u);
  EXPECT_EQ(unlumped.lumped().num_orbits(), unlumped.reachable_configs());

  MarkovOptions with_symmetry;
  with_symmetry.symmetry = protocol.symmetry();
  const MarkovAnalysis lumped(table, initial, with_symmetry);
  EXPECT_STREQ(lumped.method_name(), "lumped");
  EXPECT_EQ(lumped.lumped().group_order(), 4u);
  EXPECT_LT(lumped.lumped().num_orbits(), lumped.reachable_configs());
  EXPECT_EQ(lumped.reachable_configs(), unlumped.reachable_configs());

  with_symmetry.method = MarkovMethod::kDense;
  const MarkovAnalysis ignored(table, initial, std::move(with_symmetry));
  EXPECT_STREQ(ignored.method_name(), "lumped");
  EXPECT_EQ(ignored.lumped().group_order(), 1u);
  EXPECT_EQ(ignored.lumped().num_orbits(), unlumped.lumped().num_orbits());
}

TEST(LumpedMarkov, TryCreateReportsLumpedFailureRecoverably) {
  const core::KPartitionProtocol protocol(3);
  const pp::TransitionTable table(protocol);
  MarkovOptions options;
  options.symmetry = protocol.symmetry();
  options.lumped.max_orbits = 2;
  std::string why;
  const auto markov = MarkovAnalysis::try_create(
      table, initial_counts(protocol, 8), std::move(options), &why);
  EXPECT_FALSE(markov.has_value());
  EXPECT_NE(why.find("orbit"), std::string::npos) << why;

  // A declared symmetry that is not one (see
  // RejectsADeclaredSymmetryThatIsNotOne) fails the build, with the lumped
  // reason and no other solver to fall back to.
  MarkovOptions bogus;
  bogus.symmetry = pp::SymmetrySpec{
      protocol.num_states(),
      {pp::transposition(protocol.num_states(), protocol.g(1),
                         protocol.g(2))}};
  why.clear();
  const auto refused = MarkovAnalysis::try_create(
      table, initial_counts(protocol, 6), std::move(bogus), &why);
  EXPECT_FALSE(refused.has_value());
  EXPECT_EQ(why.rfind("lumped: ", 0), 0u) << why;
}

TEST(LumpedMarkov, NonInvariantPredicateThrows) {
  // counts[kInitial] alone is not invariant under the free-flip: the
  // lumped back end must refuse the query loudly instead of answering for
  // an arbitrary representative.
  const core::BipartitionProtocol protocol;
  const pp::TransitionTable table(protocol);
  MarkovOptions options;
  options.symmetry = protocol.symmetry();
  // n = 5 so a one-free-agent orbit {(1,0,2,2), (0,1,2,2)} is reachable:
  // the predicate differs across it.  (At even n every reachable orbit
  // happens to be predicate-constant.)
  const MarkovAnalysis markov(table, initial_counts(protocol, 5),
                              std::move(options));
  EXPECT_THROW((void)markov.expected_hitting_time([](const pp::Counts& c) {
    return c[core::BipartitionProtocol::kInitial] == 1;
  }),
               std::invalid_argument);
}

}  // namespace
}  // namespace ppk::verify
