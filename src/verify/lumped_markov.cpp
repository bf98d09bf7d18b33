#include "verify/lumped_markov.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "pp/symmetry.hpp"
#include "util/assert.hpp"

namespace ppk::verify {

namespace {

using Rate = LumpedMarkovAnalysis::Rate;

/// Largest population whose n(n-1) fits a 32-bit numerator.
constexpr std::uint64_t kMaxPopulation = 65'536;

/// A table's effective ordered pairs grouped by their net count change.
/// Every pair of a class moves a configuration to the same successor, so a
/// row needs one canonicalization and one lookup per class, not per pair;
/// at k = 3 the k-partition table's 27 effective pairs fall into 9 classes.
class MoveClasses {
 public:
  explicit MoveClasses(const pp::TransitionTable& table) {
    // Every effective pair with its net change, the sorted (state, change)
    // list.  Sorting by (change, pair) groups the pairs into classes in one
    // fixed order with no allocation per pair (the verifier builds
    // thousands of tiny chains); the order is immaterial to the rows,
    // which are sorted and merged by target.
    const pp::StateId num_states = table.num_states();
    std::vector<std::pair<Class, Pair>> moves;
    moves.reserve(std::size_t{num_states} * num_states);
    for (pp::StateId p = 0; p < num_states; ++p) {
      for (pp::StateId q = 0; q < num_states; ++q) {
        if (!table.effective(p, q)) continue;
        const pp::Transition& t = table.apply(p, q);
        Class c{};
        // Keeps the list sorted by state, so in Delta's order too.
        const auto add = [&](pp::StateId state, std::int32_t by) {
          const auto end = c.deltas.begin() + c.num_deltas;
          const auto at = std::find_if(c.deltas.begin(), end, [&](auto d) {
            return d.state >= state;
          });
          if (at == end || at->state != state) {
            std::copy_backward(at, end, end + 1);
            *at = Delta{state, 0};
            ++c.num_deltas;
          }
          at->change += by;
        };
        add(p, -1);
        add(q, -1);
        add(t.initiator, +1);
        add(t.responder, +1);
        // A swap (p, q) -> (q, p) nets to nothing: its class is empty and
        // leads back to the configuration itself.
        const auto kept =
            std::remove_if(c.deltas.begin(), c.deltas.begin() + c.num_deltas,
                           [](const Delta& d) { return d.change == 0; });
        c.num_deltas = static_cast<std::uint32_t>(kept - c.deltas.begin());
        moves.emplace_back(c, Pair{p, q});
      }
    }
    std::ranges::sort(moves, [](const auto& a, const auto& b) {
      const auto order = std::lexicographical_compare_three_way(
          a.first.change().begin(), a.first.change().end(),
          b.first.change().begin(), b.first.change().end());
      return order != 0 ? order < 0 : a.second < b.second;
    });
    classes_.reserve(moves.size());
    pairs_.reserve(moves.size());
    for (std::size_t i = 0; i < moves.size(); ++i) {
      if (i == 0 || !std::ranges::equal(moves[i].first.change(),
                                        moves[i - 1].first.change())) {
        classes_.push_back(moves[i].first);
        classes_.back().pair_begin = static_cast<std::uint32_t>(pairs_.size());
      }
      pairs_.push_back(moves[i].second);
      classes_.back().pair_end = static_cast<std::uint32_t>(pairs_.size());
    }
  }

  /// Calls visit(successor, numerator) once per class with a nonzero rate
  /// in `config`: `successor` is `config` itself, moved by the class's
  /// change for the call and restored after it, and `numerator` the summed
  /// rate of the class's pairs over n*(n-1).  Returns the total effective
  /// numerator.
  template <class Visit>
  std::uint64_t for_each_successor(pp::Counts& config, Visit&& visit) const {
    std::uint64_t effective = 0;
    for (const Class& c : classes_) {
      std::uint64_t numerator = 0;
      for (std::uint32_t i = c.pair_begin; i < c.pair_end; ++i) {
        const auto [p, q] = pairs_[i];
        // c_p (c_q - [p = q]): an absent p zeroes the product even where
        // c_q - 1 wraps around.
        numerator += std::uint64_t{config[p]} *
                     (config[q] - static_cast<std::uint32_t>(p == q));
      }
      if (numerator == 0) continue;
      // A negative change cast to unsigned wraps to the exact count.
      for (const Delta& d : c.change()) {
        config[d.state] += static_cast<std::uint32_t>(d.change);
      }
      visit(std::as_const(config), numerator);
      for (const Delta& d : c.change()) {
        config[d.state] -= static_cast<std::uint32_t>(d.change);
      }
      effective += numerator;
    }
    return effective;
  }

 private:
  struct Delta {
    pp::StateId state;
    std::int32_t change;
    friend auto operator<=>(const Delta&, const Delta&) = default;
  };
  struct Pair {
    pp::StateId p;
    pp::StateId q;
    friend auto operator<=>(const Pair&, const Pair&) = default;
  };
  /// One net change: at most 4 states move (two leave, two arrive).
  struct Class {
    std::array<Delta, 4> deltas;
    std::uint32_t num_deltas;
    std::uint32_t pair_begin;  // the class's pairs are
    std::uint32_t pair_end;    // pairs_[pair_begin .. pair_end)
    [[nodiscard]] std::span<const Delta> change() const {
      return std::span(deltas).first(num_deltas);
    }
  };

  std::vector<Class> classes_;
  std::vector<Pair> pairs_;
};

/// Sorts a row by target orbit and merges the numerators of repeated
/// targets.
void sort_and_merge(std::vector<Rate>& row) {
  std::sort(row.begin(), row.end());
  std::size_t kept = 0;
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (kept > 0 && row[kept - 1].first == row[i].first) {
      row[kept - 1].second += row[i].second;
    } else {
      row[kept++] = row[i];
    }
  }
  row.resize(kept);
}

/// Open-addressing index of the explored orbits (or of any count vectors
/// kept the same way).  Slots hold orbit ids and compare against the
/// slices of the flat representative array, so no key is ever copied.
class OrbitIndex {
 public:
  static constexpr std::uint32_t kAbsent = UINT32_MAX;

  /// Index over `reps`, |Q| = `stride` counts per orbit.
  /// Starts at 16 slots, which a chain of a few orbits never outgrows.
  OrbitIndex(const std::vector<std::uint32_t>& reps, std::size_t stride)
      : reps_(reps), stride_(stride) {
    rehash(4);
  }

  /// Orbit id of the canonical configuration `counts` with hash `hash`, or
  /// kAbsent.
  [[nodiscard]] std::uint32_t find(const pp::Counts& counts,
                                   std::uint64_t hash) const {
    for (std::size_t slot = home(hash);; slot = (slot + 1) & mask_) {
      const std::uint32_t id = slots_[slot];
      if (id == kAbsent) return kAbsent;
      if (hashes_[id] == hash &&
          std::equal(counts.begin(), counts.end(),
                     reps_.begin() + static_cast<std::ptrdiff_t>(id * stride_))) {
        return id;
      }
    }
  }

  /// Indexes orbit `id` = the next id, whose representative is stored.
  void insert(std::uint32_t id, std::uint64_t hash) {
    PPK_ASSERT(id == hashes_.size() && (id + 1) * stride_ <= reps_.size());
    hashes_.push_back(hash);
    if (2 * hashes_.size() > slots_.size()) {
      rehash(bits_ + 1);
    } else {
      place(id);
    }
  }

 private:
  [[nodiscard]] std::size_t home(std::uint64_t hash) const noexcept {
    // Fibonacci hashing: the top bits of the product index the table.
    return static_cast<std::size_t>((hash * 0x9E3779B97F4A7C15ULL) >>
                                    (64 - bits_));
  }

  void place(std::uint32_t id) {
    std::size_t slot = home(hashes_[id]);
    while (slots_[slot] != kAbsent) slot = (slot + 1) & mask_;
    slots_[slot] = id;
  }

  /// Rebuilds the table with 2^bits slots.
  void rehash(unsigned bits) {
    bits_ = bits;
    slots_.assign(std::size_t{1} << bits_, kAbsent);
    mask_ = slots_.size() - 1;
    for (std::uint32_t id = 0; id < hashes_.size(); ++id) place(id);
  }

  const std::vector<std::uint32_t>& reps_;
  std::size_t stride_;
  std::vector<std::uint32_t> slots_;
  std::vector<std::uint64_t> hashes_;  // per orbit
  std::size_t mask_ = 0;
  unsigned bits_ = 0;
};

/// Each state's merge class, named by its smallest state: the states
/// joined by the transfers of every effective pair whose each transfer
/// a -> b joins two states with identical effectiveness rows and columns.
/// Such a transfer is an empty-span transfer of the jump engine: it moves
/// no pair weight.
std::vector<pp::StateId> merge_classes_of(const pp::TransitionTable& table) {
  const pp::StateId num_states = table.num_states();
  const auto twins = [&](pp::StateId a, pp::StateId b) {
    for (pp::StateId x = 0; x < num_states; ++x) {
      if (table.effective(a, x) != table.effective(b, x) ||
          table.effective(x, a) != table.effective(x, b)) {
        return false;
      }
    }
    return true;
  };
  // Union-find whose root is the class's smallest state.
  std::vector<pp::StateId> parent(num_states);
  for (pp::StateId s = 0; s < num_states; ++s) parent[s] = s;
  const auto find = [&](pp::StateId s) {
    while (parent[s] != s) s = parent[s];
    return s;
  };
  const auto join = [&](pp::StateId a, pp::StateId b) {
    const pp::StateId ra = find(a);
    const pp::StateId rb = find(b);
    parent[std::max(ra, rb)] = std::min(ra, rb);
  };
  for (pp::StateId p = 0; p < num_states; ++p) {
    for (pp::StateId q = 0; q < num_states; ++q) {
      if (!table.effective(p, q)) continue;
      const pp::Transition& t = table.apply(p, q);
      if (twins(p, t.initiator) && twins(q, t.responder)) {
        join(p, t.initiator);
        join(q, t.responder);
      }
    }
  }
  for (pp::StateId s = 0; s < num_states; ++s) parent[s] = find(s);
  return parent;
}

/// The certificate of an answer that needs no solve.
constexpr util::SolveCertificate kNoSolve{.converged = true};

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
  // Row numerators are stored in 32 bits and each is at most n(n-1), which
  // is below 2^32 exactly for n <= 65,536.
  if (n > kMaxPopulation) {
    return fail("lumped: population size " + std::to_string(n) +
                " exceeds " + std::to_string(kMaxPopulation) +
                ": n(n-1) does not fit the 32-bit rate numerators");
  }
  if (options.max_group_order > UINT16_MAX) {
    return fail("lumped: max_group_order " +
                std::to_string(options.max_group_order) + " exceeds " +
                std::to_string(UINT16_MAX) +
                ", the largest orbit size 16 bits hold");
  }

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
  out.num_states_ = initial.size();
  out.group_ = std::move(group);
  out.merge_ = merge_classes_of(table);
  out.solver_ = options.solver;
  const std::vector<std::vector<pp::StateId>>& elements = out.group_;
  const std::size_t stride = out.num_states_;
  const auto explored = [&] { return out.reps_.size() / stride; };

  // Reused buffers: nothing below allocates per transition.
  pp::Counts rep;    // the orbit being expanded; moved to each successor
  pp::Counts best;   // a successor's canonical form
  pp::Counts image;  // a group image of a successor
  pp::Counts other;  // a group image of the representative
  const auto canonicalize = [&](const pp::Counts& counts) {
    best = counts;
    for (std::size_t g = 1; g < elements.size(); ++g) {
      pp::permute_counts(elements[g], counts, image);
      if (image < best) best.swap(image);
    }
  };

  const MoveClasses moves(table);

  {
    // The index and the row buffers live only as long as exploration, so
    // they are gone before the condensation allocates.
    OrbitIndex index(out.reps_, stride);
    const auto intern = [&](std::span<const std::uint32_t> canonical,
                            std::uint64_t hash) {
      const auto id = static_cast<std::uint32_t>(explored());
      out.reps_.insert(out.reps_.end(), canonical.begin(), canonical.end());
      index.insert(id, hash);
      return id;
    };
    canonicalize(initial);
    intern(best, pp::CountsHash{}(best));

    std::vector<Rate> row;
    std::vector<Rate> image_row;
    // A row's canonical successors that are not orbits yet.  Their counts
    // sit in one flat buffer, |Q| per successor, reused from row to row.
    struct Unseen {
      std::size_t offset;  // into unseen_counts
      std::uint64_t hash;
      std::uint64_t numerator;
    };
    std::vector<Unseen> unseen;
    std::vector<std::uint32_t> unseen_counts;
    const auto counts_of = [&](const Unseen& u) {
      return std::span(unseen_counts).subspan(u.offset, stride);
    };

    // Orbits are numbered in discovery order and expanded in that order
    // (breadth first), so orbit `current` is the next one to expand.
    for (std::uint32_t current = 0; current < explored(); ++current) {
      if (explored() > options.max_orbits) {
        return fail("lumped: exploration exceeded max_orbits (" +
                    std::to_string(options.max_orbits) + ")");
      }
      const auto stored = std::span(out.reps_).subspan(current * stride, stride);
      rep.assign(stored.begin(), stored.end());

      // The representative's row, one successor per move class.  Known
      // targets go straight in; unseen ones are merged, then numbered in
      // lexicographic order of their canonical counts -- the numbering an
      // ordered map of the row would give, whatever order the classes are
      // visited in.  Every numerator is at most n(n-1) < 2^32.
      row.clear();
      unseen.clear();
      unseen_counts.clear();
      const std::uint64_t effective = moves.for_each_successor(
          rep, [&](const pp::Counts& successor, std::uint64_t num) {
            canonicalize(successor);
            const std::uint64_t hash = pp::CountsHash{}(best);
            const std::uint32_t id = index.find(best, hash);
            if (id != OrbitIndex::kAbsent) {
              row.emplace_back(id, static_cast<std::uint32_t>(num));
              return;
            }
            for (Unseen& u : unseen) {
              if (u.hash == hash && std::ranges::equal(counts_of(u), best)) {
                u.numerator += num;
                return;
              }
            }
            unseen.push_back(Unseen{unseen_counts.size(), hash, num});
            unseen_counts.insert(unseen_counts.end(), best.begin(), best.end());
          });
      PPK_ASSERT(effective <= out.denom_);
      const std::uint64_t stay = out.denom_ - effective;
      std::sort(unseen.begin(), unseen.end(),
                [&](const Unseen& a, const Unseen& b) {
                  return std::ranges::lexicographical_compare(counts_of(a),
                                                              counts_of(b));
                });
      for (const Unseen& u : unseen) {
        row.emplace_back(intern(counts_of(u), u.hash),
                         static_cast<std::uint32_t>(u.numerator));
      }
      sort_and_merge(row);

      // The orbit's size by orbit-stabilizer, and the lumpability
      // certificate: every other raw configuration in the orbit must carry
      // exactly the same canonicalized rate row, integer for integer.
      // check_symmetry already implies this; checking it anyway means a
      // wrong declaration can never silently corrupt an exact answer.  A
      // target the representative's row never reached is not a known orbit
      // of this row, so an unknown target fails the certificate too.
      std::uint64_t stabilizer = 1;
      for (std::size_t g = 1; g < elements.size(); ++g) {
        pp::permute_counts(elements[g], rep, other);
        if (other == rep) {
          ++stabilizer;
          continue;
        }
        if (!options.check_lumpability) continue;
        image_row.clear();
        bool known = true;
        const std::uint64_t image_effective = moves.for_each_successor(
            other, [&](const pp::Counts& successor, std::uint64_t num) {
              canonicalize(successor);
              const std::uint32_t id =
                  index.find(best, pp::CountsHash{}(best));
              if (id == OrbitIndex::kAbsent) known = false;
              image_row.emplace_back(id, static_cast<std::uint32_t>(num));
            });
        sort_and_merge(image_row);
        if (!known || image_row != row ||
            out.denom_ - image_effective != stay) {
          return fail("lumped: rate-sum lumpability check failed at orbit " +
                      std::to_string(current) + " under group element " +
                      std::to_string(g));
        }
      }
      const std::uint64_t size = elements.size() / stabilizer;
      if (elements.size() > 1) {
        out.sizes_.push_back(static_cast<std::uint16_t>(size));
      }
      out.raw_config_count_ += size;

      // Row offsets are 32 bits, and so is every jump system's entry count
      // (at most the stored entries plus one diagonal per orbit).
      if (out.rates_.size() + row.size() + explored() > UINT32_MAX) {
        return fail("lumped: rate rows exceeded 2^32 entries");
      }
      out.rates_.insert(out.rates_.end(), row.begin(), row.end());
      out.rate_begin_.push_back(static_cast<std::uint32_t>(out.rates_.size()));
    }
  }
  // Appending left up to half of each array's capacity unused.
  out.reps_.shrink_to_fit();
  out.sizes_.shrink_to_fit();
  out.rates_.shrink_to_fit();
  out.rate_begin_.shrink_to_fit();

  out.sccs_ = condense(
      static_cast<std::uint32_t>(out.num_orbits()),
      [&](std::uint32_t u) { return out.rates(u); },
      [](const Rate& rate) { return rate.first; });
  return out;
}

std::uint64_t LumpedMarkovAnalysis::null_numerator(std::size_t orbit) const {
  std::uint64_t effective = 0;
  for (const auto& [target, numerator] : rates(orbit)) effective += numerator;
  return denom_ - effective;
}

std::size_t LumpedMarkovAnalysis::storage_bytes() const noexcept {
  const auto bytes = [](const auto& v) {
    return v.capacity() * sizeof(typename std::decay_t<decltype(v)>::value_type);
  };
  std::size_t total = bytes(reps_) + bytes(sizes_) + bytes(rates_) +
                      bytes(rate_begin_) + bytes(group_) + bytes(merge_) +
                      bytes(sccs_.of) +
                      bytes(sccs_.bottom) + bytes(sccs_.offsets) +
                      bytes(sccs_.nodes);
  for (const std::vector<pp::StateId>& element : group_) total += bytes(element);
  return total;
}

std::vector<std::vector<pp::StateId>> LumpedMarkovAnalysis::merge_classes()
    const {
  std::vector<std::vector<pp::StateId>> classes;
  for (pp::StateId s = 0; s < merge_.size(); ++s) {
    if (merge_[s] != s) continue;
    std::vector<pp::StateId> members;
    for (pp::StateId t = s; t < merge_.size(); ++t) {
      if (merge_[t] == s) members.push_back(t);
    }
    if (members.size() > 1) classes.push_back(std::move(members));
  }
  return classes;
}

std::vector<char> LumpedMarkovAnalysis::target_orbits(
    const ConfigPredicate& target) const {
  std::vector<char> is_target(num_orbits(), 0);
  pp::Counts config;
  pp::Counts image;
  for (std::size_t orbit = 0; orbit < num_orbits(); ++orbit) {
    const auto rep = representative(orbit);
    config.assign(rep.begin(), rep.end());
    const bool value = target(config);
    for (std::size_t g = 1; g < group_.size(); ++g) {
      pp::permute_counts(group_[g], config, image);
      if (target(image) != value) {
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
  std::uint64_t leaving = 0;
  for (const auto& [target, numerator] : rates(orbit)) {
    if (target != orbit) leaving += numerator;
  }
  return denom_ - leaving;
}

LumpedMarkovAnalysis::JumpSystem LumpedMarkovAnalysis::jump_system(
    const std::vector<char>& excluded) const {
  JumpSystem sys;
  for (std::uint32_t scc = 0; scc < sccs_.size(); ++scc) {
    const auto members = sccs_.members(scc);
    for (auto it = members.rbegin(); it != members.rend(); ++it) {
      if (!excluded[*it]) sys.orbits.push_back(*it);
    }
  }
  order_lines(sys);
  const auto m = static_cast<std::uint32_t>(sys.orbits.size());
  // index[orbit] = its unknown, or UINT32_MAX for an excluded orbit.
  std::vector<std::uint32_t> index(num_orbits(), UINT32_MAX);
  for (std::uint32_t row = 0; row < m; ++row) index[sys.orbits[row]] = row;
  PPK_ASSERT(index[0] != UINT32_MAX);
  sys.initial = index[0];

  // Embedded jump chain: with L = denom - self_numerator (the leave rate),
  // row `orbit` is x[orbit] - sum_{j != orbit} (w_j / L) x[j].  Nulls and
  // within-orbit transitions both fold into L exactly -- no floating
  // accumulation of per-edge probabilities, so every entry is a single
  // exact-integer ratio.  Rows are assembled in place, each sorted by
  // column.  Every stored rate gives at most one entry, every row one
  // diagonal, which bounds the entries to reserve.
  util::CsrMatrix& a = sys.a;
  a.rows = a.cols = m;
  a.row_ptr.reserve(m + 1);
  a.row_ptr.push_back(0);
  a.col.reserve(rates_.size() + m);
  a.value.reserve(rates_.size() + m);
  sys.leave.reserve(m);
  std::vector<std::pair<std::uint32_t, double>> entries;
  for (std::uint32_t row = 0; row < m; ++row) {
    const std::uint32_t orbit = sys.orbits[row];
    const std::uint64_t leave = denom_ - self_numerator(orbit);
    // A zero leave rate would mean an absorbing unknown: its singleton SCC
    // is bottom, and callers exclude (or reject) every bottom SCC.
    PPK_ASSERT(leave > 0);
    sys.leave.push_back(static_cast<std::uint32_t>(leave));
    entries.clear();
    entries.emplace_back(row, 1.0);
    for (const auto& [target, numerator] : rates(orbit)) {
      if (target == orbit || index[target] == UINT32_MAX) continue;
      entries.emplace_back(index[target], -static_cast<double>(numerator) /
                                              static_cast<double>(leave));
    }
    // Rows are short (about 7 entries at k = 3): insertion sort.  Columns
    // are distinct, so it orders them exactly as std::sort would.
    for (std::size_t i = 1; i < entries.size(); ++i) {
      const auto entry = entries[i];
      std::size_t j = i;
      for (; j > 0 && entries[j - 1].first > entry.first; --j) {
        entries[j] = entries[j - 1];
      }
      entries[j] = entry;
    }
    for (const auto& [col, value] : entries) {
      a.col.push_back(col);
      a.value.push_back(value);
    }
    a.row_ptr.push_back(static_cast<std::uint32_t>(a.col.size()));
  }
  return sys;
}

void LumpedMarkovAnalysis::order_lines(JumpSystem& sys) const {
  // The first merge class's first state orders a line's members.
  auto first_state = static_cast<pp::StateId>(merge_.size());
  for (pp::StateId s = 0; s < merge_.size(); ++s) {
    if (merge_[s] != s) first_state = std::min(first_state, merge_[s]);
  }
  if (first_state == merge_.size()) return;  // no classes: one-orbit lines

  // Number the lines in order of their first member.  A line's key is its
  // summed representative followed by its SCC, kept flat and indexed like
  // the orbits themselves.
  const auto m = static_cast<std::uint32_t>(sys.orbits.size());
  const std::size_t stride = num_states_ + 1;
  std::vector<std::uint32_t> line_of(m);
  std::uint32_t lines = 0;
  {
    std::vector<std::uint32_t> keys;
    OrbitIndex index(keys, stride);
    pp::Counts key(stride);
    for (std::uint32_t row = 0; row < m; ++row) {
      const std::uint32_t orbit = sys.orbits[row];
      std::fill(key.begin(), key.end(), 0);
      const auto rep = representative(orbit);
      for (std::size_t s = 0; s < num_states_; ++s) key[merge_[s]] += rep[s];
      key[num_states_] = sccs_.of[orbit];
      const std::uint64_t hash = pp::CountsHash{}(key);
      std::uint32_t line = index.find(key, hash);
      if (line == OrbitIndex::kAbsent) {
        line = lines++;
        keys.insert(keys.end(), key.begin(), key.end());
        index.insert(line, hash);
      }
      line_of[row] = line;
    }
  }

  // Group the unknowns by line (a counting sort), each as one integer key,
  // (count of `first_state`, then descending orbit id), and sort each
  // line by it.
  std::vector<std::uint32_t> start(std::size_t{lines} + 1, 0);
  for (const std::uint32_t line : line_of) ++start[line + 1];
  for (std::uint32_t line = 0; line < lines; ++line) {
    start[line + 1] += start[line];
  }
  std::vector<std::uint64_t> grouped(m);
  {
    std::vector<std::uint32_t> fill(start.begin(), start.end() - 1);
    for (std::uint32_t row = 0; row < m; ++row) {
      const std::uint32_t orbit = sys.orbits[row];
      grouped[fill[line_of[row]]++] =
          (std::uint64_t{representative(orbit)[first_state]} << 32) |
          (UINT32_MAX - orbit);
    }
  }
  std::vector<std::uint32_t>().swap(line_of);
  for (std::uint32_t line = 0; line < lines; ++line) {
    std::sort(grouped.begin() + start[line], grouped.begin() + start[line + 1]);
  }
  for (std::uint32_t row = 0; row < m; ++row) {
    sys.orbits[row] = UINT32_MAX - static_cast<std::uint32_t>(grouped[row]);
  }
  sys.line_end.assign(start.begin() + 1, start.end());
}

std::optional<double> LumpedMarkovAnalysis::expected_hitting_time(
    const ConfigPredicate& target, util::SolveCertificate* certificate) const {
  if (certificate != nullptr) *certificate = kNoSolve;
  const std::vector<char> is_target = target_orbits(target);
  if (is_target[0]) return 0.0;  // orbit 0 holds the initial configuration

  // Hit with probability 1 iff every bottom SCC contains a target orbit
  // (lumping preserves bottom SCCs: orbits of raw bottom SCCs).
  std::vector<char> scc_has_target(sccs_.size(), 0);
  for (std::size_t orbit = 0; orbit < num_orbits(); ++orbit) {
    if (is_target[orbit]) scc_has_target[sccs_.of[orbit]] = 1;
  }
  for (std::uint32_t scc = 0; scc < sccs_.size(); ++scc) {
    if (sccs_.bottom[scc] && !scc_has_target[scc]) return std::nullopt;
  }

  // Unknowns: the non-target orbits.  E[orbit] = denom/L + sum_j (w_j/L)
  // E[j], and solve_sparse takes the block-lower-triangular system one SCC
  // block at a time, absorbing side first, and line by line inside it.
  JumpSystem sys = jump_system(is_target);
  std::vector<double> b(sys.orbits.size());
  for (std::size_t row = 0; row < b.size(); ++row) {
    b[row] = static_cast<double>(denom_) / static_cast<double>(sys.leave[row]);
  }
  // The solve needs only the matrix and the lines: free the rest before it
  // allocates.
  std::vector<std::uint32_t>().swap(sys.orbits);
  std::vector<std::uint32_t>().swap(sys.leave);
  std::vector<double> x;
  const util::SolveCertificate cert =
      util::solve_sparse(sys.a, b, x, solver_, sys.line_end);
  if (certificate != nullptr) *certificate = cert;
  if (!cert.converged) throw_uncertified(cert, "");
  return x[sys.initial];
}

std::vector<LumpedMarkovAnalysis::Absorption>
LumpedMarkovAnalysis::absorption_probabilities(
    util::SolveCertificate* certificate) const {
  if (certificate != nullptr) *certificate = kNoSolve;
  // The first orbit of each bottom SCC names the absorption outcome.
  const std::vector<std::uint32_t> bottoms = sccs_.bottoms();
  const auto first_rep = [&](std::uint32_t scc) {
    const auto rep = representative(sccs_.members(scc).front());
    return pp::Counts(rep.begin(), rep.end());
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

  // Unknowns: the transient orbits.  One matrix, one rhs per bottom SCC:
  // (I - Q) x = r with r[orbit] = P(jump from orbit directly into the SCC).
  std::vector<char> in_bottom(num_orbits(), 0);
  for (std::size_t orbit = 0; orbit < num_orbits(); ++orbit) {
    in_bottom[orbit] = sccs_.bottom[sccs_.of[orbit]];
  }
  const JumpSystem sys = jump_system(in_bottom);
  for (const std::uint32_t scc : bottoms) {
    std::vector<double> b(sys.orbits.size(), 0.0);
    for (std::size_t row = 0; row < b.size(); ++row) {
      for (const auto& [target, numerator] : rates(sys.orbits[row])) {
        if (in_bottom[target] && sccs_.of[target] == scc) {
          b[row] += static_cast<double>(numerator) /
                    static_cast<double>(sys.leave[row]);
        }
      }
    }
    std::vector<double> x;
    const util::SolveCertificate cert =
        util::solve_sparse(sys.a, b, x, solver_, sys.line_end);
    if (certificate != nullptr) {
      certificate->converged = certificate->converged && cert.converged;
      certificate->sweeps = std::max(certificate->sweeps, cert.sweeps);
      certificate->residual = cert.residual;
      certificate->residual_bound = cert.residual_bound;
      certificate->blocks = std::max(certificate->blocks, cert.blocks);
      certificate->row_updates += cert.row_updates;
    }
    if (!cert.converged) {
      throw_uncertified(cert, " for SCC " + std::to_string(scc));
    }
    result.push_back(Absorption{scc, first_rep(scc), x[sys.initial]});
  }
  return result;
}

std::vector<double> LumpedMarkovAnalysis::hitting_time_cdf(
    const ConfigPredicate& target, std::size_t horizon) const {
  const std::vector<char> is_target = target_orbits(target);

  // Step the full lumped chain (self-loops as stay mass) with target
  // orbits absorbing; F[t] is then exactly the absorbed mass after t
  // interactions.
  std::vector<double> dist(num_orbits(), 0.0);
  dist[0] = 1.0;
  std::vector<double> next(num_orbits(), 0.0);
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
      // One pass over the row: the off-orbit entries move mass on, and
      // denom_ minus their sum is the self-loop numerator.  The self term
      // is this row's only addition to next[orbit], so adding it last
      // leaves every sum in its order.
      std::uint64_t leaving = 0;
      for (const auto& [target_orbit, numerator] : rates(orbit)) {
        if (target_orbit == orbit) continue;
        leaving += numerator;
        next[target_orbit] += mass * (static_cast<double>(numerator) / denom);
      }
      next[orbit] += mass * (static_cast<double>(denom_ - leaving) / denom);
    }
    dist.swap(next);
    cdf[t] = absorbed(dist);
  }
  return cdf;
}

}  // namespace ppk::verify
