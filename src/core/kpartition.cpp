#include "core/kpartition.hpp"

#include "pp/symmetry.hpp"
#include "util/assert.hpp"

namespace ppk::core {

namespace {

/// initial <-> initial'.
pp::StateId flip(pp::StateId free_state) {
  return free_state == 0 ? pp::StateId{1} : pp::StateId{0};
}

pp::Transition swapped(const pp::Transition& t) {
  return pp::Transition{t.responder, t.initiator};
}

}  // namespace

// ---------------------------------------------------------------------------
// KPartitionProtocol
// ---------------------------------------------------------------------------

KPartitionProtocol::KPartitionProtocol(pp::GroupId k) : k_(k) {
  PPK_EXPECTS(k >= 2);
}

std::string KPartitionProtocol::name() const {
  return "kpartition(k=" + std::to_string(k_) + ")";
}

pp::StateId KPartitionProtocol::num_states() const {
  // |I| + |G| + |M| + |D| = 2 + k + (k-2) + (k-2) = 3k - 2; for k = 2 the
  // M and D ranges are empty and the formula still gives 4.
  return static_cast<pp::StateId>(3 * k_ - 2);
}

pp::StateId KPartitionProtocol::g(pp::GroupId x) const {
  PPK_EXPECTS(x >= 1 && x <= k_);
  return static_cast<pp::StateId>(2 + (x - 1));
}

pp::StateId KPartitionProtocol::m(pp::GroupId p) const {
  PPK_EXPECTS(k_ >= 3 && p >= 2 && p <= k_ - 1);
  return static_cast<pp::StateId>(2 + k_ + (p - 2));
}

pp::StateId KPartitionProtocol::d(pp::GroupId q) const {
  PPK_EXPECTS(k_ >= 3 && q >= 1 && q <= k_ - 2);
  return static_cast<pp::StateId>(2 + k_ + (k_ - 2) + (q - 1));
}

bool KPartitionProtocol::is_g(pp::StateId s) const noexcept {
  return s >= 2 && s < 2 + k_;
}

bool KPartitionProtocol::is_m(pp::StateId s) const noexcept {
  return s >= 2 + k_ && s < 2 + k_ + (k_ - 2);
}

bool KPartitionProtocol::is_d(pp::StateId s) const noexcept {
  return s >= 2 + k_ + (k_ - 2) && s < num_states();
}

pp::GroupId KPartitionProtocol::index_of(pp::StateId s) const {
  PPK_EXPECTS(!is_free(s));
  if (is_g(s)) return static_cast<pp::GroupId>(s - 2 + 1);
  if (is_m(s)) return static_cast<pp::GroupId>(s - (2 + k_) + 2);
  return static_cast<pp::GroupId>(s - (2 + k_ + (k_ - 2)) + 1);
}

pp::GroupId KPartitionProtocol::group(pp::StateId s) const {
  // f(ini) = 1, f(gi) = i, f(mi) = i, f(di) = 1 -- zero-based externally.
  if (is_free(s) || is_d(s)) return 0;
  return static_cast<pp::GroupId>(index_of(s) - 1);
}

std::string KPartitionProtocol::state_name(pp::StateId s) const {
  if (s == kInitial) return "initial";
  if (s == kInitialPrime) return "initial'";
  if (is_g(s)) return "g" + std::to_string(index_of(s));
  if (is_m(s)) return "m" + std::to_string(index_of(s));
  return "d" + std::to_string(index_of(s));
}

std::optional<pp::Transition> KPartitionProtocol::rule(pp::StateId p,
                                                       pp::StateId q) const {
  // Rules 1, 2, 5: interactions among free agents.
  if (is_free(p) && is_free(q)) {
    if (p == q) {
      // Rule 1: (initial, initial)   -> (initial', initial')
      // Rule 2: (initial', initial') -> (initial, initial)
      return pp::Transition{flip(p), flip(q)};
    }
    // Rule 5: (initial, initial') -> (g1, m2); for k = 2 the builder chain
    // is empty and the pair completes a group immediately: -> (g1, g2).
    if (p == kInitial) {
      return pp::Transition{g(1), k_ >= 3 ? m(2) : g(2)};
    }
    return std::nullopt;  // (initial', initial): handled by the mirror
  }

  // Rule 3: (di, ini) -> (di, flip(ini)).
  if (is_d(p) && is_free(q)) return pp::Transition{p, flip(q)};

  // Rule 4: (gi, ini) -> (gi, flip(ini)).
  if (is_g(p) && is_free(q)) return pp::Transition{p, flip(q)};

  if (is_free(p) && is_m(q)) {
    const pp::GroupId i = index_of(q);
    // Rule 6: (ini, mi) -> (gi, m(i+1)) for 2 <= i <= k-2.
    if (i <= k_ - 2) return pp::Transition{g(i), m(static_cast<pp::GroupId>(i + 1))};
    // Rule 7: (ini, m(k-1)) -> (g(k-1), gk).
    return pp::Transition{g(static_cast<pp::GroupId>(k_ - 1)), g(k_)};
  }

  // Rule 8: (mi, mj) -> (d(i-1), d(j-1)) for 2 <= i, j <= k-1.
  if (is_m(p) && is_m(q)) {
    const pp::GroupId i = index_of(p);
    const pp::GroupId j = index_of(q);
    return pp::Transition{d(static_cast<pp::GroupId>(i - 1)),
                          d(static_cast<pp::GroupId>(j - 1))};
  }

  if (is_d(p) && is_g(q)) {
    const pp::GroupId i = index_of(p);
    if (index_of(q) != i) return std::nullopt;  // only matching indices react
    // Rule 9: (di, gi) -> (d(i-1), initial) for 2 <= i <= k-2.
    if (i >= 2) {
      return pp::Transition{d(static_cast<pp::GroupId>(i - 1)), kInitial};
    }
    // Rule 10: (d1, g1) -> (initial, initial).
    return pp::Transition{kInitial, kInitial};
  }

  return std::nullopt;
}

pp::Transition KPartitionProtocol::delta(pp::StateId p, pp::StateId q) const {
  PPK_EXPECTS(p < num_states() && q < num_states());
  if (auto t = rule(p, q)) return *t;
  if (auto t = rule(q, p)) return swapped(*t);
  return pp::Transition{p, q};  // null interaction
}

pp::SymmetrySpec KPartitionProtocol::symmetry() const {
  pp::SymmetrySpec spec{num_states(), {}};
  if (k_ == 2) {
    spec.generators.push_back(
        pp::transposition(num_states(), kInitial, kInitialPrime));
    spec.generators.push_back(pp::transposition(num_states(), g(1), g(2)));
  }
  // k >= 3 admits no non-trivial state symmetry: rules 9 and 10 release
  // demolished agents as the specific free state `initial`, so the
  // initial <-> initial' flip is not a table automorphism (check_symmetry
  // rejects it at the (g1, d1) pair), and the builder/demolisher chains
  // pin every group index, so the exact analysis solves the unlumped
  // chain.
  return spec;
}

// ---------------------------------------------------------------------------
// BasicStrategyProtocol (transitions 1-7 only; intentionally incorrect)
// ---------------------------------------------------------------------------

BasicStrategyProtocol::BasicStrategyProtocol(pp::GroupId k) : k_(k) {
  PPK_EXPECTS(k >= 3);
}

std::string BasicStrategyProtocol::name() const {
  return "basic-strategy(k=" + std::to_string(k_) + ")";
}

pp::StateId BasicStrategyProtocol::num_states() const {
  return static_cast<pp::StateId>(2 * k_);  // I u G u M, no D
}

pp::StateId BasicStrategyProtocol::g(pp::GroupId x) const {
  PPK_EXPECTS(x >= 1 && x <= k_);
  return static_cast<pp::StateId>(2 + (x - 1));
}

pp::StateId BasicStrategyProtocol::m(pp::GroupId p) const {
  PPK_EXPECTS(p >= 2 && p <= k_ - 1);
  return static_cast<pp::StateId>(2 + k_ + (p - 2));
}

pp::GroupId BasicStrategyProtocol::group(pp::StateId s) const {
  if (s <= 1) return 0;                                   // f(ini) = 1
  if (s < 2 + k_) return static_cast<pp::GroupId>(s - 2);  // f(gi) = i
  return static_cast<pp::GroupId>(s - (2 + k_) + 1);       // f(mi) = i
}

std::string BasicStrategyProtocol::state_name(pp::StateId s) const {
  if (s == 0) return "initial";
  if (s == 1) return "initial'";
  if (s < 2 + k_) return "g" + std::to_string(s - 1);
  return "m" + std::to_string(s - (2 + k_) + 2);
}

std::optional<pp::Transition> BasicStrategyProtocol::rule(
    pp::StateId p, pp::StateId q) const {
  const bool p_free = p <= 1;
  const bool q_free = q <= 1;
  const bool p_g = p >= 2 && p < 2 + k_;
  const bool q_m = q >= 2 + k_;

  if (p_free && q_free) {
    if (p == q) return pp::Transition{flip(p), flip(q)};   // rules 1, 2
    if (p == 0) return pp::Transition{g(1), m(2)};          // rule 5
    return std::nullopt;
  }
  if (p_g && q_free) return pp::Transition{p, flip(q)};     // rule 4
  if (p_free && q_m) {
    const auto i = static_cast<pp::GroupId>(q - (2 + k_) + 2);
    if (i <= k_ - 2) {                                      // rule 6
      return pp::Transition{g(i), m(static_cast<pp::GroupId>(i + 1))};
    }
    return pp::Transition{g(static_cast<pp::GroupId>(k_ - 1)), g(k_)};  // 7
  }
  return std::nullopt;
}

pp::Transition BasicStrategyProtocol::delta(pp::StateId p,
                                            pp::StateId q) const {
  PPK_EXPECTS(p < num_states() && q < num_states());
  if (auto t = rule(p, q)) return *t;
  if (auto t = rule(q, p)) return swapped(*t);
  return pp::Transition{p, q};
}

pp::SymmetrySpec BasicStrategyProtocol::symmetry() const {
  pp::SymmetrySpec spec{num_states(), {}};
  spec.generators.push_back(pp::transposition(num_states(), 0, 1));
  return spec;
}

}  // namespace ppk::core
