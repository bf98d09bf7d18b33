#include "core/invariants.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace ppk::core {

bool lemma1_holds(const KPartitionProtocol& protocol,
                  const pp::Counts& counts) {
  const pp::GroupId k = protocol.k();
  PPK_EXPECTS(counts.size() == protocol.num_states());

  const std::uint64_t gk = counts[protocol.g(k)];
  for (pp::GroupId x = 1; x <= k; ++x) {
    std::uint64_t rhs = gk;
    for (pp::GroupId p = static_cast<pp::GroupId>(x + 1); p <= k - 1; ++p) {
      if (p >= 2) rhs += counts[protocol.m(p)];
    }
    for (pp::GroupId q = x; q <= k - 2; ++q) {
      rhs += counts[protocol.d(q)];
    }
    if (counts[protocol.g(x)] != rhs) return false;
  }
  return true;
}

pp::Counts stable_counts(const KPartitionProtocol& protocol, std::uint32_t n) {
  const pp::GroupId k = protocol.k();
  PPK_EXPECTS(n >= 3);
  const std::uint32_t floor_nk = n / k;
  const std::uint32_t r = n % k;

  pp::Counts target(protocol.num_states(), 0);
  for (pp::GroupId x = 1; x <= k; ++x) {
    target[protocol.g(x)] = floor_nk + (r >= 2 && x <= r - 1 ? 1 : 0);
  }
  if (r == 1) {
    target[KPartitionProtocol::kInitial] = 1;  // one free agent remains
  } else if (r >= 2) {
    target[protocol.m(static_cast<pp::GroupId>(r))] = 1;
  }
  return target;
}

bool matches_stable_pattern(const KPartitionProtocol& protocol,
                            std::uint32_t n, const pp::Counts& counts) {
  const pp::GroupId k = protocol.k();
  PPK_EXPECTS(counts.size() == protocol.num_states());
  PPK_EXPECTS(n >= 3);
  const std::uint32_t floor_nk = n / k;
  const std::uint32_t r = n % k;

  // stable_counts' pattern, compared state by state without building it:
  // exact answers test every orbit against it.  The two free states form
  // one equivalence class (the leftover agent may be initial or initial').
  if (counts[KPartitionProtocol::kInitial] +
          counts[KPartitionProtocol::kInitialPrime] !=
      (r == 1 ? 1u : 0u)) {
    return false;
  }
  for (pp::GroupId x = 1; x <= k; ++x) {
    if (counts[protocol.g(x)] != floor_nk + (r >= 2 && x <= r - 1 ? 1 : 0)) {
      return false;
    }
  }
  for (pp::GroupId p = 2; p + 1 <= k; ++p) {
    if (counts[protocol.m(p)] != (r >= 2 && p == r ? 1u : 0u)) return false;
  }
  for (pp::GroupId q = 1; q + 2 <= k; ++q) {
    if (counts[protocol.d(q)] != 0) return false;
  }
  return true;
}

namespace {

/// stable_pattern_oracle's logic, minus the fixed-n assumption: the target
/// pattern is a function of the live population size and is recomputed on
/// every reset() / on_external_change().  Kept simple (full recount per
/// rebuild, O(1) per transition) -- churn events are rare next to
/// interactions.
class ChurnAwareStableOracle final : public pp::StabilityOracle {
 public:
  explicit ChurnAwareStableOracle(const KPartitionProtocol& protocol)
      : protocol_(&protocol),
        current_(protocol.num_states(), 0),
        target_(protocol.num_states(), 0) {}

  void reset(const pp::Counts& counts) override { rebuild(counts); }

  void on_external_change(const pp::Counts& counts) override {
    rebuild(counts);
  }

  void on_transition(pp::StateId p, pp::StateId q, pp::StateId p_next,
                     pp::StateId q_next) override {
    bump(p, -1);
    bump(q, -1);
    bump(p_next, +1);
    bump(q_next, +1);
  }

  [[nodiscard]] bool stable() const override {
    return n_ >= 3 && mismatch_ == 0;
  }

 private:
  /// {initial, initial'} count as one class; other states stand alone.
  [[nodiscard]] static std::size_t cls(pp::StateId s) noexcept {
    return s <= 1 ? 0 : static_cast<std::size_t>(s) - 1;
  }

  void rebuild(const pp::Counts& counts) {
    PPK_EXPECTS(counts.size() == protocol_->num_states());
    n_ = 0;
    for (auto c : counts) n_ += c;
    std::fill(current_.begin(), current_.end(), 0u);
    std::fill(target_.begin(), target_.end(), 0u);
    for (pp::StateId s = 0; s < counts.size(); ++s) {
      current_[cls(s)] += counts[s];
    }
    if (n_ >= 3) {
      const pp::Counts by_state = stable_counts(*protocol_, n_);
      for (pp::StateId s = 0; s < by_state.size(); ++s) {
        target_[cls(s)] += by_state[s];
      }
    }
    mismatch_ = 0;
    for (std::size_t c = 0; c + 1 < current_.size(); ++c) {
      if (current_[c] != target_[c]) ++mismatch_;
    }
  }

  void bump(pp::StateId s, int delta) {
    const std::size_t c = cls(s);
    const bool was_ok = current_[c] == target_[c];
    current_[c] = static_cast<std::uint32_t>(
        static_cast<std::int64_t>(current_[c]) + delta);
    const bool now_ok = current_[c] == target_[c];
    if (was_ok && !now_ok) ++mismatch_;
    if (!was_ok && now_ok) --mismatch_;
  }

  const KPartitionProtocol* protocol_;
  std::uint32_t n_ = 0;
  /// Indexed by class; the last slot (class of the top state) is unused
  /// padding so cls() needs no bound checks.
  std::vector<std::uint32_t> current_;
  std::vector<std::uint32_t> target_;
  std::uint32_t mismatch_ = 0;
};

}  // namespace

std::unique_ptr<pp::StabilityOracle> churn_aware_stable_oracle(
    const KPartitionProtocol& protocol) {
  return std::make_unique<ChurnAwareStableOracle>(protocol);
}

std::unique_ptr<pp::StabilityOracle> stable_pattern_oracle(
    const KPartitionProtocol& protocol, std::uint32_t n) {
  const pp::StateId num_states = protocol.num_states();
  const pp::Counts target_by_state = stable_counts(protocol, n);

  // Merge {initial, initial'} into class 0; state s >= 2 gets class s - 1.
  std::vector<std::uint16_t> state_class(num_states);
  state_class[0] = 0;
  state_class[1] = 0;
  for (pp::StateId s = 2; s < num_states; ++s) {
    state_class[s] = static_cast<std::uint16_t>(s - 1);
  }
  std::vector<std::uint32_t> target(num_states - 1u, 0);
  target[0] = target_by_state[0] + target_by_state[1];
  for (pp::StateId s = 2; s < num_states; ++s) {
    target[static_cast<std::size_t>(s) - 1] = target_by_state[s];
  }
  return std::make_unique<pp::CountPatternOracle>(std::move(state_class),
                                                  std::move(target));
}

}  // namespace ppk::core
