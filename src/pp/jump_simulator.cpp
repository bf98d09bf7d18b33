#include "pp/jump_simulator.hpp"

namespace ppk::pp {

JumpSimulator::JumpSimulator(const TransitionTable& table, Counts initial,
                             std::uint64_t seed)
    : counts_(std::move(initial)), rng_(seed), sampler_(table, counts_) {
  for (auto c : counts_) n_ += c;
}

bool JumpSimulator::step(StabilityOracle& oracle) {
  return advance(oracle, UINT64_MAX).interactions > 0;
}

Advance JumpSimulator::advance(StabilityOracle& oracle, std::uint64_t budget) {
  if (sampler_.weight() == 0) return {};  // silent configuration
  // Null skips move no count, so every increase of the watched count lands
  // on the effective pair, at the current interaction index.
  const std::uint32_t before =
      watch_marks_ == nullptr ? 0 : counts_[watch_state_];
  const Advance advanced =
      sampler_.step(rng_, counts_, oracle, budget, interactions_, effective_,
                    obs_, obs::AdvanceKind::kJump);
  if (watch_marks_ != nullptr) {
    for (std::uint32_t c = before; c < counts_[watch_state_]; ++c) {
      watch_marks_->push_back(interactions_);
    }
  }
  return advanced;
}

Snapshot JumpSimulator::snapshot() const {
  SnapshotWriter w("jump");
  w.rng(rng_);
  w.u64(interactions_);
  w.u64(effective_);
  w.counts(counts_);
  return std::move(w).take();
}

void JumpSimulator::restore(const Snapshot& snap) {
  SnapshotReader r(snap, "jump");
  r.rng(rng_);
  interactions_ = r.u64();
  effective_ = r.u64();
  Counts counts = r.counts();
  r.finish();
  PPK_EXPECTS(counts.size() == counts_.size());
  counts_ = std::move(counts);
  std::uint64_t n = 0;
  for (const std::uint32_t c : counts_) n += c;
  PPK_EXPECTS(n == n_);
  sampler_.rebuild(counts_);
}

template class EngineLoop<JumpSimulator>;

}  // namespace ppk::pp
