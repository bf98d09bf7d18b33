#include "pp/graph_jump_simulator.hpp"

#include <limits>

#include "obs/sink.hpp"

namespace ppk::pp {

namespace {
constexpr std::uint32_t kNoPos = std::numeric_limits<std::uint32_t>::max();
}  // namespace

GraphJumpSimulator::GraphJumpSimulator(const TransitionTable& table,
                                       InteractionGraph graph,
                                       Population population,
                                       std::uint64_t seed)
    : table_(&table),
      graph_(std::move(graph)),
      population_(std::move(population)),
      rng_(seed) {
  PPK_EXPECTS(graph_.num_agents() == population_.size());
  PPK_EXPECTS(!graph_.edges().empty());
  // Directed edge ids are 2 * edge + orientation in a uint32.
  PPK_EXPECTS(graph_.edges().size() <= (kNoPos - 1) / 2);

  const std::uint32_t n = graph_.num_agents();
  const auto& edges = graph_.edges();

  // CSR adjacency, two passes: degree count, then slot fill.
  adj_offset_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (const auto& [a, b] : edges) {
    ++adj_offset_[a + 1];
    ++adj_offset_[b + 1];
  }
  for (std::uint32_t v = 0; v < n; ++v) adj_offset_[v + 1] += adj_offset_[v];
  adj_edge_.resize(edges.size() * 2);
  std::vector<std::uint64_t> cursor(adj_offset_.begin(),
                                    adj_offset_.end() - 1);
  for (std::uint32_t e = 0; e < edges.size(); ++e) {
    adj_edge_[cursor[edges[e].first]++] = e;
    adj_edge_[cursor[edges[e].second]++] = e;
  }

  live_.reserve(edges.size());
  rebuild_live();
}

void GraphJumpSimulator::rebuild_live() {
  const auto& edges = graph_.edges();
  live_.clear();
  pos_.assign(edges.size() * 2, kNoPos);
  for (std::uint32_t e = 0; e < edges.size(); ++e) {
    const auto& [a, b] = edges[e];
    const StateId sa = population_.state_of(a);
    const StateId sb = population_.state_of(b);
    set_live(2 * e, table_->effective(sa, sb));
    set_live(2 * e + 1, table_->effective(sb, sa));
  }
}

Snapshot GraphJumpSimulator::snapshot() const {
  SnapshotWriter w("graph-jump");
  w.rng(rng_);
  w.u64(interactions_);
  w.u64(effective_);
  w.u64(has_pending_ ? 1 : 0);
  w.u64(pending_nulls_);
  w.states(population_.states());
  // The live list's *order* is sampling state, not a derived cache: draws
  // index into it uniformly, and swap-removal makes the order history
  // -dependent, so a canonical rebuild would redirect the next draw and
  // break restore()'s bit-identity contract.  Serialize it verbatim.
  w.u64(live_.size());
  for (const std::uint32_t d : live_) w.u64(d);
  return std::move(w).take();
}

void GraphJumpSimulator::restore(const Snapshot& snap) {
  SnapshotReader r(snap, "graph-jump");
  r.rng(rng_);
  interactions_ = r.u64();
  effective_ = r.u64();
  const std::uint64_t pending_flag = r.u64();
  PPK_EXPECTS(pending_flag <= 1);
  has_pending_ = pending_flag == 1;
  pending_nulls_ = r.u64();
  auto states = r.states(table_->num_states());
  const std::uint64_t num_directed = graph_.edges().size() * 2;
  const std::uint64_t num_live = r.u64();
  PPK_EXPECTS(num_live <= num_directed);
  std::vector<std::uint32_t> live(num_live, 0);
  for (auto& d : live) d = r.u32();
  r.finish();
  PPK_EXPECTS(states.size() == population_.size());
  population_.restore_states(std::move(states));
  live_ = std::move(live);
  pos_.assign(num_directed, kNoPos);
  for (std::uint32_t i = 0; i < live_.size(); ++i) {
    const std::uint32_t d = live_[i];
    PPK_EXPECTS(d < num_directed && pos_[d] == kNoPos);
    pos_[d] = i;
  }
  // The serialized order is trusted; the *membership* is not -- it must be
  // exactly the set of effective directed edges under the restored states.
  const auto& edges = graph_.edges();
  for (std::uint32_t e = 0; e < edges.size(); ++e) {
    const auto& [a, b] = edges[e];
    const StateId sa = population_.state_of(a);
    const StateId sb = population_.state_of(b);
    PPK_EXPECTS((pos_[2 * e] != kNoPos) == table_->effective(sa, sb));
    PPK_EXPECTS((pos_[2 * e + 1] != kNoPos) == table_->effective(sb, sa));
  }
}

void GraphJumpSimulator::set_live(std::uint32_t d, bool live) {
  const std::uint32_t p = pos_[d];
  if (live) {
    if (p != kNoPos) return;
    pos_[d] = static_cast<std::uint32_t>(live_.size());
    live_.push_back(d);
    return;
  }
  if (p == kNoPos) return;
  const std::uint32_t moved = live_.back();
  live_[p] = moved;
  pos_[moved] = p;
  live_.pop_back();
  pos_[d] = kNoPos;
}

void GraphJumpSimulator::refresh_incident(std::uint32_t v) {
  const auto& edges = graph_.edges();
  const std::uint64_t begin = adj_offset_[v];
  const std::uint64_t end = adj_offset_[v + 1];
  for (std::uint64_t s = begin; s < end; ++s) {
    const std::uint32_t e = adj_edge_[s];
    const auto& [a, b] = edges[e];
    const StateId sa = population_.state_of(a);
    const StateId sb = population_.state_of(b);
    set_live(2 * e, table_->effective(sa, sb));
    set_live(2 * e + 1, table_->effective(sb, sa));
  }
}

bool GraphJumpSimulator::step(StabilityOracle& oracle) {
  return advance(oracle, UINT64_MAX).interactions > 0;
}

Advance GraphJumpSimulator::advance(StabilityOracle& oracle,
                                    std::uint64_t budget) {
  if (live_.empty()) return {};  // dead-silent on this graph (wedged)

  if (!has_pending_) {
    // Each drawn pair is effective with probability L / 2m (uniform
    // directed edge, live iff effective), so the null-run length ahead is
    // geometric(p_eff).  Liveness cannot change during the run, so the
    // draw stays exact even if a budget boundary splits it.
    const double p_eff =
        static_cast<double>(live_.size()) /
        (2.0 * static_cast<double>(graph_.edges().size()));
    pending_nulls_ = rng_.geometric(p_eff);
    has_pending_ = true;
  }
  if (pending_nulls_ >= budget) {
    // Consume exactly `budget` nulls and park the remainder for the next
    // grant; the RNG stream is untouched, so chunked runs stay
    // bit-identical to unchunked ones.
    interactions_ += budget;
    pending_nulls_ -= budget;
    PPK_OBS_HOOK(obs_, on_skip(population_.counts(), interactions_, budget,
                               obs::AdvanceKind::kJump));
    return {budget, false};
  }
  const std::uint64_t nulls = pending_nulls_;
  pending_nulls_ = 0;
  has_pending_ = false;
  interactions_ += nulls + 1;
  ++effective_;
  // Counts are untouched during the null run, so reporting it before the
  // pair is applied gives the timeline exact configurations at boundaries
  // inside the run.
  if (nulls > 0) {
    PPK_OBS_HOOK(obs_, on_skip(population_.counts(), interactions_ - 1, nulls,
                               obs::AdvanceKind::kJump));
  }

  const std::uint32_t directed =
      live_[rng_.below(static_cast<std::uint64_t>(live_.size()))];
  const auto& [a, b] = graph_.edges()[directed >> 1];
  const std::uint32_t i = (directed & 1u) == 0 ? a : b;
  const std::uint32_t j = (directed & 1u) == 0 ? b : a;
  const StateId p = population_.state_of(i);
  const StateId q = population_.state_of(j);
  const Transition& t = table_->apply(p, q);
  population_.apply(i, j, t);
  refresh_incident(i);
  refresh_incident(j);

  if (watch_marks_ != nullptr) {
    const int delta = (t.initiator == watch_state_ ? 1 : 0) +
                      (t.responder == watch_state_ ? 1 : 0) -
                      (p == watch_state_ ? 1 : 0) -
                      (q == watch_state_ ? 1 : 0);
    for (int w = 0; w < delta; ++w) watch_marks_->push_back(interactions_);
  }
  oracle.on_transition(p, q, t.initiator, t.responder);
  PPK_OBS_HOOK(obs_, on_apply(population_.counts(), interactions_,
                              obs::AdvanceKind::kJump));
  return {nulls + 1, true};
}

template class EngineLoop<GraphJumpSimulator>;

}  // namespace ppk::pp
