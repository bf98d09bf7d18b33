#include "verify/agent_graph.hpp"

#include <algorithm>
#include <bit>
#include <deque>

#include "util/assert.hpp"

namespace ppk::verify {

AgentConfigGraph::AgentConfigGraph(const pp::Protocol& protocol,
                                   const pp::TransitionTable& table,
                                   std::uint32_t n, Options options)
    : n_(n), table_(&table) {
  PPK_EXPECTS(n >= 2);
  PPK_EXPECTS(table.num_states() == protocol.num_states());
  const auto num_states = static_cast<std::uint32_t>(table.num_states());
  bits_ = std::max(1U, static_cast<std::uint32_t>(
                           std::bit_width(num_states - 1)));
  PPK_EXPECTS(static_cast<std::uint64_t>(n) * bits_ <= 64);
  mask_ = (bits_ == 64) ? ~0ULL : ((1ULL << bits_) - 1);

  if (options.topology != nullptr) {
    PPK_EXPECTS(options.topology->num_agents() == n);
    pairs_ = options.topology->edges();
  } else {
    pairs_.reserve(static_cast<std::size_t>(n) * (n - 1) / 2);
    for (std::uint32_t a = 0; a < n; ++a) {
      for (std::uint32_t b = a + 1; b < n; ++b) pairs_.emplace_back(a, b);
    }
  }

  std::uint64_t initial_key = 0;
  const auto s0 = static_cast<std::uint64_t>(protocol.initial_state());
  for (std::uint32_t a = 0; a < n; ++a) initial_key |= s0 << (a * bits_);

  keys_.push_back(initial_key);
  index_.emplace(initial_key, 0);
  explore(table, options);
  if (complete_) {
    sccs_ = condense(static_cast<std::uint32_t>(keys_.size()),
                     [&](std::uint32_t u) -> const std::vector<std::uint32_t>& {
                       return succ_[u];
                     });
  }
}

std::vector<pp::StateId> AgentConfigGraph::config(std::size_t index) const {
  std::vector<pp::StateId> states(n_);
  for (std::uint32_t a = 0; a < n_; ++a) states[a] = state_of(index, a);
  return states;
}

std::uint32_t AgentConfigGraph::apply(std::size_t config, std::uint32_t i,
                                      std::uint32_t j) const {
  PPK_EXPECTS(i < n_ && j < n_ && i != j);
  const pp::StateId p = state_of(config, i);
  const pp::StateId q = state_of(config, j);
  if (!table_->effective(p, q)) return static_cast<std::uint32_t>(config);
  const pp::Transition& t = table_->apply(p, q);
  std::uint64_t key = keys_[config];
  key &= ~(mask_ << (i * bits_));
  key &= ~(mask_ << (j * bits_));
  key |= static_cast<std::uint64_t>(t.initiator) << (i * bits_);
  key |= static_cast<std::uint64_t>(t.responder) << (j * bits_);
  const auto it = index_.find(key);
  PPK_ASSERT(it != index_.end());  // the graph is transition-closed
  return it->second;
}

void AgentConfigGraph::explore(const pp::TransitionTable& table,
                               const Options& options) {
  std::deque<std::uint32_t> frontier;
  frontier.push_back(0);

  auto intern = [&](std::uint64_t key) -> std::uint32_t {
    auto [it, inserted] =
        index_.try_emplace(key, static_cast<std::uint32_t>(keys_.size()));
    if (inserted) {
      keys_.push_back(key);
      frontier.push_back(it->second);
    }
    return it->second;
  };

  while (!frontier.empty()) {
    if (keys_.size() > options.max_configs) {
      complete_ = false;
      return;
    }
    const std::uint32_t current = frontier.front();
    frontier.pop_front();
    const std::uint64_t key = keys_[current];

    std::vector<std::uint32_t> out;
    for (const auto& [a, b] : pairs_) {
      const auto pa = static_cast<pp::StateId>((key >> (a * bits_)) & mask_);
      const auto pb = static_cast<pp::StateId>((key >> (b * bits_)) & mask_);
      // Both orientations of the meeting are schedulable.
      for (int orient = 0; orient < 2; ++orient) {
        const std::uint32_t i = orient == 0 ? a : b;
        const std::uint32_t j = orient == 0 ? b : a;
        const pp::StateId p = orient == 0 ? pa : pb;
        const pp::StateId q = orient == 0 ? pb : pa;
        if (!table.effective(p, q)) continue;
        const pp::Transition& t = table.apply(p, q);
        std::uint64_t next = key;
        next &= ~(mask_ << (i * bits_));
        next &= ~(mask_ << (j * bits_));
        next |= static_cast<std::uint64_t>(t.initiator) << (i * bits_);
        next |= static_cast<std::uint64_t>(t.responder) << (j * bits_);
        out.push_back(intern(next));
      }
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    succ_.push_back(std::move(out));  // configs leave the FIFO in index order
  }
}

}  // namespace ppk::verify
