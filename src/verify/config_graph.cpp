#include "verify/config_graph.hpp"

#include <deque>

#include "util/assert.hpp"

namespace ppk::verify {

ConfigGraph::ConfigGraph(const pp::TransitionTable& table,
                         const pp::Counts& initial, Options options) {
  PPK_EXPECTS(initial.size() == table.num_states());
  explore(table, initial, options);
  if (complete_) {
    sccs_ = condense(
        static_cast<std::uint32_t>(configs_.size()),
        [&](std::uint32_t u) -> const std::vector<Edge>& { return edges_[u]; },
        &Edge::target);
  }
}

void ConfigGraph::explore(const pp::TransitionTable& table,
                          const pp::Counts& initial, const Options& options) {
  std::unordered_map<pp::Counts, std::uint32_t, pp::CountsHash> index;
  std::deque<std::uint32_t> frontier;

  auto intern = [&](const pp::Counts& config) -> std::uint32_t {
    auto [it, inserted] =
        index.try_emplace(config, static_cast<std::uint32_t>(configs_.size()));
    if (inserted) {
      configs_.push_back(config);
      edges_.emplace_back();
      frontier.push_back(it->second);
    }
    return it->second;
  };

  intern(initial);
  const pp::StateId num_states = table.num_states();

  while (!frontier.empty()) {
    if (configs_.size() > options.max_configs) {
      complete_ = false;
      return;
    }
    const std::uint32_t current = frontier.front();
    frontier.pop_front();

    // Copy: intern() may reallocate configs_ while we iterate.
    const pp::Counts config = configs_[current];
    std::vector<Edge> out;
    for (pp::StateId p = 0; p < num_states; ++p) {
      if (config[p] == 0) continue;
      for (pp::StateId q = 0; q < num_states; ++q) {
        if (config[q] == 0) continue;
        if (p == q && config[p] < 2) continue;
        if (!table.effective(p, q)) continue;
        const pp::Transition& t = table.apply(p, q);
        pp::Counts next = config;
        --next[p];
        --next[q];
        ++next[t.initiator];
        ++next[t.responder];
        out.push_back(Edge{intern(next), p, q});
      }
    }
    edges_[current] = std::move(out);
  }
}

}  // namespace ppk::verify
