// Independent reference for the global-fairness verifier.
//
// verify::verify_stabilization explores the reachable configuration graph
// with the lumped Markov chain under the trivial symmetry group
// (verify/global_fairness.hpp).  This header keeps the plain explorer it is
// checked against: a breadth-first search over count vectors in which each
// configuration stores its successors together with the ordered state pair
// whose rule produced them, behind a hash map from count vector to index.
// It shares nothing with the lumped path but the transition table and the
// SCC condensation of verify/scc.hpp, so agreement between the two is
// evidence for both.  reference_verify_stabilization() is the decision
// procedure evaluated on this graph's stored edges.
//
// Memory is about 490 bytes per configuration at k = 3, five times the
// lumped chain's, so it is meant for small (n, k).  The tests,
// tests/dense_markov_reference.hpp and bench/exact_vs_monte_carlo use it;
// the library does not.

#pragma once

#include <cstdint>
#include <deque>
#include <set>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "pp/population.hpp"
#include "pp/protocol.hpp"
#include "pp/transition_table.hpp"
#include "util/assert.hpp"
#include "verify/global_fairness.hpp"
#include "verify/scc.hpp"

namespace ppk::verify {

struct Edge {
  std::uint32_t target;  // index of the successor configuration
  pp::StateId p, q;      // the ordered state pair whose rule was applied
};

class ConfigGraph {
 public:
  using Options = ExploreOptions;

  /// Explores everything reachable from `initial` under `table`.
  ConfigGraph(const pp::TransitionTable& table, const pp::Counts& initial,
              Options options = {}) {
    PPK_EXPECTS(initial.size() == table.num_states());
    explore(table, initial, options);
    if (complete_) {
      sccs_ = condense(
          static_cast<std::uint32_t>(configs_.size()),
          [&](std::uint32_t u) -> const std::vector<Edge>& {
            return edges_[u];
          },
          &Edge::target);
    }
  }

  /// False iff exploration hit max_configs (results are then partial and
  /// must not be used for verification).
  [[nodiscard]] bool complete() const noexcept { return complete_; }

  [[nodiscard]] std::size_t num_configs() const noexcept {
    return configs_.size();
  }

  [[nodiscard]] const pp::Counts& config(std::size_t index) const {
    return configs_[index];
  }

  /// Outgoing effective-transition edges of a configuration.
  [[nodiscard]] const std::vector<Edge>& edges(std::size_t index) const {
    return edges_[index];
  }

  /// The SCC condensation (verify/scc.hpp).  Its bottom SCCs are exactly
  /// the sets in which globally fair executions are eventually trapped.
  /// Empty unless complete().
  [[nodiscard]] const Condensation& sccs() const noexcept { return sccs_; }

 private:
  void explore(const pp::TransitionTable& table, const pp::Counts& initial,
               const Options& options) {
    std::unordered_map<pp::Counts, std::uint32_t, pp::CountsHash> index;
    std::deque<std::uint32_t> frontier;

    auto intern = [&](const pp::Counts& config) -> std::uint32_t {
      auto [it, inserted] = index.try_emplace(
          config, static_cast<std::uint32_t>(configs_.size()));
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

  std::vector<pp::Counts> configs_;
  std::vector<std::vector<Edge>> edges_;
  Condensation sccs_;
  bool complete_ = true;
};

namespace reference_detail {

inline std::string describe_config(const pp::Protocol& protocol,
                                   const pp::Counts& config) {
  std::ostringstream out;
  out << '{';
  bool first = true;
  for (pp::StateId s = 0; s < config.size(); ++s) {
    if (config[s] == 0) continue;
    if (!first) out << ", ";
    first = false;
    out << protocol.state_name(s) << ':' << config[s];
  }
  out << '}';
  return out.str();
}

inline std::vector<std::uint32_t> group_sizes_of(const pp::Protocol& protocol,
                                                 const pp::Counts& config) {
  std::vector<std::uint32_t> sizes(protocol.num_groups(), 0);
  for (pp::StateId s = 0; s < config.size(); ++s) {
    if (config[s] > 0) sizes[protocol.group(s)] += config[s];
  }
  return sizes;
}

}  // namespace reference_detail

/// The global-fairness decision procedure on a complete ConfigGraph: every
/// bottom SCC, in SCC id order, must keep every participant's group on
/// each stored edge and have a good output on each member.  Same Verdict
/// and failure texts as verify::verify_stabilization; the witness is the
/// first failure in this graph's own numbering.
[[nodiscard]] inline Verdict reference_verify_stabilization(
    const pp::Protocol& protocol, const pp::TransitionTable& table,
    const ConfigGraph& graph, const OutputPredicate& good_output) {
  using reference_detail::describe_config;
  PPK_EXPECTS(graph.complete());
  const Condensation& sccs = graph.sccs();
  Verdict verdict;
  verdict.reachable_configs = graph.num_configs();
  verdict.num_sccs = sccs.size();
  for (std::uint32_t scc = 0; scc < sccs.size(); ++scc) {
    if (sccs.bottom[scc]) ++verdict.bottom_sccs;
  }
  for (std::uint32_t scc = 0; scc < sccs.size(); ++scc) {
    if (!sccs.bottom[scc]) continue;
    const auto members = sccs.members(scc);
    for (std::uint32_t c : members) {
      for (const Edge& e : graph.edges(c)) {
        const pp::Transition& t = table.apply(e.p, e.q);
        if (protocol.group(e.p) != protocol.group(t.initiator) ||
            protocol.group(e.q) != protocol.group(t.responder)) {
          std::ostringstream out;
          out << "bottom SCC is not output-stable: in configuration "
              << describe_config(protocol, graph.config(c)) << " rule ("
              << protocol.state_name(e.p) << ',' << protocol.state_name(e.q)
              << ")->(" << protocol.state_name(t.initiator) << ','
              << protocol.state_name(t.responder)
              << ") changes a participant's group";
          verdict.failure = out.str();
          return verdict;
        }
      }
    }
    for (std::uint32_t c : members) {
      const auto sizes = reference_detail::group_sizes_of(protocol,
                                                          graph.config(c));
      if (!good_output(graph.config(c), sizes)) {
        std::ostringstream out;
        out << "bottom SCC stabilizes to a bad output: configuration "
            << describe_config(protocol, graph.config(c)) << ", group sizes (";
        for (std::size_t g = 0; g < sizes.size(); ++g) {
          if (g > 0) out << ',';
          out << sizes[g];
        }
        out << ')';
        verdict.failure = out.str();
        return verdict;
      }
    }
  }
  verdict.solves = true;
  return verdict;
}

/// Checks a failing Verdict's witness against the reference graph: the
/// configuration its `failure` text names must lie in a bottom SCC of
/// `graph` and fail the same test there -- an edge of it that changes a
/// participant's group, or an output `good_output` rejects.  Returns an
/// empty string when it does, else what is wrong.
[[nodiscard]] inline std::string reference_witness_problem(
    const pp::Protocol& protocol, const ConfigGraph& graph,
    const pp::TransitionTable& table, const std::string& failure,
    const OutputPredicate& good_output) {
  // The witness is "{name:count, name:count, ...}" after "configuration ".
  const std::size_t at = failure.find("configuration {");
  const std::size_t end = failure.find('}', at);
  if (at == std::string::npos || end == std::string::npos) {
    return "no witness configuration in: " + failure;
  }
  const std::size_t open = failure.find('{', at);
  const std::string body = failure.substr(open + 1, end - open - 1);
  pp::Counts witness(protocol.num_states(), 0);
  for (std::size_t from = 0; from < body.size();) {
    std::size_t to = body.find(", ", from);
    if (to == std::string::npos) to = body.size();
    const std::string item = body.substr(from, to - from);
    const std::size_t colon = item.rfind(':');
    const std::string name = item.substr(0, colon);
    bool found = false;
    for (pp::StateId s = 0; s < protocol.num_states(); ++s) {
      if (protocol.state_name(s) == name) {
        witness[s] = static_cast<std::uint32_t>(std::stoul(item.substr(colon + 1)));
        found = true;
      }
    }
    if (!found) return "unknown state name '" + name + "' in: " + failure;
    from = to + 2;
  }

  for (std::size_t c = 0; c < graph.num_configs(); ++c) {
    if (graph.config(c) != witness) continue;
    if (!graph.sccs().bottom[graph.sccs().of[c]]) {
      return "witness is not in a bottom SCC of the reference graph";
    }
    if (failure.find("not output-stable") != std::string::npos) {
      for (const Edge& e : graph.edges(c)) {
        const pp::Transition& t = table.apply(e.p, e.q);
        if (protocol.group(e.p) != protocol.group(t.initiator) ||
            protocol.group(e.q) != protocol.group(t.responder)) {
          return {};
        }
      }
      return "no edge of the witness changes a participant's group";
    }
    if (good_output(witness,
                    reference_detail::group_sizes_of(protocol, witness))) {
      return "the witness's output is good";
    }
    return {};
  }
  return "witness is not reachable in the reference graph";
}

/// Cross-checks a library Verdict from `initial` against this reference,
/// with `good_output` as the decision procedure's output test: the answer,
/// the three counts and the reachable set (as verify::for_each_reachable
/// visits it) must be equal, and a failing verdict's witness must pass
/// reference_witness_problem.  Returns an empty string on agreement, else
/// the first disagreement.
[[nodiscard]] inline std::string reference_disagreement(
    const pp::Protocol& protocol, const pp::TransitionTable& table,
    const pp::Counts& initial, const Verdict& verdict,
    const OutputPredicate& good_output) {
  const ConfigGraph graph(table, initial);
  if (!graph.complete()) return "reference exploration incomplete";
  const Verdict reference =
      reference_verify_stabilization(protocol, table, graph, good_output);
  const auto differ = [](const char* what, std::size_t got,
                         std::size_t want) {
    return std::string(what) + " " + std::to_string(got) +
           " != reference " + std::to_string(want);
  };
  if (verdict.solves != reference.solves) {
    return differ("solves", verdict.solves, reference.solves);
  }
  if (verdict.reachable_configs != reference.reachable_configs) {
    return differ("reachable_configs", verdict.reachable_configs,
                  reference.reachable_configs);
  }
  if (verdict.num_sccs != reference.num_sccs) {
    return differ("num_sccs", verdict.num_sccs, reference.num_sccs);
  }
  if (verdict.bottom_sccs != reference.bottom_sccs) {
    return differ("bottom_sccs", verdict.bottom_sccs, reference.bottom_sccs);
  }
  std::set<pp::Counts> visited;
  for_each_reachable(table, initial,
                     [&](const pp::Counts& c) { visited.insert(c); });
  std::set<pp::Counts> expected;
  for (std::size_t c = 0; c < graph.num_configs(); ++c) {
    expected.insert(graph.config(c));
  }
  if (visited != expected) return "reachable sets differ";
  if (!verdict.solves) {
    return reference_witness_problem(protocol, graph, table, verdict.failure,
                                     good_output);
  }
  return {};
}

}  // namespace ppk::verify
