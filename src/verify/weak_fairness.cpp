#include "verify/weak_fairness.hpp"

#include <span>
#include <sstream>

#include "pp/population.hpp"
#include "util/assert.hpp"

namespace ppk::verify {

namespace {

std::vector<std::uint32_t> group_sizes_of(const pp::Protocol& protocol,
                                          const AgentConfigGraph& graph,
                                          std::uint32_t config) {
  std::vector<std::uint32_t> sizes(protocol.num_groups(), 0);
  for (std::uint32_t a = 0; a < graph.num_agents(); ++a) {
    ++sizes[protocol.group(graph.state_of(config, a))];
  }
  return sizes;
}

std::string describe_config(const pp::Protocol& protocol,
                            const AgentConfigGraph& graph,
                            std::uint32_t config) {
  std::ostringstream out;
  out << "(";
  for (std::uint32_t a = 0; a < graph.num_agents(); ++a) {
    if (a > 0) out << ", ";
    out << protocol.state_name(graph.state_of(config, a));
  }
  out << ")";
  return out.str();
}

/// Outputs constant across `members` and uniform?  On failure, fills
/// `failure` with a witness description prefixed by `context`.
bool scc_good(const pp::Protocol& protocol, const AgentConfigGraph& graph,
              std::span<const std::uint32_t> members,
              const std::string& context, std::string* failure) {
  const std::uint32_t first = members.front();
  for (const std::uint32_t c : members) {
    for (std::uint32_t a = 0; a < graph.num_agents(); ++a) {
      if (protocol.group(graph.state_of(c, a)) !=
          protocol.group(graph.state_of(first, a))) {
        std::ostringstream out;
        out << context << ": agent " << a << "'s output differs between "
            << describe_config(protocol, graph, first) << " and "
            << describe_config(protocol, graph, c)
            << " -- outputs never stabilize";
        *failure = out.str();
        return false;
      }
    }
  }
  const auto sizes = group_sizes_of(protocol, graph, first);
  if (!pp::is_uniform_partition(sizes)) {
    std::ostringstream out;
    out << context << ": stabilizes to non-uniform group sizes (";
    for (std::size_t g = 0; g < sizes.size(); ++g) {
      if (g > 0) out << ", ";
      out << sizes[g];
    }
    out << ") in " << describe_config(protocol, graph, first);
    *failure = out.str();
    return false;
  }
  return true;
}

/// Can a weakly fair adversary trap an execution in this SCC?  True iff for
/// every scheduled pair some member admits an orientation whose application
/// stays in the SCC (null interactions stay by definition).
bool weakly_closable(const AgentConfigGraph& graph, std::uint32_t scc) {
  const std::vector<std::uint32_t>& of = graph.sccs().of;
  for (const auto& [a, b] : graph.pairs()) {
    bool pair_ok = false;
    for (const std::uint32_t c : graph.sccs().members(scc)) {
      if (of[graph.apply(c, a, b)] == scc || of[graph.apply(c, b, a)] == scc) {
        pair_ok = true;
        break;
      }
    }
    if (!pair_ok) return false;
  }
  return true;
}

Verdict explore_failed(const AgentConfigGraph& graph) {
  Verdict verdict;
  verdict.solves = false;
  verdict.exploration_complete = false;
  verdict.reachable_configs = graph.num_configs();
  verdict.failure = "exploration aborted at max_configs";
  return verdict;
}

}  // namespace

Verdict verify_weak_uniform_partition(const pp::Protocol& protocol,
                                      const pp::TransitionTable& table,
                                      std::uint32_t n,
                                      AgentConfigGraph::Options options) {
  PPK_EXPECTS(options.topology == nullptr);
  AgentConfigGraph graph(protocol, table, n, options);
  if (!graph.complete()) return explore_failed(graph);

  Verdict verdict;
  verdict.solves = true;
  verdict.reachable_configs = graph.num_configs();
  const Condensation& sccs = graph.sccs();
  verdict.num_sccs = sccs.size();
  for (std::uint32_t scc = 0; scc < sccs.size(); ++scc) {
    if (!weakly_closable(graph, scc)) continue;
    const auto members = sccs.members(scc);
    ++verdict.bottom_sccs;  // = weakly closable SCCs (see header)
    std::ostringstream context;
    context << "weakly closable SCC #" << scc << " (" << members.size()
            << " configs)";
    std::string failure;
    if (!scc_good(protocol, graph, members, context.str(), &failure)) {
      verdict.solves = false;
      if (verdict.failure.empty()) verdict.failure = failure;
    }
  }
  return verdict;
}

Verdict verify_graph_uniform_partition(const pp::Protocol& protocol,
                                       const pp::TransitionTable& table,
                                       const pp::InteractionGraph& topology,
                                       AgentConfigGraph::Options options) {
  options.topology = &topology;
  AgentConfigGraph graph(protocol, table, topology.num_agents(), options);
  if (!graph.complete()) return explore_failed(graph);

  Verdict verdict;
  verdict.solves = true;
  verdict.reachable_configs = graph.num_configs();
  const Condensation& sccs = graph.sccs();
  verdict.num_sccs = sccs.size();
  for (std::uint32_t scc = 0; scc < sccs.size(); ++scc) {
    if (!sccs.bottom[scc]) continue;
    ++verdict.bottom_sccs;
    const auto members = sccs.members(scc);
    std::ostringstream context;
    context << "bottom SCC #" << scc << " (" << members.size() << " configs)";
    std::string failure;
    if (!scc_good(protocol, graph, members, context.str(), &failure)) {
      verdict.solves = false;
      if (verdict.failure.empty()) verdict.failure = failure;
    }
  }
  return verdict;
}

}  // namespace ppk::verify
