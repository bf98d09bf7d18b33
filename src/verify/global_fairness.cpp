#include "verify/global_fairness.hpp"

#include <sstream>

#include "pp/population.hpp"
#include "util/assert.hpp"

namespace ppk::verify {

namespace {

std::vector<std::uint32_t> group_sizes_of(const pp::Protocol& protocol,
                                          const pp::Counts& config) {
  std::vector<std::uint32_t> sizes(protocol.num_groups(), 0);
  for (pp::StateId s = 0; s < config.size(); ++s) {
    if (config[s] > 0) sizes[protocol.group(s)] += config[s];
  }
  return sizes;
}

std::string describe_config(const pp::Protocol& protocol,
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

}  // namespace

Verdict verify_stabilization(const pp::Protocol& protocol,
                             const pp::TransitionTable& table,
                             const pp::Counts& initial,
                             const OutputPredicate& good_output,
                             ConfigGraph::Options options) {
  ConfigGraph graph(table, initial, options);
  Verdict verdict;
  verdict.reachable_configs = graph.num_configs();
  verdict.exploration_complete = graph.complete();
  if (!graph.complete()) {
    verdict.failure = "exploration exceeded max_configs; verdict unknown";
    return verdict;
  }
  const Condensation& sccs = graph.sccs();
  verdict.num_sccs = sccs.size();

  for (std::uint32_t scc = 0; scc < sccs.size(); ++scc) {
    if (!sccs.bottom[scc]) continue;
    ++verdict.bottom_sccs;

    const auto members = sccs.members(scc);

    // (i) Output preservation: every transition enabled anywhere in the SCC
    // must keep both participants' groups.  (All such transitions stay in
    // the SCC because it is bottom.)
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

    // (ii) The stabilized output satisfies the problem's predicate.  Check
    // every member: group sizes are constant across an output-preserving
    // SCC, so this is belt-and-braces at negligible cost.
    for (std::uint32_t c : members) {
      const auto sizes = group_sizes_of(protocol, graph.config(c));
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

Verdict verify_uniform_partition(const pp::Protocol& protocol,
                                 const pp::TransitionTable& table,
                                 std::uint32_t n,
                                 ConfigGraph::Options options) {
  pp::Counts initial(protocol.num_states(), 0);
  initial[protocol.initial_state()] = n;
  return verify_uniform_partition_from(protocol, table, initial, options);
}

Verdict verify_uniform_partition_from(const pp::Protocol& protocol,
                                      const pp::TransitionTable& table,
                                      const pp::Counts& initial,
                                      ConfigGraph::Options options) {
  return verify_stabilization(
      protocol, table, initial,
      [](const pp::Counts&, const std::vector<std::uint32_t>& sizes) {
        return pp::is_uniform_partition(sizes);
      },
      options);
}

std::size_t for_each_reachable(
    const pp::TransitionTable& table, const pp::Counts& initial,
    const std::function<void(const pp::Counts&)>& check,
    ConfigGraph::Options options) {
  ConfigGraph graph(table, initial, options);
  PPK_EXPECTS(graph.complete());
  for (std::size_t c = 0; c < graph.num_configs(); ++c) {
    check(graph.config(c));
  }
  return graph.num_configs();
}

}  // namespace ppk::verify
