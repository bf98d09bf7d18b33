#include "verify/global_fairness.hpp"

#include <algorithm>
#include <numeric>
#include <span>
#include <sstream>

#include "pp/population.hpp"
#include "pp/symmetry.hpp"
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

/// Both tests on the members of one bottom SCC: (i) on every member, then
/// (ii) on every member -- group sizes are constant across an
/// output-preserving SCC, so the second pass is belt-and-braces.  Test (i)
/// enumerates each member's enabled ordered pairs in (p, q) order: they
/// are its out-edges, and all stay in the SCC.  Returns the first failure,
/// or empty.
std::string bottom_scc_failure(const pp::Protocol& protocol,
                               const pp::TransitionTable& table,
                               const OutputPredicate& good_output,
                               std::span<const pp::Counts> members) {
  const pp::StateId num_states = table.num_states();
  for (const pp::Counts& config : members) {
    for (pp::StateId p = 0; p < num_states; ++p) {
      for (pp::StateId q = 0; q < num_states; ++q) {
        if (config[p] == 0 || config[q] == 0 || (p == q && config[p] < 2) ||
            !table.effective(p, q)) {
          continue;
        }
        const pp::Transition& t = table.apply(p, q);
        if (protocol.group(p) != protocol.group(t.initiator) ||
            protocol.group(q) != protocol.group(t.responder)) {
          std::ostringstream out;
          out << "bottom SCC is not output-stable: in configuration "
              << describe_config(protocol, config) << " rule ("
              << protocol.state_name(p) << ',' << protocol.state_name(q)
              << ")->(" << protocol.state_name(t.initiator) << ','
              << protocol.state_name(t.responder)
              << ") changes a participant's group";
          return out.str();
        }
      }
    }
  }
  for (const pp::Counts& config : members) {
    const auto sizes = group_sizes_of(protocol, config);
    if (good_output(config, sizes)) continue;
    std::ostringstream out;
    out << "bottom SCC stabilizes to a bad output: configuration "
        << describe_config(protocol, config) << ", group sizes (";
    for (std::size_t g = 0; g < sizes.size(); ++g) {
      if (g > 0) out << ',';
      out << sizes[g];
    }
    out << ')';
    return out.str();
  }
  return {};
}

/// Whether `initial` holds at most one agent.  try_build refuses such a
/// population; its one configuration is its own reachable set and its only
/// bottom SCC, with no pair enabled.
bool is_single_configuration(const pp::Counts& initial) {
  return std::accumulate(initial.begin(), initial.end(), 0ULL) < 2;
}

bool is_uniform_output(const pp::Counts&,
                       const std::vector<std::uint32_t>& sizes) {
  return pp::is_uniform_partition(sizes);
}

}  // namespace

std::optional<LumpedMarkovAnalysis> explore_configurations(
    const pp::TransitionTable& table, const pp::Counts& initial,
    ExploreOptions options, std::string* why) {
  LumpedOptions lumped;
  lumped.max_orbits = options.max_configs;
  return LumpedMarkovAnalysis::try_build(
      table, pp::trivial_symmetry(table.num_states()), initial, lumped, why);
}

Verdict verify_stabilization(const pp::Protocol& protocol,
                             const pp::TransitionTable& table,
                             const pp::Counts& initial,
                             const OutputPredicate& good_output,
                             ExploreOptions options) {
  PPK_EXPECTS(initial.size() == table.num_states());
  Verdict verdict;
  if (is_single_configuration(initial)) {
    verdict.reachable_configs = verdict.num_sccs = verdict.bottom_sccs = 1;
    verdict.failure = bottom_scc_failure(protocol, table, good_output,
                                         std::span(&initial, 1));
    verdict.solves = verdict.failure.empty();
    return verdict;
  }
  std::string why;
  const auto graph = explore_configurations(table, initial, options, &why);
  if (!graph.has_value()) {
    verdict.exploration_complete = false;
    verdict.failure = "exploration incomplete under max_configs = " +
                      std::to_string(options.max_configs) + " (" + why +
                      "); verdict unknown";
    return verdict;
  }
  return verify_stabilization(protocol, table, *graph, good_output);
}

Verdict verify_stabilization(const pp::Protocol& protocol,
                             const pp::TransitionTable& table,
                             const LumpedMarkovAnalysis& graph,
                             const OutputPredicate& good_output) {
  PPK_EXPECTS(graph.group_order() == 1);
  const Condensation& sccs = graph.sccs();
  Verdict verdict;
  verdict.reachable_configs = graph.num_orbits();
  verdict.num_sccs = sccs.size();
  verdict.bottom_sccs = static_cast<std::size_t>(
      std::count(sccs.bottom.begin(), sccs.bottom.end(), 1));
  std::vector<pp::Counts> members;
  for (std::uint32_t scc = 0; scc < sccs.size(); ++scc) {
    if (!sccs.bottom[scc]) continue;
    const auto ids = sccs.members(scc);
    members.resize(ids.size());
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const auto rep = graph.representative(ids[i]);
      members[i].assign(rep.begin(), rep.end());
    }
    verdict.failure = bottom_scc_failure(protocol, table, good_output, members);
    if (!verdict.failure.empty()) return verdict;
  }
  verdict.solves = true;
  return verdict;
}

Verdict verify_uniform_partition(const pp::Protocol& protocol,
                                 const pp::TransitionTable& table,
                                 std::uint32_t n, ExploreOptions options) {
  pp::Counts initial(protocol.num_states(), 0);
  initial[protocol.initial_state()] = n;
  return verify_uniform_partition_from(protocol, table, initial, options);
}

Verdict verify_uniform_partition(const pp::Protocol& protocol,
                                 const pp::TransitionTable& table,
                                 const LumpedMarkovAnalysis& graph) {
  return verify_stabilization(protocol, table, graph, is_uniform_output);
}

Verdict verify_uniform_partition_from(const pp::Protocol& protocol,
                                      const pp::TransitionTable& table,
                                      const pp::Counts& initial,
                                      ExploreOptions options) {
  return verify_stabilization(protocol, table, initial, is_uniform_output,
                              options);
}

std::size_t for_each_reachable(
    const pp::TransitionTable& table, const pp::Counts& initial,
    const std::function<void(const pp::Counts&)>& check,
    ExploreOptions options) {
  PPK_EXPECTS(initial.size() == table.num_states());
  if (is_single_configuration(initial)) {
    check(initial);
    return 1;
  }
  const auto graph = explore_configurations(table, initial, options);
  PPK_EXPECTS(graph.has_value());
  pp::Counts config;
  for (std::size_t c = 0; c < graph->num_orbits(); ++c) {
    const auto rep = graph->representative(c);
    config.assign(rep.begin(), rep.end());
    check(config);
  }
  return graph->num_orbits();
}

}  // namespace ppk::verify
