// Tests of the reference configuration-graph explorer
// (config_graph_reference.hpp) and the SCC machinery on protocols whose
// graphs are small enough to reason about by hand.

#include "config_graph_reference.hpp"

#include <gtest/gtest.h>

#include <set>

#include "core/bipartition.hpp"
#include "pp/transition_table.hpp"
#include "protocols/leader_election.hpp"

namespace ppk::verify {
namespace {

pp::Counts initial_counts(const pp::Protocol& protocol, std::uint32_t n) {
  pp::Counts counts(protocol.num_states(), 0);
  counts[protocol.initial_state()] = n;
  return counts;
}

TEST(ConfigGraph, LeaderElectionChainIsALine) {
  // From n leaders the only reachable configs are (n-j leaders, j
  // followers): a straight line of n configurations.
  const protocols::LeaderElectionProtocol protocol;
  const pp::TransitionTable table(protocol);
  const ConfigGraph graph(table, initial_counts(protocol, 5));
  ASSERT_TRUE(graph.complete());
  EXPECT_EQ(graph.num_configs(), 5u);

  // Exactly one config has no outgoing edges: the single-leader one.
  std::size_t terminal = 0;
  for (std::size_t c = 0; c < graph.num_configs(); ++c) {
    if (graph.edges(c).empty()) {
      ++terminal;
      EXPECT_EQ(graph.config(c)[protocols::LeaderElectionProtocol::kLeader],
                1u);
    }
  }
  EXPECT_EQ(terminal, 1u);
}

TEST(ConfigGraph, LeaderElectionSccsAreSingletonsWithOneBottom) {
  const protocols::LeaderElectionProtocol protocol;
  const pp::TransitionTable table(protocol);
  const ConfigGraph graph(table, initial_counts(protocol, 6));
  ASSERT_TRUE(graph.complete());
  EXPECT_EQ(graph.sccs().size(), graph.num_configs());  // acyclic
  std::size_t bottoms = 0;
  for (std::uint32_t scc = 0; scc < graph.sccs().size(); ++scc) {
    if (graph.sccs().bottom[scc]) ++bottoms;
  }
  EXPECT_EQ(bottoms, 1u);
}

TEST(ConfigGraph, EdgesCarryTheAppliedRule) {
  const protocols::LeaderElectionProtocol protocol;
  const pp::TransitionTable table(protocol);
  const ConfigGraph graph(table, initial_counts(protocol, 3));
  ASSERT_TRUE(graph.complete());
  // The initial config's only edge applies (L, L).
  bool found_initial = false;
  for (std::size_t c = 0; c < graph.num_configs(); ++c) {
    if (graph.config(c)[0] == 3) {
      found_initial = true;
      ASSERT_EQ(graph.edges(c).size(), 1u);
      EXPECT_EQ(graph.edges(c)[0].p, protocols::LeaderElectionProtocol::kLeader);
      EXPECT_EQ(graph.edges(c)[0].q, protocols::LeaderElectionProtocol::kLeader);
    }
  }
  EXPECT_TRUE(found_initial);
}

TEST(ConfigGraph, BipartitionHasFlippingBottomSccs) {
  // n = 4: stable configs have 2 g1 + 2 g2 and nothing else -- a singleton
  // silent bottom SCC.  n = 5 leaves one free agent that flips forever, so
  // the bottom SCC has exactly two configurations.
  const core::BipartitionProtocol protocol;
  const pp::TransitionTable table(protocol);
  {
    const ConfigGraph graph(table, initial_counts(protocol, 4));
    ASSERT_TRUE(graph.complete());
    for (std::uint32_t scc = 0; scc < graph.sccs().size(); ++scc) {
      if (!graph.sccs().bottom[scc]) continue;
      EXPECT_EQ(graph.sccs().members(scc).size(), 1u);
    }
  }
  {
    const ConfigGraph graph(table, initial_counts(protocol, 5));
    ASSERT_TRUE(graph.complete());
    std::size_t bottoms = 0;
    for (std::uint32_t scc = 0; scc < graph.sccs().size(); ++scc) {
      if (!graph.sccs().bottom[scc]) continue;
      ++bottoms;
      const auto members = graph.sccs().members(scc);
      EXPECT_EQ(members.size(), 2u);  // free agent toggling initial/initial'
      for (auto c : members) {
        EXPECT_EQ(graph.config(c)[core::BipartitionProtocol::kG1], 2u);
        EXPECT_EQ(graph.config(c)[core::BipartitionProtocol::kG2], 2u);
      }
    }
    EXPECT_EQ(bottoms, 1u);
  }
}

TEST(ConfigGraph, SccIdsAreReverseTopological) {
  const protocols::LeaderElectionProtocol protocol;
  const pp::TransitionTable table(protocol);
  const ConfigGraph graph(table, initial_counts(protocol, 5));
  for (std::size_t c = 0; c < graph.num_configs(); ++c) {
    for (const Edge& e : graph.edges(c)) {
      EXPECT_GE(graph.sccs().of[c], graph.sccs().of[e.target]);
    }
  }
}

TEST(ConfigGraph, RespectsMaxConfigsLimit) {
  const core::BipartitionProtocol protocol;
  const pp::TransitionTable table(protocol);
  ExploreOptions options;
  options.max_configs = 3;
  const ConfigGraph graph(table, initial_counts(protocol, 30), options);
  EXPECT_FALSE(graph.complete());
}

TEST(ConfigGraph, MembersOfSccPartitionTheConfigs) {
  const core::BipartitionProtocol protocol;
  const pp::TransitionTable table(protocol);
  const ConfigGraph graph(table, initial_counts(protocol, 6));
  ASSERT_TRUE(graph.complete());
  std::set<std::uint32_t> seen;
  for (std::uint32_t scc = 0; scc < graph.sccs().size(); ++scc) {
    for (auto c : graph.sccs().members(scc)) {
      EXPECT_TRUE(seen.insert(c).second) << "config in two SCCs";
    }
  }
  EXPECT_EQ(seen.size(), graph.num_configs());
}

}  // namespace
}  // namespace ppk::verify
