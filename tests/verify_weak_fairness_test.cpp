// Ground-truth regression tests for the per-agent verifier
// (verify/weak_fairness.hpp): the weak-fairness protocol is correct under
// weak fairness, the global-fairness protocols are not (negative
// controls), and the arbitrary-graph bipartition protocol is correct on
// every small topology while the complete-graph protocol fails on a star.

#include <gtest/gtest.h>

#include "core/bipartition.hpp"
#include "core/graph_bipartition.hpp"
#include "core/kpartition.hpp"
#include "core/weak_kpartition.hpp"
#include "pp/interaction_graph.hpp"
#include "pp/transition_table.hpp"
#include "verify/agent_graph.hpp"
#include "verify/global_fairness.hpp"
#include "verify/weak_fairness.hpp"

namespace ppk {
namespace {

// --- AgentConfigGraph basics -------------------------------------------

TEST(AgentConfigGraph, CompleteGraphPairsAndNullApply) {
  core::GraphBipartitionProtocol protocol;
  pp::TransitionTable table(protocol);
  verify::AgentConfigGraph graph(protocol, table, 4);
  ASSERT_TRUE(graph.complete());
  EXPECT_EQ(graph.pairs().size(), 6u);  // C(4, 2)
  EXPECT_EQ(graph.num_agents(), 4u);
  // Config 0 is the all-initial tuple.
  for (std::uint32_t a = 0; a < 4; ++a) {
    EXPECT_EQ(graph.state_of(0, a), protocol.initial_state());
  }
  // A silent pair returns the same configuration: find a config with two
  // settled agents (r, r) -- (r, r) is null.
  bool checked = false;
  for (std::size_t c = 0; c < graph.num_configs() && !checked; ++c) {
    if (graph.state_of(c, 0) == core::GraphBipartitionProtocol::kR &&
        graph.state_of(c, 1) == core::GraphBipartitionProtocol::kR) {
      EXPECT_EQ(graph.apply(c, 0, 1), c);
      checked = true;
    }
  }
  EXPECT_TRUE(checked);
}

TEST(AgentConfigGraph, SccIdsAreReverseTopological) {
  core::WeakKPartitionProtocol protocol(2);
  pp::TransitionTable table(protocol);
  verify::AgentConfigGraph graph(protocol, table, 4);
  ASSERT_TRUE(graph.complete());
  for (std::size_t c = 0; c < graph.num_configs(); ++c) {
    for (const auto& [a, b] : graph.pairs()) {
      EXPECT_GE(graph.sccs().of[c], graph.sccs().of[graph.apply(c, a, b)]);
      EXPECT_GE(graph.sccs().of[c], graph.sccs().of[graph.apply(c, b, a)]);
    }
  }
}

TEST(AgentConfigGraph, TopologyRestrictsPairs) {
  core::GraphBipartitionProtocol protocol;
  pp::TransitionTable table(protocol);
  const auto ring = pp::InteractionGraph::ring(5);
  verify::AgentConfigGraph::Options options;
  options.topology = &ring;
  verify::AgentConfigGraph graph(protocol, table, 5, options);
  ASSERT_TRUE(graph.complete());
  EXPECT_EQ(graph.pairs().size(), 5u);
}

// --- Weak fairness: positive ------------------------------------------

TEST(WeakFairness, WeakKPartitionSolvesSmallNK) {
  for (const pp::GroupId k : {pp::GroupId{2}, pp::GroupId{3}}) {
    core::WeakKPartitionProtocol protocol(k);
    pp::TransitionTable table(protocol);
    for (std::uint32_t n = 2; n <= 7; ++n) {
      const auto verdict =
          verify::verify_weak_uniform_partition(protocol, table, n);
      ASSERT_TRUE(verdict.exploration_complete) << "k=" << k << " n=" << n;
      EXPECT_TRUE(verdict.solves)
          << "k=" << k << " n=" << n << ": " << verdict.failure;
      EXPECT_GT(verdict.bottom_sccs, 0u);
    }
  }
}

TEST(WeakFairness, WeakKPartitionSolvesK4) {
  core::WeakKPartitionProtocol protocol(4);
  pp::TransitionTable table(protocol);
  for (std::uint32_t n = 2; n <= 4; ++n) {
    const auto verdict =
        verify::verify_weak_uniform_partition(protocol, table, n);
    ASSERT_TRUE(verdict.exploration_complete);
    EXPECT_TRUE(verdict.solves) << "n=" << n << ": " << verdict.failure;
  }
}

// The weak-fairness protocol must also solve under global fairness (a
// strictly stronger scheduler), checked by the count-vector verifier on
// the count graph, which is far smaller than the per-agent graph at the
// same n.
TEST(WeakFairness, WeakKPartitionAlsoSolvesGlobalFairness) {
  for (const pp::GroupId k : {pp::GroupId{2}, pp::GroupId{3}}) {
    core::WeakKPartitionProtocol protocol(k);
    pp::TransitionTable table(protocol);
    for (std::uint32_t n = k; n <= 8; ++n) {
      const auto verdict =
          verify::verify_uniform_partition(protocol, table, n);
      ASSERT_TRUE(verdict.exploration_complete);
      EXPECT_TRUE(verdict.solves)
          << "k=" << k << " n=" << n << ": " << verdict.failure;
    }
  }
}

// --- Weak fairness: negative controls ---------------------------------

// The 4-state complete-graph bipartition protocol is correct under global
// fairness but NOT under weak fairness: a weakly fair adversary can park
// the execution in an SCC of symmetric flip configurations whose outputs
// are constant but non-uniform.
TEST(WeakFairness, BipartitionFailsUnderWeakFairness) {
  core::BipartitionProtocol protocol;
  pp::TransitionTable table(protocol);
  for (std::uint32_t n = 3; n <= 5; ++n) {
    // Sanity: global fairness holds at this n...
    EXPECT_TRUE(verify::verify_uniform_partition(protocol, table, n).solves);
    // ...weak fairness does not, and the verdict carries a witness.
    const auto verdict =
        verify::verify_weak_uniform_partition(protocol, table, n);
    ASSERT_TRUE(verdict.exploration_complete);
    EXPECT_FALSE(verdict.solves) << "n=" << n;
    EXPECT_FALSE(verdict.failure.empty());
  }
}

TEST(WeakFairness, PaperKPartitionFailsUnderWeakFairness) {
  core::KPartitionProtocol protocol(3);
  pp::TransitionTable table(protocol);
  for (std::uint32_t n = 3; n <= 5; ++n) {
    EXPECT_TRUE(verify::verify_uniform_partition(protocol, table, n).solves);
    const auto verdict =
        verify::verify_weak_uniform_partition(protocol, table, n);
    ASSERT_TRUE(verdict.exploration_complete);
    EXPECT_FALSE(verdict.solves) << "n=" << n;
  }
}

// --- Arbitrary graphs: positive ---------------------------------------

TEST(GraphFairness, GraphBipartitionSolvesOnEveryTopology) {
  core::GraphBipartitionProtocol protocol;
  pp::TransitionTable table(protocol);
  const auto check = [&](const pp::InteractionGraph& g, const char* what) {
    const auto verdict =
        verify::verify_graph_uniform_partition(protocol, table, g);
    ASSERT_TRUE(verdict.exploration_complete) << what;
    EXPECT_TRUE(verdict.solves)
        << what << " n=" << g.num_agents() << ": " << verdict.failure;
  };
  for (std::uint32_t n = 2; n <= 6; ++n) {
    check(pp::InteractionGraph::complete(n), "complete");
    check(pp::InteractionGraph::path(n), "path");
    if (n >= 3) {
      check(pp::InteractionGraph::ring(n), "ring");
      check(pp::InteractionGraph::star(n), "star");
    }
  }
  check(pp::InteractionGraph::erdos_renyi(7, 0.5, 20260808), "erdos-renyi");
}

// The count-vector verifier sees the same protocol as correct on the
// complete graph: hop transitions preserve both participants' outputs, so
// its bottom SCCs are output-preserving.
TEST(GraphFairness, GraphBipartitionAlsoPassesCountVerifier) {
  core::GraphBipartitionProtocol protocol;
  pp::TransitionTable table(protocol);
  for (std::uint32_t n = 2; n <= 10; ++n) {
    const auto verdict = verify::verify_uniform_partition(protocol, table, n);
    ASSERT_TRUE(verdict.exploration_complete);
    EXPECT_TRUE(verdict.solves) << "n=" << n << ": " << verdict.failure;
  }
}

// --- Arbitrary graphs: negative control -------------------------------

// The complete-graph bipartition protocol on a star: initial-state leaves
// can only meet the hub, and once the hub leaves `initial` the remaining
// leaves are stuck -- a bottom SCC with non-uniform outputs.
TEST(GraphFairness, BipartitionFailsOnStar) {
  core::BipartitionProtocol protocol;
  pp::TransitionTable table(protocol);
  for (std::uint32_t n = 4; n <= 6; ++n) {
    const auto star = pp::InteractionGraph::star(n);
    const auto verdict =
        verify::verify_graph_uniform_partition(protocol, table, star);
    ASSERT_TRUE(verdict.exploration_complete);
    EXPECT_FALSE(verdict.solves) << "n=" << n;
    EXPECT_FALSE(verdict.failure.empty());
  }
}

// The signal-relay protocol needs global fairness: under weak fairness an
// adversary can keep two signals alive forever (hop them between blue
// hosts and schedule every pair at harmless moments), so outputs never
// stabilize.  This pins the protocol * fairness matrix documented in
// docs/fairness.md.
TEST(GraphFairness, GraphBipartitionFailsUnderWeakFairness) {
  core::GraphBipartitionProtocol protocol;
  pp::TransitionTable table(protocol);
  const auto verdict = verify::verify_weak_uniform_partition(protocol, table, 4);
  ASSERT_TRUE(verdict.exploration_complete);
  EXPECT_FALSE(verdict.solves);
}

}  // namespace
}  // namespace ppk
