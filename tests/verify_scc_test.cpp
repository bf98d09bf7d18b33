// The shared SCC condensation against brute force: on seeded random
// digraphs (with self-loops, duplicate edges and isolated nodes), the
// partition must equal mutual reachability from a transitive closure, ids
// must be reverse topological, bottom must mean "no edge leaves", and the
// member lists must partition the nodes in ascending order.

#include "verify/scc.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

namespace ppk::verify {
namespace {

using Adjacency = std::vector<std::vector<std::uint32_t>>;

Condensation condense_list(const Adjacency& adj) {
  return condense(static_cast<std::uint32_t>(adj.size()),
                  [&](std::uint32_t u) -> const std::vector<std::uint32_t>& {
                    return adj[u];
                  });
}

/// reach[u][v] iff v is reachable from u (every node reaches itself).
std::vector<std::vector<char>> closure(const Adjacency& adj) {
  const std::size_t n = adj.size();
  std::vector<std::vector<char>> reach(n, std::vector<char>(n, 0));
  for (std::size_t u = 0; u < n; ++u) {
    reach[u][u] = 1;
    for (const std::uint32_t v : adj[u]) reach[u][v] = 1;
  }
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      if (!reach[i][k]) continue;
      for (std::size_t j = 0; j < n; ++j) {
        if (reach[k][j]) reach[i][j] = 1;
      }
    }
  }
  return reach;
}

void expect_matches_brute_force(const Adjacency& adj) {
  const auto n = static_cast<std::uint32_t>(adj.size());
  const Condensation sccs = condense_list(adj);
  const auto reach = closure(adj);
  ASSERT_EQ(sccs.of.size(), n);
  ASSERT_EQ(sccs.offsets.size(), sccs.size() + 1u);

  // Same partition as mutual reachability.
  for (std::uint32_t u = 0; u < n; ++u) {
    ASSERT_LT(sccs.of[u], sccs.size());
    for (std::uint32_t v = 0; v < n; ++v) {
      EXPECT_EQ(sccs.of[u] == sccs.of[v], reach[u][v] && reach[v][u])
          << "u=" << u << " v=" << v;
    }
  }

  // Reverse topological ids, and bottom = no edge leaves.
  std::vector<char> leaves(sccs.size(), 0);
  for (std::uint32_t u = 0; u < n; ++u) {
    for (const std::uint32_t v : adj[u]) {
      EXPECT_GE(sccs.of[u], sccs.of[v]) << "edge " << u << "->" << v;
      if (sccs.of[u] != sccs.of[v]) leaves[sccs.of[u]] = 1;
    }
  }
  for (std::uint32_t s = 0; s < sccs.size(); ++s) {
    EXPECT_EQ(sccs.bottom[s] != 0, leaves[s] == 0) << "scc " << s;
  }

  // Members partition 0..n-1, ascending within each SCC.
  std::vector<char> seen(n, 0);
  std::size_t total = 0;
  for (std::uint32_t s = 0; s < sccs.size(); ++s) {
    const auto members = sccs.members(s);
    EXPECT_FALSE(members.empty()) << "scc " << s;
    for (std::size_t i = 0; i < members.size(); ++i) {
      const std::uint32_t u = members[i];
      ASSERT_LT(u, n);
      EXPECT_EQ(sccs.of[u], s);
      EXPECT_FALSE(seen[u]) << "node " << u << " listed twice";
      seen[u] = 1;
      if (i > 0) {
        EXPECT_LT(members[i - 1], u);
      }
    }
    total += members.size();
  }
  EXPECT_EQ(total, n);
}

TEST(Condense, EmptyGraph) {
  const Condensation sccs = condense_list({});
  EXPECT_EQ(sccs.size(), 0u);
  EXPECT_TRUE(sccs.of.empty());
  EXPECT_TRUE(sccs.nodes.empty());
  expect_matches_brute_force({});
}

TEST(Condense, SingleNodeWithAndWithoutSelfLoop) {
  for (const Adjacency& adj : {Adjacency{{}}, Adjacency{{0, 0}}}) {
    const Condensation sccs = condense_list(adj);
    ASSERT_EQ(sccs.size(), 1u);
    EXPECT_EQ(sccs.of[0], 0u);
    EXPECT_TRUE(sccs.bottom[0]);
    ASSERT_EQ(sccs.members(0).size(), 1u);
    EXPECT_EQ(sccs.members(0)[0], 0u);
  }
}

TEST(Condense, CycleFeedingATailIsTwoComponents) {
  // 0 -> 1 -> 2 -> 0 is one SCC; it feeds the sink 3, which gets id 0.
  const Adjacency adj = {{1}, {2}, {0, 3}, {}};
  const Condensation sccs = condense_list(adj);
  ASSERT_EQ(sccs.size(), 2u);
  EXPECT_EQ(sccs.of[3], 0u);
  EXPECT_TRUE(sccs.bottom[0]);
  EXPECT_FALSE(sccs.bottom[1]);
  const auto cycle = sccs.members(1);
  EXPECT_EQ(std::vector<std::uint32_t>(cycle.begin(), cycle.end()),
            (std::vector<std::uint32_t>{0, 1, 2}));
}

TEST(Condense, SelfLoopsDoNotChangeTheResult) {
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    const std::uint32_t n = 1 + static_cast<std::uint32_t>(rng() % 12);
    Adjacency adj(n);
    for (std::uint32_t u = 0; u < n; ++u) {
      for (std::uint32_t e = 0; e < 2; ++e) {
        adj[u].push_back(static_cast<std::uint32_t>(rng() % n));
      }
    }
    Adjacency looped = adj;
    for (std::uint32_t u = 0; u < n; ++u) {
      looped[u].insert(looped[u].begin() + static_cast<long>(rng() % 3), u);
    }
    const Condensation a = condense_list(adj);
    const Condensation b = condense_list(looped);
    EXPECT_EQ(a.of, b.of);
    EXPECT_EQ(a.bottom, b.bottom);
    EXPECT_EQ(a.nodes, b.nodes);
  }
}

TEST(Condense, MatchesTransitiveClosureOnRandomDigraphs) {
  std::mt19937_64 rng(20261017);
  for (int trial = 0; trial < 300; ++trial) {
    const std::uint32_t n = static_cast<std::uint32_t>(rng() % 25);
    // Densities from near-empty (many isolated nodes) to dense.
    const double p = static_cast<double>(rng() % 100) / 400.0;
    std::bernoulli_distribution edge(p);
    Adjacency adj(n);
    for (std::uint32_t u = 0; u < n; ++u) {
      for (std::uint32_t v = 0; v < n; ++v) {
        if (!edge(rng)) continue;
        adj[u].push_back(v);                      // may be a self-loop
        if (rng() % 4 == 0) adj[u].push_back(v);  // duplicate edge
      }
      std::shuffle(adj[u].begin(), adj[u].end(), rng);
    }
    SCOPED_TRACE("trial " + std::to_string(trial) + " n=" + std::to_string(n));
    expect_matches_brute_force(adj);
  }
}

}  // namespace
}  // namespace ppk::verify
