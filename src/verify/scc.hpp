// The SCC condensation shared by every graph in the verify layer: the
// lumped orbit graph (lumped_markov.hpp), which under the trivial group is
// the count graph the global-fairness verifier decides on, and the
// per-agent graph (agent_graph.hpp).  condense() runs one iterative
// Tarjan and returns what every caller reads next: the bottom SCCs and the
// members of each SCC.
//
// Component ids come out in reverse topological order: every edge u -> v
// has of[u] >= of[v], so id 0 is a bottom SCC.  The ids depend only on the
// node numbering and the stored order of each node's edges; self-loops and
// duplicate edges do not change them.

#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <numeric>
#include <span>
#include <vector>

namespace ppk::verify {

/// The SCC condensation of a graph on nodes 0..n-1.
struct Condensation {
  /// of[node] = SCC id, in reverse topological order.
  std::vector<std::uint32_t> of;
  /// bottom[scc] != 0 iff no edge leaves the SCC.
  std::vector<char> bottom;
  /// Members of SCC s are nodes[offsets[s] .. offsets[s + 1]), ascending.
  std::vector<std::uint32_t> offsets;
  /// Every node once, grouped by SCC id.
  std::vector<std::uint32_t> nodes;

  /// Number of SCCs.
  [[nodiscard]] std::uint32_t size() const noexcept {
    return static_cast<std::uint32_t>(bottom.size());
  }

  /// The nodes of one SCC, in ascending order.
  [[nodiscard]] std::span<const std::uint32_t> members(
      std::uint32_t scc) const {
    return std::span<const std::uint32_t>(nodes).subspan(
        offsets[scc], offsets[scc + 1] - offsets[scc]);
  }

  /// The bottom SCC ids, ordered by their smallest member.
  [[nodiscard]] std::vector<std::uint32_t> bottoms() const {
    std::vector<std::uint32_t> ids;
    for (std::uint32_t u = 0; u < of.size(); ++u) {
      if (bottom[of[u]] && members(of[u]).front() == u) ids.push_back(of[u]);
    }
    return ids;
  }
};

/// Condenses the graph on nodes 0..n-1 whose out-edges of node u are the
/// random-access range successors(u); `head` maps one stored edge to its
/// target node (identity for a plain list of node ids).  Edges are visited
/// in their stored order.
template <class Successors, class Head = std::identity>
[[nodiscard]] Condensation condense(std::uint32_t n,
                                    const Successors& successors,
                                    Head head = {}) {
  constexpr std::uint32_t kNone = UINT32_MAX;
  Condensation out;
  out.of.assign(n, kNone);

  // Iterative Tarjan.  A visited node is on the Tarjan stack exactly while
  // its SCC id is still unassigned.
  std::vector<std::uint32_t> disc(n, kNone);
  std::vector<std::uint32_t> low(n, 0);
  std::vector<std::uint32_t> stack;
  struct Frame {
    std::uint32_t node;
    std::size_t next_edge;
  };
  std::vector<Frame> call_stack;
  std::uint32_t timer = 0;
  std::uint32_t num_sccs = 0;
  const auto enter = [&](std::uint32_t u) {
    disc[u] = low[u] = timer++;
    stack.push_back(u);
    call_stack.push_back(Frame{u, 0});
  };

  for (std::uint32_t root = 0; root < n; ++root) {
    if (disc[root] != kNone) continue;
    enter(root);
    while (!call_stack.empty()) {
      Frame& top = call_stack.back();
      const std::uint32_t u = top.node;
      const auto& edges = successors(u);
      if (top.next_edge < std::size(edges)) {
        const std::uint32_t v = std::invoke(head, edges[top.next_edge++]);
        if (disc[v] == kNone) {
          enter(v);
        } else if (out.of[v] == kNone) {
          low[u] = std::min(low[u], disc[v]);
        }
        continue;
      }
      if (low[u] == disc[u]) {
        std::uint32_t w;
        do {
          w = stack.back();
          stack.pop_back();
          out.of[w] = num_sccs;
        } while (w != u);
        ++num_sccs;
      }
      call_stack.pop_back();
      if (!call_stack.empty()) {
        const std::uint32_t parent = call_stack.back().node;
        low[parent] = std::min(low[parent], low[u]);
      }
    }
  }

  // Bottom flags, then the members grouped by one counting pass; visiting
  // nodes in ascending order keeps each SCC's slice ascending.
  out.bottom.assign(num_sccs, 1);
  out.offsets.assign(num_sccs + 1, 0);
  for (std::uint32_t u = 0; u < n; ++u) {
    const std::uint32_t scc = out.of[u];
    ++out.offsets[scc + 1];
    for (const auto& edge : successors(u)) {
      if (out.of[std::invoke(head, edge)] != scc) out.bottom[scc] = 0;
    }
  }
  std::partial_sum(out.offsets.begin(), out.offsets.end(), out.offsets.begin());
  std::vector<std::uint32_t> fill(out.offsets.begin(), out.offsets.end() - 1);
  out.nodes.resize(n);
  for (std::uint32_t u = 0; u < n; ++u) out.nodes[fill[out.of[u]]++] = u;
  return out;
}

}  // namespace ppk::verify
