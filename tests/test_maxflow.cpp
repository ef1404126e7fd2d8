// Unit tests for Dinic max-flow and vertex-cut (dominator) computation.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "graph/maxflow.hpp"
#include "graph/vertex_cut.hpp"

namespace fmm::graph {
namespace {

TEST(MaxFlow, SingleEdge) {
  MaxFlow f(2);
  f.add_edge(0, 1, 5);
  EXPECT_EQ(f.run(0, 1), 5);
}

TEST(MaxFlow, SeriesBottleneck) {
  MaxFlow f(3);
  f.add_edge(0, 1, 5);
  f.add_edge(1, 2, 3);
  EXPECT_EQ(f.run(0, 2), 3);
}

TEST(MaxFlow, ParallelPaths) {
  MaxFlow f(4);
  f.add_edge(0, 1, 2);
  f.add_edge(1, 3, 2);
  f.add_edge(0, 2, 3);
  f.add_edge(2, 3, 3);
  EXPECT_EQ(f.run(0, 3), 5);
}

TEST(MaxFlow, ClassicNetwork) {
  // A standard 6-node example with max flow 23.
  MaxFlow f(6);
  f.add_edge(0, 1, 16);
  f.add_edge(0, 2, 13);
  f.add_edge(1, 2, 10);
  f.add_edge(2, 1, 4);
  f.add_edge(1, 3, 12);
  f.add_edge(3, 2, 9);
  f.add_edge(2, 4, 14);
  f.add_edge(4, 3, 7);
  f.add_edge(3, 5, 20);
  f.add_edge(4, 5, 4);
  EXPECT_EQ(f.run(0, 5), 23);
}

TEST(MaxFlow, DisconnectedIsZero) {
  MaxFlow f(4);
  f.add_edge(0, 1, 10);
  f.add_edge(2, 3, 10);
  EXPECT_EQ(f.run(0, 3), 0);
}

TEST(MaxFlow, FlowOnEdges) {
  MaxFlow f(3);
  const std::size_t e01 = f.add_edge(0, 1, 4);
  const std::size_t e12 = f.add_edge(1, 2, 2);
  EXPECT_EQ(f.run(0, 2), 2);
  EXPECT_EQ(f.flow_on(e01), 2);
  EXPECT_EQ(f.flow_on(e12), 2);
  EXPECT_EQ(f.residual_on(e01), 2);
}

TEST(MaxFlow, MinCutSourceSide) {
  MaxFlow f(3);
  f.add_edge(0, 1, 1);
  f.add_edge(1, 2, 10);
  f.run(0, 2);
  const auto side = f.min_cut_source_side(0);
  EXPECT_TRUE(side[0]);
  EXPECT_FALSE(side[1]);
  EXPECT_FALSE(side[2]);
}

TEST(MaxFlow, RunTwiceThrows) {
  MaxFlow f(2);
  f.add_edge(0, 1, 1);
  f.run(0, 1);
  EXPECT_THROW(f.run(0, 1), CheckError);
}

CsrGraph freeze_edges(std::size_t num_vertices,
                      const std::vector<std::pair<VertexId, VertexId>>& edges) {
  GraphBuilder builder(num_vertices);
  for (const auto& [u, v] : edges) {
    builder.add_edge(u, v);
  }
  return builder.freeze();
}

/// Random DAG on `n` vertices: each forward pair (u < v) is an edge with
/// probability `p`.
CsrGraph random_dag(std::size_t n, double p, Rng& rng) {
  GraphBuilder builder(n);
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 1; v < n; ++v) {
      if (rng.bernoulli(p)) {
        builder.add_edge(u, v);
      }
    }
  }
  return builder.freeze();
}

TEST(VertexCut, DiamondNeedsOneOrTwo) {
  // 0 -> {1,2} -> 3: cutting 0 (or 3) suffices: min vertex cut = 1.
  const CsrGraph g = freeze_edges(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}});
  const auto cut = min_vertex_cut(g, {0}, {3});
  EXPECT_EQ(cut.cut_size, 1u);
}

TEST(VertexCut, TwoDisjointPathsNeedTwo) {
  // 0->2->4, 1->3->4 with two sources; targets {4}: cutting 4 suffices.
  const CsrGraph g = freeze_edges(5, {{0, 2}, {2, 4}, {1, 3}, {3, 4}});
  EXPECT_EQ(min_vertex_cut(g, {0, 1}, {4}).cut_size, 1u);
  // Two separate targets -> need 2 vertices.
  const CsrGraph h = freeze_edges(6, {{0, 2}, {2, 4}, {1, 3}, {3, 5}});
  EXPECT_EQ(min_vertex_cut(h, {0, 1}, {4, 5}).cut_size, 2u);
}

TEST(VertexCut, CutVerticesAreValidDominator) {
  const CsrGraph g = freeze_edges(
      7, {{0, 2}, {1, 2}, {2, 3}, {2, 4}, {3, 5}, {4, 5}, {4, 6}});
  const auto cut = min_vertex_cut(g, {0, 1}, {5, 6});
  EXPECT_EQ(cut.cut_size, 1u);  // vertex 2 dominates everything
  EXPECT_TRUE(is_dominator_set(g, {0, 1}, {5, 6}, cut.cut_vertices));
}

TEST(VertexCut, SourceEqualsTargetCostsOne) {
  const CsrGraph g = freeze_edges(2, {{0, 1}});
  EXPECT_EQ(min_vertex_cut(g, {0}, {0}).cut_size, 1u);
}

TEST(VertexCut, MatchesBruteForceOnRandomDags) {
  Rng rng(2024);
  for (int trial = 0; trial < 25; ++trial) {
    const CsrGraph g = random_dag(8, 0.3, rng);
    const std::vector<VertexId> sources{0, 1};
    const std::vector<VertexId> targets{6, 7};
    const auto fast = min_vertex_cut(g, sources, targets);
    const std::size_t brute = brute_force_min_vertex_cut(g, sources, targets);
    EXPECT_EQ(fast.cut_size, brute) << "trial " << trial;
    EXPECT_TRUE(is_dominator_set(g, sources, targets, fast.cut_vertices));
  }
}

TEST(DisjointPaths, MengerDuality) {
  Rng rng(555);
  for (int trial = 0; trial < 25; ++trial) {
    const CsrGraph g = random_dag(10, 0.25, rng);
    const std::vector<VertexId> sources{0, 1, 2};
    const std::vector<VertexId> targets{7, 8, 9};
    EXPECT_EQ(max_vertex_disjoint_paths(g, sources, targets),
              min_vertex_cut(g, sources, targets).cut_size)
        << "trial " << trial;
  }
}

TEST(DisjointPaths, ForbiddenVerticesReducePaths) {
  const CsrGraph g = freeze_edges(
      5, {{0, 1}, {1, 4}, {0, 2}, {2, 4}, {0, 3}, {3, 4}});
  // Only one path can use vertex 4, so 1 path regardless.
  EXPECT_EQ(max_vertex_disjoint_paths(g, {0}, {4}), 1u);
  // Forbidding the middle vertices kills specific routes.
  EXPECT_EQ(max_vertex_disjoint_paths(g, {0}, {4}, {1, 2, 3}), 0u);
}

TEST(DisjointPaths, WideGraphManyPaths) {
  // k parallel 2-hop paths.
  const std::size_t k = 6;
  GraphBuilder builder(2 + 2 * k);
  std::vector<VertexId> sources, targets;
  for (std::size_t i = 0; i < k; ++i) {
    const VertexId s = static_cast<VertexId>(2 * i);
    const VertexId t = static_cast<VertexId>(2 * i + 1);
    builder.add_edge(s, t);
    sources.push_back(s);
    targets.push_back(t);
  }
  const CsrGraph g = builder.freeze();
  EXPECT_EQ(max_vertex_disjoint_paths(g, sources, targets), k);
}

TEST(Dominator, EmptySetDominatesNothing) {
  const CsrGraph g = freeze_edges(2, {{0, 1}});
  EXPECT_FALSE(is_dominator_set(g, {0}, {1}, {}));
  EXPECT_TRUE(is_dominator_set(g, {0}, {1}, {0}));
  EXPECT_TRUE(is_dominator_set(g, {0}, {1}, {1}));
}

}  // namespace
}  // namespace fmm::graph
