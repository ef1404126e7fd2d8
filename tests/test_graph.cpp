// Unit tests for the immutable CSR graph (GraphBuilder / CsrGraph).  The
// Digraph suite covers the directed-graph queries — degrees, sources and
// sinks, reachability, DOT, acyclicity — on small hand-built graphs.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/check.hpp"
#include "graph/csr.hpp"

namespace fmm::graph {
namespace {

CsrGraph freeze_edges(std::size_t num_vertices,
                      const std::vector<std::pair<VertexId, VertexId>>& edges) {
  GraphBuilder builder(num_vertices);
  for (const auto& [u, v] : edges) {
    builder.add_edge(u, v);
  }
  return builder.freeze();
}

CsrGraph diamond() {
  // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
  return freeze_edges(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}});
}

TEST(Digraph, Degrees) {
  const CsrGraph g = diamond();
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.out_degree(0), 2u);
  EXPECT_EQ(g.in_degree(3), 2u);
  EXPECT_EQ(g.in_degree(0), 0u);
}

TEST(Digraph, AddVerticesReturnsFirstId) {
  GraphBuilder builder;
  EXPECT_EQ(builder.add_vertices(3), 0u);
  EXPECT_EQ(builder.add_vertices(2), 3u);
  EXPECT_EQ(builder.freeze().num_vertices(), 5u);
}

TEST(Digraph, EdgeOutOfRangeThrows) {
  GraphBuilder builder(2);
  EXPECT_THROW(builder.add_edge(0, 2), CheckError);
  EXPECT_THROW(builder.add_edge(2, 0), CheckError);
}

TEST(Digraph, SourcesAndSinks) {
  const CsrGraph g = diamond();
  EXPECT_EQ(g.sources(), (std::vector<VertexId>{0}));
  EXPECT_EQ(g.sinks(), (std::vector<VertexId>{3}));
}

TEST(Digraph, TopologicalOrderRespectsEdges) {
  const CsrGraph g = diamond();
  const auto order = g.topological_order();
  ASSERT_EQ(order.size(), 4u);
  std::vector<std::size_t> pos(4);
  for (std::size_t i = 0; i < order.size(); ++i) {
    pos[order[i]] = i;
  }
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (const VertexId w : g.out_neighbors(v)) {
      EXPECT_LT(pos[v], pos[w]);
    }
  }
}

TEST(Digraph, CycleDetection) {
  // Acyclicity is a freeze() invariant: a cycle cannot be frozen.
  GraphBuilder builder(3);
  builder.add_edge(0, 1);
  builder.add_edge(1, 2);
  builder.add_edge(2, 0);
  EXPECT_THROW(builder.freeze(), CheckError);
}

TEST(Digraph, SelfLoopIsCycle) {
  GraphBuilder builder(1);
  builder.add_edge(0, 0);
  EXPECT_THROW(builder.freeze(), CheckError);
}

TEST(Digraph, DagIsDag) {
  EXPECT_TRUE(diamond().is_dag());
}

TEST(Digraph, ReachableFrom) {
  const CsrGraph g = freeze_edges(5, {{0, 1}, {1, 2}, {3, 4}});
  const auto reach = g.reachable_from({0});
  EXPECT_TRUE(reach[0]);
  EXPECT_TRUE(reach[1]);
  EXPECT_TRUE(reach[2]);
  EXPECT_FALSE(reach[3]);
  EXPECT_FALSE(reach[4]);
}

TEST(Digraph, ReachableFromMultipleSources) {
  const CsrGraph g = freeze_edges(4, {{0, 1}, {2, 3}});
  const auto reach = g.reachable_from({0, 2});
  EXPECT_TRUE(reach[1]);
  EXPECT_TRUE(reach[3]);
}

TEST(Digraph, ReachingTo) {
  const CsrGraph g = diamond();
  const auto reaching = g.reaching_to({3});
  EXPECT_TRUE(reaching[0]);
  EXPECT_TRUE(reaching[1]);
  EXPECT_TRUE(reaching[2]);
  EXPECT_TRUE(reaching[3]);
  const auto reaching1 = g.reaching_to({1});
  EXPECT_TRUE(reaching1[0]);
  EXPECT_FALSE(reaching1[2]);
}

TEST(Digraph, ReachabilityOutOfRangeThrows) {
  const CsrGraph g = diamond();
  EXPECT_THROW(g.reachable_from({9}), CheckError);
  EXPECT_THROW(g.reaching_to({9}), CheckError);
}

TEST(Digraph, DotOutputContainsEdges) {
  const CsrGraph g = diamond();
  const std::string dot = g.to_dot({"in", "l", "r", "out"});
  EXPECT_NE(dot.find("v0 -> v1"), std::string::npos);
  EXPECT_NE(dot.find("v2 -> v3"), std::string::npos);
  EXPECT_NE(dot.find("label=\"in\""), std::string::npos);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
}

TEST(Digraph, EmptyGraphTopoOrder) {
  const CsrGraph g = GraphBuilder().freeze();
  EXPECT_TRUE(g.topological_order().empty());
  EXPECT_TRUE(g.is_dag());
}

TEST(Digraph, LinearChainOrder) {
  GraphBuilder builder(64);
  for (VertexId v = 0; v + 1 < 64; ++v) {
    builder.add_edge(v, v + 1);
  }
  const auto order = builder.freeze().topological_order();
  ASSERT_EQ(order.size(), 64u);
  for (VertexId v = 0; v < 64; ++v) {
    EXPECT_EQ(order[v], v);
  }
}

TEST(CsrGraph, FreezeBasicStructure) {
  const CsrGraph g = diamond();
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.out_degree(0), 2u);
  EXPECT_EQ(g.in_degree(3), 2u);
  EXPECT_EQ(g.in_degree(0), 0u);
  EXPECT_EQ(g.sources(), (std::vector<VertexId>{0}));
  EXPECT_EQ(g.sinks(), (std::vector<VertexId>{3}));
  EXPECT_TRUE(g.is_dag());
}

TEST(CsrGraph, EmptyGraph) {
  const CsrGraph g;
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_TRUE(g.topological_order().empty());
}

TEST(GraphBuilder, AddVerticesReturnsFirstId) {
  GraphBuilder builder;
  EXPECT_EQ(builder.add_vertices(3), 0u);
  EXPECT_EQ(builder.add_vertex(), 3u);
  EXPECT_EQ(builder.num_vertices(), 4u);
}

TEST(GraphBuilder, EdgeOutOfRangeThrows) {
  GraphBuilder builder(2);
  EXPECT_THROW(builder.add_edge(0, 2), CheckError);
}

TEST(GraphBuilder, FreezeRejectsParallelEdges) {
  // Regression: the CDAG builder never creates duplicate edges, and
  // freeze() must refuse them rather than store a multigraph.
  GraphBuilder builder(3);
  builder.add_edge(0, 1);
  builder.add_edge(1, 2);
  builder.add_edge(0, 1);
  EXPECT_THROW(builder.freeze(), CheckError);
}

TEST(GraphBuilder, FreezeRejectsNonTopologicalEdge) {
  {
    GraphBuilder builder(3);
    builder.add_edge(2, 1);  // u > v: would admit cycles
    EXPECT_THROW(builder.freeze(), CheckError);
  }
  {
    GraphBuilder builder(1);
    builder.add_edge(0, 0);  // self-loop
    EXPECT_THROW(builder.freeze(), CheckError);
  }
}

TEST(GraphBuilder, FreezeConsumesBuilder) {
  GraphBuilder builder(2);
  builder.add_edge(0, 1);
  const CsrGraph g = builder.freeze();
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(builder.num_vertices(), 0u);
  EXPECT_EQ(builder.num_edges(), 0u);
}

TEST(CsrGraph, NeighborOrderEqualsInsertionOrder) {
  // Bit-identical pebble simulation depends on this: the LRU clock ticks
  // in neighbor-iteration order, which must be insertion order, not
  // sorted order.
  GraphBuilder builder(5);
  builder.add_edge(0, 4);
  builder.add_edge(2, 4);
  builder.add_edge(1, 4);
  builder.add_edge(0, 3);
  builder.add_edge(0, 2);
  const CsrGraph g = builder.freeze();
  const auto ins = g.in_neighbors(4);
  ASSERT_EQ(ins.size(), 3u);
  EXPECT_EQ(ins[0], 0u);
  EXPECT_EQ(ins[1], 2u);
  EXPECT_EQ(ins[2], 1u);
  const auto outs = g.out_neighbors(0);
  ASSERT_EQ(outs.size(), 3u);
  EXPECT_EQ(outs[0], 4u);
  EXPECT_EQ(outs[1], 3u);
  EXPECT_EQ(outs[2], 2u);
}

TEST(CsrGraph, TopologicalOrderIsIdentity) {
  // freeze() validates u < v per edge, so ids are already topologically
  // sorted and topological_order() returns the identity permutation.
  const CsrGraph g = freeze_edges(
      6, {{0, 2}, {1, 2}, {2, 4}, {3, 4}, {2, 5}, {4, 5}});
  const auto order = g.topological_order();
  ASSERT_EQ(order.size(), 6u);
  for (VertexId v = 0; v < 6; ++v) {
    EXPECT_EQ(order[v], v);
  }
}

TEST(CsrGraph, ReachabilityBothDirections) {
  const CsrGraph g = diamond();
  const auto fwd = g.reachable_from({1});
  EXPECT_FALSE(fwd[0]);
  EXPECT_TRUE(fwd[1]);
  EXPECT_FALSE(fwd[2]);
  EXPECT_TRUE(fwd[3]);
  const auto bwd = g.reaching_to({1});
  EXPECT_TRUE(bwd[0]);
  EXPECT_TRUE(bwd[1]);
  EXPECT_FALSE(bwd[2]);
  EXPECT_FALSE(bwd[3]);
  EXPECT_THROW(g.reachable_from({9}), CheckError);
}

TEST(CsrGraph, DotOutputAndGuard) {
  const CsrGraph g = diamond();
  const std::string dot = g.to_dot({"in", "l", "r", "out"});
  EXPECT_NE(dot.find("v0 -> v1"), std::string::npos);
  EXPECT_NE(dot.find("label=\"in\""), std::string::npos);

  GraphBuilder big(kDotVertexLimit + 1);
  const CsrGraph huge = big.freeze();
  EXPECT_THROW(huge.to_dot(), CheckError);
  EXPECT_NE(huge.to_dot({}, /*allow_large=*/true).find("digraph"),
            std::string::npos);
}

}  // namespace
}  // namespace fmm::graph
