// CSR graph checks on real CDAGs.  For Strassen H^{n x n}, n in {4, 8, 16}:
//   - pebble simulation results are bit-identical when the graph is
//     reassembled from its four flat arrays (CsrGraph::from_frozen_parts,
//     the snapshot reader's path);
//   - the flow-based min vertex cut agrees with brute_force_min_vertex_cut,
//     the exponential reference oracle, on small target sets, and its cut
//     is a dominator whose size equals the vertex-disjoint path count.
#include <gtest/gtest.h>

#include <cstddef>
#include <utility>
#include <vector>

#include "bilinear/catalog.hpp"
#include "cdag/builder.hpp"
#include "common/rng.hpp"
#include "graph/csr.hpp"
#include "graph/vertex_cut.hpp"
#include "pebble/machine.hpp"
#include "pebble/schedules.hpp"

namespace fmm {
namespace {

class CsrEquivalence : public ::testing::TestWithParam<std::size_t> {};

template <typename T>
FrozenArray<T> copy_of(std::span<const T> items) {
  return FrozenArray<T>(std::vector<T>(items.begin(), items.end()));
}

TEST_P(CsrEquivalence, SimulationBitIdenticalAfterRoundtrip) {
  const std::size_t n = GetParam();
  const cdag::Cdag cdag = cdag::build_cdag(bilinear::strassen(), n);
  // Reassemble the graph from copies of its flat arrays; every SimResult
  // field (including the step-by-step I/O trace) must be unchanged.
  cdag::Cdag rebuilt = cdag;
  rebuilt.graph = graph::CsrGraph::from_frozen_parts(
      copy_of(cdag.graph.out_offset_array()),
      copy_of(cdag.graph.in_offset_array()),
      copy_of(cdag.graph.out_edge_array()),
      copy_of(cdag.graph.in_edge_array()));
  ASSERT_EQ(rebuilt.graph, cdag.graph);

  for (const auto policy : {pebble::ReplacementPolicy::kLru,
                            pebble::ReplacementPolicy::kBelady}) {
    pebble::SimOptions options;
    options.cache_size = static_cast<std::int64_t>(2 * n);
    options.replacement = policy;
    const auto schedule = pebble::dfs_schedule(cdag);
    EXPECT_EQ(schedule, pebble::dfs_schedule(rebuilt));
    const auto a = pebble::simulate(cdag, schedule, options);
    const auto b = pebble::simulate(rebuilt, schedule, options);
    EXPECT_EQ(a.loads, b.loads);
    EXPECT_EQ(a.stores, b.stores);
    EXPECT_EQ(a.weighted_io, b.weighted_io);
    EXPECT_EQ(a.computations, b.computations);
    EXPECT_EQ(a.recomputations, b.recomputations);
    EXPECT_EQ(a.summary.compute_order, b.summary.compute_order);
    EXPECT_EQ(a.summary.io_before, b.summary.io_before);
  }

  pebble::SimOptions remat;
  remat.cache_size = static_cast<std::int64_t>(2 * n * n);
  remat.writeback = pebble::WritebackPolicy::kDropRecomputable;
  const auto a =
      pebble::simulate_with_recomputation(cdag, pebble::dfs_schedule(cdag),
                                          remat);
  const auto b = pebble::simulate_with_recomputation(
      rebuilt, pebble::dfs_schedule(rebuilt), remat);
  EXPECT_EQ(a.loads, b.loads);
  EXPECT_EQ(a.stores, b.stores);
  EXPECT_EQ(a.recomputations, b.recomputations);
  EXPECT_EQ(a.summary.compute_order, b.summary.compute_order);
}

/// The ancestor cone of `targets` as its own graph: the cone's vertices
/// relabelled in increasing id order (so every edge still points upward)
/// with the sources and targets mapped along.  Every input→target path
/// lies inside the cone, so its minimum vertex cut equals the full
/// graph's.
struct Cone {
  graph::CsrGraph graph;
  std::vector<graph::VertexId> sources;
  std::vector<graph::VertexId> targets;
};

Cone extract_cone(const cdag::Cdag& cdag,
                  const std::vector<graph::VertexId>& targets) {
  const std::vector<bool> in_cone = cdag.graph.reaching_to(targets);
  std::vector<graph::VertexId> label(cdag.graph.num_vertices(),
                                     graph::kNoVertex);
  graph::GraphBuilder builder;
  for (graph::VertexId v = 0; v < cdag.graph.num_vertices(); ++v) {
    if (in_cone[v]) {
      label[v] = builder.add_vertex();
    }
  }
  for (graph::VertexId v = 0; v < cdag.graph.num_vertices(); ++v) {
    if (!in_cone[v]) {
      continue;
    }
    for (const graph::VertexId u : cdag.graph.in_neighbors(v)) {
      builder.add_edge(label[u], label[v]);
    }
  }
  Cone cone;
  for (const graph::VertexId s : cdag.all_inputs()) {
    if (in_cone[s]) {
      cone.sources.push_back(label[s]);
    }
  }
  for (const graph::VertexId t : targets) {
    cone.targets.push_back(label[t]);
  }
  cone.graph = builder.freeze();
  return cone;
}

std::size_t cone_size(const cdag::Cdag& cdag,
                      const std::vector<graph::VertexId>& targets) {
  std::size_t size = 0;
  for (const bool in : cdag.graph.reaching_to(targets)) {
    size += in ? 1 : 0;
  }
  return size;
}

TEST_P(CsrEquivalence, VertexCutsAgreeAcrossRepresentations) {
  const cdag::Cdag cdag = cdag::build_cdag(bilinear::strassen(), GetParam());
  const std::vector<graph::VertexId> inputs = cdag.all_inputs();
  Rng rng(2026);

  // Target sets with small ancestor cones (encoder outputs and shallow
  // products) keep the brute-force oracle within its 24-vertex limit.
  std::vector<graph::VertexId> shallow;
  for (int draw = 0; draw < 400 && shallow.size() < 32; ++draw) {
    const auto v = static_cast<graph::VertexId>(
        inputs.size() + rng.uniform(cdag.graph.num_vertices() - inputs.size()));
    if (cone_size(cdag, {v}) <= 10) {
      shallow.push_back(v);
    }
  }
  ASSERT_GE(shallow.size(), 4u);

  int checked = 0;
  for (int trial = 0; trial < 16; ++trial) {
    std::vector<graph::VertexId> z{shallow[rng.uniform(shallow.size())],
                                   shallow[rng.uniform(shallow.size())]};
    if (z[0] == z[1]) {
      z.pop_back();
    }
    const Cone cone = extract_cone(cdag, z);
    if (cone.graph.num_vertices() > 24) {
      continue;
    }
    ++checked;
    const auto cut = graph::min_vertex_cut(cdag.graph, inputs, z);
    EXPECT_EQ(cut.cut_size, graph::brute_force_min_vertex_cut(
                                cone.graph, cone.sources, cone.targets))
        << "trial " << trial;
    EXPECT_EQ(cut.cut_size,
              graph::max_vertex_disjoint_paths(cdag.graph, inputs, z));
    EXPECT_TRUE(graph::is_dominator_set(cdag.graph, inputs, z,
                                        cut.cut_vertices));
  }
  EXPECT_GE(checked, 4);
}

INSTANTIATE_TEST_SUITE_P(StrassenSizes, CsrEquivalence,
                         ::testing::Values(4u, 8u, 16u));

}  // namespace
}  // namespace fmm
