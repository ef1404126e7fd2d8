#include "graph/vertex_cut.hpp"

#include "common/check.hpp"
#include "graph/maxflow.hpp"

namespace fmm::graph {

namespace {

/// Builds the vertex-split flow network.
///
/// Every original vertex v becomes v_in (2v) and v_out (2v+1) joined by a
/// capacity-1 arc (capacity 0 if v is forbidden, i.e. unusable by any
/// path).  Original edges get infinite capacity.  The super-source (2N)
/// feeds every source's v_in; every target's v_out drains to the
/// super-sink (2N+1).  This makes cut vertices = saturated split arcs and
/// allows cutting at sources/targets themselves, matching the dominator
/// semantics of Definition 2.3.
struct SplitNetwork {
  MaxFlow flow;
  std::size_t super_source;
  std::size_t super_sink;
  std::vector<std::size_t> split_edge_id;  // per original vertex

  SplitNetwork(const CsrGraph& g, const std::vector<VertexId>& sources,
               const std::vector<VertexId>& targets,
               const std::vector<VertexId>& forbidden)
      : flow(2 * g.num_vertices() + 2),
        super_source(2 * g.num_vertices()),
        super_sink(2 * g.num_vertices() + 1),
        split_edge_id(g.num_vertices()) {
    std::vector<bool> is_forbidden(g.num_vertices(), false);
    for (const VertexId v : forbidden) {
      FMM_CHECK(v < g.num_vertices());
      is_forbidden[v] = true;
    }
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      split_edge_id[v] =
          flow.add_edge(2 * v, 2 * v + 1, is_forbidden[v] ? 0 : 1);
    }
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      for (const VertexId w : g.out_neighbors(v)) {
        flow.add_edge(2 * v + 1, 2 * w, MaxFlow::kInfinity);
      }
    }
    for (const VertexId s : sources) {
      FMM_CHECK(s < g.num_vertices());
      flow.add_edge(super_source, 2 * s, MaxFlow::kInfinity);
    }
    for (const VertexId t : targets) {
      FMM_CHECK(t < g.num_vertices());
      flow.add_edge(2 * t + 1, super_sink, MaxFlow::kInfinity);
    }
  }
};

}  // namespace

VertexCutResult min_vertex_cut(const CsrGraph& g,
                               const std::vector<VertexId>& sources,
                               const std::vector<VertexId>& targets) {
  SplitNetwork net(g, sources, targets, {});
  const std::int64_t value = net.flow.run(net.super_source, net.super_sink);
  FMM_CHECK_MSG(value < MaxFlow::kInfinity,
                "infinite cut: some source->target path avoids all vertices");

  VertexCutResult result;
  result.cut_size = static_cast<std::size_t>(value);
  const std::vector<bool> source_side =
      net.flow.min_cut_source_side(net.super_source);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (source_side[2 * v] && !source_side[2 * v + 1]) {
      result.cut_vertices.push_back(v);
    }
  }
  FMM_CHECK_MSG(result.cut_vertices.size() == result.cut_size,
                "cut extraction mismatch: " << result.cut_vertices.size()
                                            << " vs " << result.cut_size);
  return result;
}

std::size_t max_vertex_disjoint_paths(const CsrGraph& g,
                                      const std::vector<VertexId>& sources,
                                      const std::vector<VertexId>& targets,
                                      const std::vector<VertexId>& forbidden) {
  SplitNetwork net(g, sources, targets, forbidden);
  const std::int64_t value = net.flow.run(net.super_source, net.super_sink);
  return static_cast<std::size_t>(value);
}

bool is_dominator_set(const CsrGraph& g, const std::vector<VertexId>& sources,
                      const std::vector<VertexId>& targets,
                      const std::vector<VertexId>& candidate) {
  // Γ dominates iff no source->target path avoids Γ, i.e. iff the maximum
  // number of Γ-avoiding paths is zero.
  return max_vertex_disjoint_paths(g, sources, targets, candidate) == 0;
}

std::size_t brute_force_min_vertex_cut(const CsrGraph& g,
                                       const std::vector<VertexId>& sources,
                                       const std::vector<VertexId>& targets) {
  const std::size_t n = g.num_vertices();
  FMM_CHECK_MSG(n <= 24, "brute force limited to 24 vertices");
  std::size_t best = n + 1;
  for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
    const auto popcount = static_cast<std::size_t>(__builtin_popcount(mask));
    if (popcount >= best) {
      continue;
    }
    std::vector<VertexId> candidate;
    for (VertexId v = 0; v < n; ++v) {
      if (mask & (1u << v)) {
        candidate.push_back(v);
      }
    }
    if (is_dominator_set(g, sources, targets, candidate)) {
      best = popcount;
    }
  }
  FMM_CHECK_MSG(best <= n, "no dominator found (should be impossible)");
  return best;
}

}  // namespace fmm::graph
