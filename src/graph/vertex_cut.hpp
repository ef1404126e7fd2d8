// Minimum vertex cuts and vertex-disjoint path systems on DAGs.
//
// The paper's dominator sets (Definition 2.3) are exactly vertex cuts:
// Γ dominates V' iff every path from the CDAG's inputs to V' meets Γ
// (endpoints included).  By Menger's theorem the minimum dominator size
// equals the maximum number of vertex-disjoint input→V' paths, both of
// which we compute exactly with a vertex-split max-flow construction.
//
// These routines certify Lemma 3.7 (every dominator of r^2 outputs of
// SUB_H^{r x r} has size >= r^2/2) and demonstrate Lemma 3.11 (the
// disjoint-path count through encoders).
//
// Every routine takes the frozen CsrGraph; brute_force_min_vertex_cut is
// the exponential reference oracle the flow-based routines are tested
// against.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/csr.hpp"

namespace fmm::graph {

struct VertexCutResult {
  /// Minimum number of vertices meeting every source->target path.
  std::size_t cut_size = 0;
  /// One optimal cut (vertex ids of the original graph).
  std::vector<VertexId> cut_vertices;
};

/// Exact minimum vertex cut separating `sources` from `targets` where cut
/// vertices may be sources or targets themselves (dominator semantics).
/// If some target is unreachable from all sources it simply contributes
/// nothing.  O(E * sqrt(V)) via unit-capacity Dinic.
VertexCutResult min_vertex_cut(const CsrGraph& g,
                               const std::vector<VertexId>& sources,
                               const std::vector<VertexId>& targets);

/// Maximum number of vertex-disjoint paths from `sources` to `targets`
/// (disjoint including endpoints), optionally avoiding `forbidden`
/// vertices entirely.  Equals min_vertex_cut when `forbidden` is empty
/// (Menger).
std::size_t max_vertex_disjoint_paths(
    const CsrGraph& g, const std::vector<VertexId>& sources,
    const std::vector<VertexId>& targets,
    const std::vector<VertexId>& forbidden = {});

/// Reference implementation for tests: tries all vertex subsets in
/// increasing cardinality until one is a dominator.  Exponential; requires
/// g.num_vertices() <= 24.
std::size_t brute_force_min_vertex_cut(const CsrGraph& g,
                                       const std::vector<VertexId>& sources,
                                       const std::vector<VertexId>& targets);

/// True iff `candidate` dominates `targets` w.r.t. `sources` in g, i.e.
/// removing `candidate` leaves no source->target path (Definition 2.3).
bool is_dominator_set(const CsrGraph& g, const std::vector<VertexId>& sources,
                      const std::vector<VertexId>& targets,
                      const std::vector<VertexId>& candidate);

}  // namespace fmm::graph
