// Golden SimResult values for the two-level machine simulator.
//
// Pins loads, stores, computations, recomputations and a fingerprint of
// the executed compute order for Strassen n=16 and the file-loaded
// Laderman scheme at n=9, M ∈ {16, 64}:
//   - simulate() over {dfs, bfs, random} × {LRU, Belady} with
//     WritebackPolicy::kWritebackLive;
//   - simulate_with_recomputation() over the same three base orders with
//     WritebackPolicy::kDropRecomputable (LRU); Laderman thrashes in that
//     regime at M=16, so there the pinned behaviour is the refusal.
// Random schedules draw from a fresh Rng(3) per run.  Any refactor of the
// pebble kernel, the graph representation or the sweep/CLI plumbing must
// leave every number here unchanged.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bilinear/catalog.hpp"
#include "bilinear/scheme.hpp"
#include "cdag/builder.hpp"
#include "common/check.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "pebble/machine.hpp"
#include "pebble/schedules.hpp"

namespace {

using namespace fmm;

struct Golden {
  const char* run;  // "<schedule>/<lru|belady|remat>"
  std::int64_t m;
  std::int64_t loads;
  std::int64_t stores;
  std::int64_t computations;
  std::int64_t recomputations;
  const char* order_fingerprint;
};

std::vector<graph::VertexId> schedule_for(const cdag::Cdag& cdag,
                                          const std::string& kind) {
  if (kind == "bfs") {
    return pebble::bfs_schedule(cdag);
  }
  if (kind == "random") {
    Rng rng(3);
    return pebble::random_topological_schedule(cdag, rng);
  }
  return pebble::dfs_schedule(cdag);
}

std::string order_fingerprint(const std::vector<graph::VertexId>& order) {
  std::string text;
  for (const graph::VertexId v : order) {
    text += std::to_string(v);
    text += ',';
  }
  return fingerprint64(text);
}

pebble::SimResult run(const cdag::Cdag& cdag, const std::string& name,
                      std::int64_t m) {
  const std::size_t slash = name.find('/');
  const std::string schedule = name.substr(0, slash);
  const std::string mode = name.substr(slash + 1);
  pebble::SimOptions options;
  options.cache_size = m;
  if (mode == "remat") {
    options.writeback = pebble::WritebackPolicy::kDropRecomputable;
    return pebble::simulate_with_recomputation(
        cdag, schedule_for(cdag, schedule), options);
  }
  options.writeback = pebble::WritebackPolicy::kWritebackLive;
  options.replacement = mode == "belady" ? pebble::ReplacementPolicy::kBelady
                                         : pebble::ReplacementPolicy::kLru;
  return pebble::simulate(cdag, schedule_for(cdag, schedule), options);
}

void check_all(const cdag::Cdag& cdag, const std::vector<Golden>& table) {
  for (const Golden& g : table) {
    SCOPED_TRACE(std::string(g.run) + " M=" + std::to_string(g.m));
    const pebble::SimResult r = run(cdag, g.run, g.m);
    EXPECT_EQ(r.loads, g.loads);
    EXPECT_EQ(r.stores, g.stores);
    EXPECT_EQ(r.computations, g.computations);
    EXPECT_EQ(r.recomputations, g.recomputations);
    EXPECT_EQ(order_fingerprint(r.summary.compute_order),
              g.order_fingerprint);
  }
}

TEST(GoldenSimResult, StrassenN16) {
  const cdag::Cdag cdag = cdag::build_cdag(bilinear::strassen(), 16);
  check_all(cdag, {
      {"dfs/lru", 16, 19615, 12429, 15271, 0, "3eb18db0f58aff97"},
      {"dfs/lru", 64, 11117, 7627, 15271, 0, "3eb18db0f58aff97"},
      {"bfs/lru", 16, 23719, 15271, 15271, 0, "63899204a7946027"},
      {"bfs/lru", 64, 20850, 15271, 15271, 0, "63899204a7946027"},
      {"random/lru", 16, 30348, 15246, 15271, 0, "04307fba179a9303"},
      {"random/lru", 64, 29755, 15176, 15271, 0, "04307fba179a9303"},
      {"dfs/belady", 16, 11317, 8162, 15271, 0, "3eb18db0f58aff97"},
      {"dfs/belady", 64, 4977, 3859, 15271, 0, "3eb18db0f58aff97"},
      {"bfs/belady", 16, 20323, 15258, 15271, 0, "63899204a7946027"},
      {"bfs/belady", 64, 17355, 15133, 15271, 0, "63899204a7946027"},
      {"random/belady", 16, 27550, 14859, 15271, 0, "04307fba179a9303"},
      {"random/belady", 64, 23689, 14041, 15271, 0, "04307fba179a9303"},
      {"dfs/remat", 16, 21535, 11533, 17959, 2688, "082ed150bf83e96b"},
      {"dfs/remat", 64, 13359, 6731, 17936, 2665, "35c5f281e6b91f2d"},
      {"bfs/remat", 16, 24523, 14375, 17255, 1984, "92709e99837ef22b"},
      {"bfs/remat", 64, 21110, 14375, 16871, 1600, "9da7b4c29119c39d"},
      {"random/remat", 16, 32236, 14350, 17944, 2673, "369ad25df98ad30a"},
      {"random/remat", 64, 31521, 14281, 17881, 2610, "28a88cb76bcb0753"},
  });
}

TEST(GoldenSimResult, LadermanFileN9) {
  const cdag::Cdag cdag = cdag::build_cdag(
      bilinear::to_algorithm(bilinear::load_scheme_file(
          std::string(FMM_SOURCE_ROOT) + "/schemes/laderman_333_23.json")),
      9);
  check_all(cdag, {
      {"dfs/lru", 16, 3654, 2266, 2289, 0, "007de77e54c232f6"},
      {"dfs/lru", 64, 1889, 1369, 2289, 0, "007de77e54c232f6"},
      {"bfs/lru", 16, 3679, 2289, 2289, 0, "fc8286d26d9add1c"},
      {"bfs/lru", 64, 2987, 2289, 2289, 0, "fc8286d26d9add1c"},
      {"random/lru", 16, 5769, 2277, 2289, 0, "649b5b445b9e8842"},
      {"random/lru", 64, 5311, 2230, 2289, 0, "649b5b445b9e8842"},
      {"dfs/belady", 16, 2337, 1645, 2289, 0, "007de77e54c232f6"},
      {"dfs/belady", 64, 815, 668, 2289, 0, "007de77e54c232f6"},
      {"bfs/belady", 16, 2966, 2276, 2289, 0, "fc8286d26d9add1c"},
      {"bfs/belady", 64, 2259, 2158, 2289, 0, "fc8286d26d9add1c"},
      {"random/belady", 16, 4877, 2192, 2289, 0, "649b5b445b9e8842"},
      {"random/belady", 64, 3400, 1961, 2289, 0, "649b5b445b9e8842"},
      {"dfs/remat", 64, 2420, 982, 2703, 414, "698120cd7b3e97b9"},
      {"bfs/remat", 64, 3128, 1875, 3203, 914, "58528bca322f16ba"},
      {"random/remat", 64, 7310, 1835, 4435, 2146, "63b2984dab143338"},
  });
  // At M=16 every Laderman base order thrashes in the recomputation
  // regime; the simulator must keep refusing rather than return numbers.
  for (const char* schedule : {"dfs", "bfs", "random"}) {
    EXPECT_THROW(run(cdag, std::string(schedule) + "/remat", 16), CheckError)
        << schedule;
  }
}

}  // namespace
