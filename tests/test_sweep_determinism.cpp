// Determinism battery for the sweep engine: the serialized sweep report
// must be byte-identical across thread counts and identical to a
// hand-rolled serial loop, for Strassen and an alternative-basis
// algorithm (Theorem 4.1's family).  Also the regression tests for the
// fail-fast contract: a throwing task fails the sweep cleanly with the
// task's (n, M) coordinates in the error, instead of the old
// terminate-on-throw pool behaviour.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cdag/builder.hpp"
#include "common/check.hpp"
#include "pebble/machine.hpp"
#include "pebble/schedules.hpp"
#include "service/cache.hpp"
#include "service/service.hpp"
#include "sweep/sweep.hpp"

namespace fmm::sweep {
namespace {

SweepSpec reference_spec() {
  SweepSpec spec;
  spec.algorithms = {"strassen", "winograd-alt"};
  spec.n_grid = {4, 8};
  spec.m_grid = {16, 64};
  spec.kinds = {TaskKind::kSimulate, TaskKind::kLiveness,
                TaskKind::kDominator, TaskKind::kBoundCheck};
  spec.schedule = SchedulePolicy::kRandom;  // maximal RNG sensitivity
  spec.base_seed = 42;
  return spec;
}

TEST(SweepDeterminism, ByteIdenticalAcrossThreadCounts) {
  SweepSpec spec = reference_spec();
  spec.num_threads = 1;
  const std::string serial = run_sweep(spec).to_json();
  for (const std::size_t threads : {2u, 8u}) {
    spec.num_threads = threads;
    EXPECT_EQ(run_sweep(spec).to_json(), serial)
        << "sweep report diverged at " << threads << " threads";
  }
}

TEST(SweepDeterminism, CacheBackedSourceIsByteIdenticalToBuilding) {
  // The engine must not care where CDAGs come from: the default
  // BuildingCdagSource (ephemeral, per-sweep) and the service's
  // content-addressed cache (shared, LRU-evicting) must yield the same
  // report bytes at every thread count — even when the cache is so
  // small that CDAGs are evicted and rebuilt mid-sweep.
  SweepSpec spec = reference_spec();
  spec.num_threads = 1;
  const std::string reference = run_sweep(spec).to_json();
  for (const std::size_t budget_mb : {0u, 256u}) {
    service::CacheConfig cache_config;
    cache_config.memory_budget_bytes = budget_mb << 20;
    service::ContentCache cache(cache_config);
    service::CachingCdagSource source(cache);
    for (const std::size_t threads : {1u, 2u, 8u}) {
      spec.num_threads = threads;
      EXPECT_EQ(run_sweep(spec, source).to_json(), reference)
          << "cache budget " << budget_mb << " MiB diverged at " << threads
          << " threads";
    }
  }
}

TEST(SweepDeterminism, MatchesHandRolledSerialLoop) {
  SweepSpec spec = reference_spec();
  spec.num_threads = 8;
  const SweepResult parallel_result = run_sweep(spec);

  // Hand-rolled reference: enumerate, build each CDAG on demand, run the
  // cells one by one on this thread — no pool involved at all.
  const std::vector<TaskCell> cells = enumerate_tasks(spec);
  ASSERT_EQ(parallel_result.tasks.size(), cells.size());
  std::map<std::pair<std::string, std::size_t>, cdag::Cdag> cdags;
  for (const TaskCell& cell : cells) {
    const auto key = std::make_pair(cell.algorithm, cell.n);
    if (!cdags.count(key)) {
      cdags.emplace(key,
                    cdag::build_cdag(resolve_algorithm(cell.algorithm),
                                     cell.n));
    }
    const TaskResult serial = run_task(cell, cdags.at(key), spec);
    const TaskResult& sharded = parallel_result.tasks[cell.index];
    ASSERT_TRUE(serial.ok) << serial.error;
    EXPECT_TRUE(sharded.ok) << sharded.error;
    EXPECT_EQ(sharded.cell.seed, serial.cell.seed);
    EXPECT_EQ(sharded.loads, serial.loads) << cell.index;
    EXPECT_EQ(sharded.stores, serial.stores) << cell.index;
    EXPECT_EQ(sharded.total_io, serial.total_io) << cell.index;
    EXPECT_EQ(sharded.weighted_io, serial.weighted_io) << cell.index;
    EXPECT_EQ(sharded.computations, serial.computations) << cell.index;
    EXPECT_EQ(sharded.recomputations, serial.recomputations) << cell.index;
    EXPECT_EQ(sharded.liveness_peak, serial.liveness_peak) << cell.index;
    EXPECT_EQ(sharded.dominator_samples, serial.dominator_samples)
        << cell.index;
    EXPECT_EQ(sharded.dominator_worst_ratio, serial.dominator_worst_ratio)
        << cell.index;
    EXPECT_EQ(sharded.dominator_holds, serial.dominator_holds)
        << cell.index;
    EXPECT_EQ(sharded.lower_bound, serial.lower_bound) << cell.index;
    EXPECT_EQ(sharded.bound_ratio, serial.bound_ratio) << cell.index;
    EXPECT_EQ(sharded.bound_holds, serial.bound_holds) << cell.index;
  }
}

TEST(SweepDeterminism, RematRegimeIsDeterministicToo) {
  SweepSpec spec;
  spec.algorithms = {"winograd"};
  spec.n_grid = {8};
  spec.m_grid = {16, 24, 48};
  spec.kinds = {TaskKind::kSimulate};
  spec.remat = true;
  spec.base_seed = 7;
  spec.num_threads = 1;
  const SweepResult serial = run_sweep(spec);
  EXPECT_GT(serial.aggregate_recomputations, 0)
      << "remat sweep should actually recompute at small M";
  for (const std::size_t threads : {2u, 8u}) {
    spec.num_threads = threads;
    EXPECT_EQ(run_sweep(spec).to_json(), serial.to_json());
  }
}

TEST(SweepDeterminism, TaskSeedsAreStableAndDecorrelated) {
  // The seed derivation is part of the report contract (documented in
  // docs/SWEEPS.md): fixed mixing, no dependence on thread count.
  EXPECT_EQ(task_seed(1, 0), task_seed(1, 0));
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    seen.insert(task_seed(42, i));
  }
  EXPECT_EQ(seen.size(), 1000u) << "per-task seeds must not collide";
  EXPECT_NE(task_seed(1, 5), task_seed(2, 5))
      << "base seed must change every stream";
}

TEST(SweepDeterminism, ThrowingTaskFailsSweepWithCoordinates) {
  // M=1 violates the machine's cache_size >= 2 precondition, so the
  // (n=8, M=1) simulate cell throws inside a worker.  The sweep must
  // surface one CheckError naming that cell, not terminate.
  SweepSpec spec;
  spec.algorithms = {"strassen"};
  spec.n_grid = {8};
  spec.m_grid = {16, 1, 64};
  spec.kinds = {TaskKind::kSimulate};
  spec.num_threads = 4;
  try {
    run_sweep(spec);
    FAIL() << "expected the M=1 cell to fail the sweep";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("n=8"), std::string::npos) << what;
    EXPECT_NE(what.find("M=1)"), std::string::npos) << what;
    EXPECT_NE(what.find("strassen"), std::string::npos) << what;
  }
}

TEST(SweepDeterminism, KeepGoingRecordsFailureInReport) {
  SweepSpec spec;
  spec.algorithms = {"strassen"};
  spec.n_grid = {4};
  spec.m_grid = {16, 1, 64};
  spec.kinds = {TaskKind::kSimulate};
  spec.keep_going = true;
  spec.num_threads = 2;
  const SweepResult result = run_sweep(spec);
  EXPECT_EQ(result.num_tasks, 3u);
  EXPECT_EQ(result.failed, 1u);
  EXPECT_EQ(result.completed, 2u);
  const TaskResult& bad = result.tasks[1];
  EXPECT_FALSE(bad.ok);
  EXPECT_NE(bad.error.find("n=4"), std::string::npos) << bad.error;
  EXPECT_NE(bad.error.find("M=1"), std::string::npos) << bad.error;
  // The failing row is part of the deterministic payload.
  spec.num_threads = 8;
  EXPECT_EQ(run_sweep(spec).to_json(), result.to_json());
}

TEST(SweepDeterminism, KeepGoingTurnsFailedCdagBuildsIntoRows) {
  // A mixed-base grid: Strassen needs powers of 2, Laderman powers of 3,
  // so (strassen, 9) and (laderman, 16) cannot be built.  Under
  // keep_going those cells are failed rows carrying their coordinates
  // and the build error; the other two run.
  SweepSpec spec;
  spec.algorithms = {"strassen", std::string("file:") + FMM_SOURCE_ROOT +
                                     "/schemes/laderman_333_23.json"};
  spec.n_grid = {9, 16};
  spec.m_grid = {64};
  spec.kinds = {TaskKind::kSimulate};
  spec.keep_going = true;
  spec.num_threads = 1;
  const SweepResult result = run_sweep(spec);
  ASSERT_EQ(result.num_tasks, 4u);
  EXPECT_EQ(result.completed, 2u);
  EXPECT_EQ(result.failed, 2u);
  for (const std::size_t index : {0u, 3u}) {
    const TaskResult& bad = result.tasks[index];
    EXPECT_FALSE(bad.ok);
    EXPECT_EQ(bad.attempts, 0);
    EXPECT_NE(bad.error.find("CDAG build failed"), std::string::npos)
        << bad.error;
    EXPECT_NE(bad.error.find("(n=" + std::to_string(bad.cell.n) + ", M=64)"),
              std::string::npos)
        << bad.error;
  }
  EXPECT_TRUE(result.tasks[1].ok);
  EXPECT_TRUE(result.tasks[2].ok);
  spec.num_threads = 8;
  EXPECT_EQ(run_sweep(spec).to_json(), result.to_json());

  // Fail-fast keeps refusing the whole sweep with the build error.
  spec.keep_going = false;
  try {
    run_sweep(spec);
    FAIL() << "expected the unbuildable cells to fail the sweep";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "sweep: CDAG build failed for strassen n=9"),
              std::string::npos)
        << e.what();
  }
}

TEST(SweepDeterminism, UnknownAlgorithmFailsUpFront) {
  SweepSpec spec;
  spec.algorithms = {"no-such-algorithm"};
  spec.n_grid = {4};
  spec.m_grid = {16};
  EXPECT_THROW(run_sweep(spec), CheckError);
}

SweepSpec optimal_spec() {
  // n=2 full Strassen CDAG (33 vertices) at M values where both the
  // search stays exact within the default budget AND the simulator
  // accepts the cell, plus n=4 (343 vertices, beyond the 64-vertex
  // oracle) whose optimal cells must become structured skips.
  SweepSpec spec;
  spec.algorithms = {"strassen"};
  spec.n_grid = {2, 4};
  spec.m_grid = {12, 16};
  spec.kinds = {TaskKind::kOptimal, TaskKind::kSimulate,
                TaskKind::kBoundCheck};
  spec.base_seed = 42;
  return spec;
}

TEST(SweepDeterminism, OptimalKindIsByteIdenticalAcrossThreadCounts) {
  SweepSpec spec = optimal_spec();
  spec.num_threads = 1;
  const SweepResult serial = run_sweep(spec);
  const std::string reference = serial.to_json();
  EXPECT_EQ(serial.optimal_cells, 2u);
  EXPECT_EQ(serial.optimal_exact, 2u);
  EXPECT_EQ(serial.optimal_chains_checked, 2u);
  EXPECT_TRUE(serial.all_chains_hold);
  for (const std::size_t threads : {2u, 8u}) {
    spec.num_threads = threads;
    EXPECT_EQ(run_sweep(spec).to_json(), reference)
        << "optimal sweep diverged at " << threads << " threads";
  }
}

TEST(SweepDeterminism, OptimalKindIsByteIdenticalColdAndWarmCache) {
  SweepSpec spec = optimal_spec();
  spec.num_threads = 2;
  const std::string reference = run_sweep(spec).to_json();
  service::CacheConfig cache_config;
  cache_config.memory_budget_bytes = 256u << 20;
  service::ContentCache cache(cache_config);
  service::CachingCdagSource source(cache);
  // First run populates the cache (cold), second answers from it
  // (warm); both must match the uncached reference byte for byte.
  EXPECT_EQ(run_sweep(spec, source).to_json(), reference) << "cold cache";
  EXPECT_EQ(run_sweep(spec, source).to_json(), reference) << "warm cache";
}

TEST(SweepDeterminism, OptimalInfeasibleCellsSkipInsteadOfAborting) {
  // Regression: an optimal cell the oracle cannot attempt — M too small
  // to ever pebble (M=1), or more than 64 vertices (n=4) — must record
  // a structured `infeasible` skip, not abort the sweep, even in
  // fail-fast (keep_going = false) mode.
  SweepSpec spec;
  spec.algorithms = {"strassen"};
  spec.n_grid = {2, 4};
  spec.m_grid = {1, 12};
  spec.kinds = {TaskKind::kOptimal};
  spec.num_threads = 2;
  const SweepResult result = run_sweep(spec);
  EXPECT_EQ(result.num_tasks, 4u);
  EXPECT_EQ(result.failed, 0u);
  // Only (n=2, M=12) is solvable; the other three cells skip.
  EXPECT_EQ(result.skipped, 3u);
  EXPECT_EQ(result.optimal_cells, 1u);
  for (const TaskResult& task : result.tasks) {
    EXPECT_TRUE(task.ok) << task.error;
    if (task.skipped) {
      EXPECT_EQ(task.skip_reason, "infeasible")
          << "n=" << task.cell.n << " M=" << task.cell.m;
    } else {
      EXPECT_EQ(task.cell.n, 2u);
      EXPECT_EQ(task.cell.m, 12);
      EXPECT_EQ(task.optimality, "exact");
      EXPECT_GT(task.states_explored, 0);
    }
  }
}

TEST(SweepDeterminism, OptimalRowRoundTripsThroughCheckpoint) {
  // The checkpoint loader must restore optimal-row payload fields
  // byte-exactly (the load path asserts raw-row identity itself).
  SweepSpec spec;
  spec.algorithms = {"strassen"};
  spec.n_grid = {2};
  spec.m_grid = {12};
  spec.kinds = {TaskKind::kOptimal};
  spec.checkpoint_path =
      std::string(testing::TempDir()) + "optimal_ckpt.jsonl";
  const SweepResult first = run_sweep(spec);
  ASSERT_EQ(first.tasks.size(), 1u);
  spec.resume = true;
  const SweepResult resumed = run_sweep(spec);
  ASSERT_EQ(resumed.tasks.size(), 1u);
  EXPECT_EQ(resumed.tasks[0].min_io, first.tasks[0].min_io);
  EXPECT_EQ(resumed.tasks[0].states_explored,
            first.tasks[0].states_explored);
  EXPECT_EQ(resumed.tasks[0].optimality, first.tasks[0].optimality);
  EXPECT_EQ(task_row_json(resumed.tasks[0]),
            task_row_json(first.tasks[0]));
  std::remove(spec.checkpoint_path.c_str());
}

TEST(SweepDeterminism, SimulatePayloadMatchesDirectSimulation) {
  // A 1-cell DFS sweep must agree exactly with calling the simulator
  // directly — the engine adds sharding, not semantics.
  SweepSpec spec;
  spec.algorithms = {"strassen"};
  spec.n_grid = {8};
  spec.m_grid = {32};
  spec.kinds = {TaskKind::kSimulate};
  spec.schedule = SchedulePolicy::kDfs;
  const SweepResult result = run_sweep(spec);
  ASSERT_EQ(result.tasks.size(), 1u);

  const cdag::Cdag cdag =
      cdag::build_cdag(resolve_algorithm("strassen"), 8);
  pebble::SimOptions options;
  options.cache_size = 32;
  const auto direct =
      pebble::simulate(cdag, pebble::dfs_schedule(cdag), options);
  EXPECT_EQ(result.tasks[0].loads, direct.loads);
  EXPECT_EQ(result.tasks[0].stores, direct.stores);
  EXPECT_EQ(result.tasks[0].total_io, direct.total_io());
}

}  // namespace
}  // namespace fmm::sweep
