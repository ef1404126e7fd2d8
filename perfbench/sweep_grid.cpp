// sweep_grid: what a user of `fmmio sweep` pays on every run.  The grid
// runs through sweep::run_sweep on 4 threads with a fresh CDAG source per
// call, so CDAG builds count; the pebble kernel dominates.
#include <algorithm>
#include <memory>
#include <utility>

#include "cdag/builder.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "pebble/machine.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace sweep = fmm::sweep;

namespace {

constexpr std::size_t kThreads = 4;
/// Latency limit of one pass over the grid.
constexpr double kSweepSloMs = 10000.0;

sweep::SweepSpec grid_spec(const std::string& algorithm,
                           std::vector<std::size_t> n_grid,
                           std::vector<std::int64_t> m_grid,
                           fmm::pebble::ReplacementPolicy replacement,
                           std::uint64_t seed) {
  sweep::SweepSpec spec;
  spec.algorithms = {algorithm};
  spec.n_grid = std::move(n_grid);
  spec.m_grid = std::move(m_grid);
  spec.kinds = {sweep::TaskKind::kSimulate, sweep::TaskKind::kLiveness,
                sweep::TaskKind::kBoundCheck};
  spec.schedule = sweep::SchedulePolicy::kDfs;
  spec.replacement = replacement;
  spec.base_seed = seed;
  spec.num_threads = kThreads;
  return spec;
}

std::string spec_label(const sweep::SweepSpec& spec) {
  return spec.algorithms.at(0) +
         (spec.replacement == fmm::pebble::ReplacementPolicy::kLru ? "/lru"
                                                                   : "/belady");
}

/// Output checks of one sweep: no failed cell, every bound holds, every
/// simulated I/O at or above the trivial floor 3n^2 (2n^2 input reads +
/// n^2 output writes, pebble::trivial_io_floor).
void check_sweep(const sweep::SweepResult& result, Outcome& outcome,
                 const std::string& label) {
  if (result.failed != 0) {
    outcome.fail(label + ": " + std::to_string(result.failed) +
                 " failed cells");
  }
  if (!result.all_bounds_hold) {
    outcome.fail(label + ": a Theorem 1.1 bound check failed");
  }
  for (const sweep::TaskResult& task : result.tasks) {
    if (!task.ok) {
      outcome.fail(label + ": " + task.error);
      continue;
    }
    const bool simulates = task.cell.kind == sweep::TaskKind::kSimulate ||
                           task.cell.kind == sweep::TaskKind::kBoundCheck;
    const auto floor = static_cast<std::int64_t>(3 * task.cell.n * task.cell.n);
    if (simulates && task.total_io < floor) {
      outcome.fail(label + ": total_io below the trivial floor at n=" +
                   std::to_string(task.cell.n));
    }
  }
}

std::size_t distinct_cdags(const sweep::SweepSpec& spec) {
  return spec.algorithms.size() * spec.n_grid.size();
}

struct SweepSetup {
  std::vector<sweep::SweepSpec> grid;
  std::vector<sweep::SweepSpec> reduced;
  std::vector<std::string> reduced_reference;  // 1-thread to_json()
};

SweepSetup make_setup(const Options& options) {
  SweepSetup setup;
  const std::string laderman = laderman_key(options.root);
  setup.grid = sweep_grid_specs(laderman, options.seed);
  setup.reduced = sweep_reduced_specs(laderman, options.seed);
  for (const sweep::SweepSpec& spec : setup.grid) {
    sweep::resolve_traits(spec.algorithms.at(0));
  }
  for (sweep::SweepSpec spec : setup.reduced) {
    spec.num_threads = 1;
    setup.reduced_reference.push_back(sweep::run_sweep(spec).to_json());
  }
  return setup;
}

/// One untraced pass over the grid: its wall time and results.
struct Pass {
  double wall_s = 0.0;
  std::vector<sweep::SweepResult> results;
  std::int64_t cells = 0;
};

Pass run_pass(const SweepSetup& setup, Outcome& outcome) {
  Pass pass;
  for (const sweep::SweepSpec& spec : setup.grid) {
    require_tracer_off();
    const auto before = registry_values();
    const std::int64_t start = now_ns();
    sweep::SweepResult result;
    try {
      result = sweep::run_sweep(spec);
    } catch (const std::exception& e) {
      outcome.fail(spec_label(spec) + ": " + e.what());
    }
    pass.wall_s += static_cast<double>(now_ns() - start) * 1e-9;
    const auto after = registry_values();
    pass.cells += static_cast<std::int64_t>(result.num_tasks);
    outcome.attempted += static_cast<std::int64_t>(
        sweep::enumerate_tasks(spec).size());
    check_sweep(result, outcome, spec_label(spec));
    const std::int64_t builds = registry_delta(before, after, "cdag.builds");
    if (builds != static_cast<std::int64_t>(distinct_cdags(spec))) {
      outcome.fail(spec_label(spec) + ": " + std::to_string(builds) +
                   " CDAG builds for " +
                   std::to_string(distinct_cdags(spec)) + " CDAGs");
    }
    pass.results.push_back(std::move(result));
  }
  return pass;
}

void check_reduced(const SweepSetup& setup, Outcome& outcome) {
  for (std::size_t i = 0; i < setup.reduced.size(); ++i) {
    require_tracer_off();
    const std::string json = sweep::run_sweep(setup.reduced[i]).to_json();
    if (json != setup.reduced_reference[i]) {
      outcome.fail(spec_label(setup.reduced[i]) +
                   ": 4-thread report differs from the 1-thread report");
    }
  }
}

/// The traced pass: the grid's cells driven through the layer calls on
/// kThreads workers, mirroring run_sweep (fetch every CDAG, then the
/// cells).  Rows must equal the untraced run_task rows.
double traced_pass(const SweepSetup& setup, const Pass& reference,
                   SpanRecorder& recorder, LayerReplay& replay,
                   Outcome& outcome, double* busy_ns) {
  fmm::parallel::ThreadPool pool(kThreads);
  const std::int64_t start = now_ns();
  for (std::size_t s = 0; s < setup.grid.size(); ++s) {
    const sweep::SweepSpec& spec = setup.grid[s];
    const Span run(recorder, "sweep.run");
    std::vector<std::pair<std::string, std::size_t>> keys;
    for (const std::string& algorithm : spec.algorithms) {
      for (const std::size_t n : spec.n_grid) {
        keys.emplace_back(algorithm, n);
      }
    }
    std::vector<fmm::cdag::Cdag> cdags(keys.size());
    for (std::size_t k = 0; k < keys.size(); ++k) {
      pool.submit([&, k] {
        const Span fetch(recorder, "sweep.fetch", run.id(), -1);
        cdags[k] = replay.build(keys[k].first, keys[k].second);
      });
    }
    pool.wait_idle();
    for (std::size_t k = 0; k < keys.size(); ++k) {
      const std::int64_t floor = fmm::pebble::trivial_io_floor(cdags[k]);
      if (floor != static_cast<std::int64_t>(3 * keys[k].second * keys[k].second)) {
        outcome.fail("trivial_io_floor differs from 3n^2");
      }
    }
    const std::vector<sweep::TaskCell> cells = sweep::enumerate_tasks(spec);
    std::vector<std::string> rows(cells.size());
    for (const sweep::TaskCell& cell : cells) {
      std::size_t k = 0;
      while (keys[k].first != cell.algorithm || keys[k].second != cell.n) {
        ++k;
      }
      pool.submit([&, cell, k] {
        const Span span(recorder, "sweep.cell", run.id(),
                        static_cast<std::int64_t>(cell.index));
        rows[cell.index] = replay.cell_row(cell, spec, cdags[k]);
      });
    }
    pool.wait_idle();
    const sweep::SweepResult& expected = reference.results.at(s);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (i >= expected.tasks.size() ||
          rows[i] != sweep::task_row_json(expected.tasks[i])) {
        outcome.fail(spec_label(spec) + ": replayed row " +
                     std::to_string(i) + " differs from run_task's");
      }
    }
  }
  const double wall_ns = static_cast<double>(now_ns() - start);
  double busy = 0.0;
  for (const SpanRecord& span : recorder.spans()) {
    if (span.name == "sweep.cell" || span.name == "sweep.fetch") {
      busy += static_cast<double>(span.end_ns - span.start_ns);
    }
  }
  *busy_ns = busy;
  return wall_ns * 1e-9;
}

/// The exact optimal-pebbling kernel, which the grid's CDAGs are too large
/// for: one-cell optimal sweeps of Strassen n = 2 replayed through the
/// layer calls and checked against run_task's rows.
void optimal_probe(std::uint64_t seed, TracedReplay& traced,
                   Outcome& outcome) {
  const fmm::cdag::Cdag cdag =
      fmm::cdag::build_cdag(sweep::resolve_algorithm("strassen"), 2);
  const Span root(traced.recorder, "bench.optimal_probe");
  for (const std::int64_t m : {16, 20, 24, 32}) {
    for (const bool remat : {false, true}) {
      sweep::SweepSpec spec;
      spec.algorithms = {"strassen"};
      spec.n_grid = {2};
      spec.m_grid = {m};
      spec.kinds = {sweep::TaskKind::kOptimal};
      spec.remat = remat;
      spec.base_seed = seed;
      const sweep::TaskCell cell = sweep::enumerate_tasks(spec).at(0);
      const std::string row = traced.replay.cell_row(cell, spec, cdag);
      const sweep::TaskResult expected = sweep::run_task(cell, cdag, spec);
      if (!expected.ok || row != sweep::task_row_json(expected)) {
        outcome.fail("optimal probe: replayed row differs at M=" +
                     std::to_string(m));
      }
    }
  }
}

/// Median wall seconds of `reps` run_sweep calls with the library tracer
/// on or off (the tracer-overhead arm; the only place it is switched on).
double tracer_arm_s(sweep::SweepSpec spec, std::size_t threads, bool tracer,
                    int reps, Outcome& outcome) {
  spec.num_threads = threads;
  std::vector<double> walls;
  auto& tracer_instance = fmm::obs::Tracer::instance();
  for (int r = 0; r < reps; ++r) {
    tracer_instance.clear();
    tracer_instance.enable(tracer);
    const std::int64_t start = now_ns();
    const sweep::SweepResult result = sweep::run_sweep(spec);
    walls.push_back(static_cast<double>(now_ns() - start) * 1e-9);
    tracer_instance.enable(false);
    tracer_instance.clear();
    check_sweep(result, outcome, "tracer arm");
  }
  return median(walls);
}

}  // namespace

std::string laderman_key(const std::string& root) {
  return "file:" + root + "/schemes/laderman_333_23.json";
}

std::vector<sweep::SweepSpec> sweep_grid_specs(const std::string& laderman,
                                               std::uint64_t seed) {
  using fmm::pebble::ReplacementPolicy;
  const std::vector<std::int64_t> m_grid = {64, 256, 1024};
  std::vector<sweep::SweepSpec> specs;
  for (const ReplacementPolicy policy :
       {ReplacementPolicy::kLru, ReplacementPolicy::kBelady}) {
    specs.push_back(grid_spec("strassen", {16, 32, 64}, m_grid, policy, seed));
    specs.push_back(grid_spec(laderman, {9, 27}, m_grid, policy, seed));
  }
  SeedStream rng(seed ^ 0x5eedULL);
  const std::vector<std::size_t> order = permutation(specs.size(), rng);
  std::vector<sweep::SweepSpec> shuffled;
  for (const std::size_t i : order) {
    shuffled.push_back(specs[i]);
  }
  return shuffled;
}

std::vector<sweep::SweepSpec> sweep_reduced_specs(const std::string& laderman,
                                                  std::uint64_t seed) {
  using fmm::pebble::ReplacementPolicy;
  return {grid_spec("strassen", {8, 16}, {16, 64}, ReplacementPolicy::kLru,
                    seed),
          grid_spec(laderman, {9}, {16, 64}, ReplacementPolicy::kBelady, seed)};
}

Outcome run_sweep_grid(const Options& options) {
  Outcome outcome;
  SweepSetup setup;
  const double setup_s = median_setup_s(
      options.trace ? 1 : 3, [&] { setup = make_setup(options); });
  Metrics& m = outcome.metrics;

  if (!options.trace) {
    // One untimed pass first (its outputs are checked and become the
    // reference every timed pass must reproduce byte for byte), then
    // passes until the run length is used.
    const Pass warmup = run_pass(setup, outcome);
    std::vector<Pass> passes;
    const std::int64_t start = now_ns();
    do {
      passes.push_back(run_pass(setup, outcome));
      for (std::size_t s = 0; s < setup.grid.size(); ++s) {
        if (passes.back().results[s].to_json() !=
            warmup.results[s].to_json()) {
          outcome.fail(spec_label(setup.grid[s]) +
                       ": report differs between passes");
        }
      }
    } while (static_cast<double>(now_ns() - start) * 1e-9 < options.seconds);
    check_reduced(setup, outcome);

    // The latency unit is one pass: sweeping the whole grid, which is
    // what a user of `fmmio sweep` waits for.
    std::vector<double> pass_ms;
    double total_s = 0.0;
    std::int64_t cells = 0;
    std::size_t within = 0;
    for (const Pass& pass : passes) {
      pass_ms.push_back(pass.wall_s * 1e3);
      total_s += pass.wall_s;
      cells += pass.cells;
      within += pass.wall_s * 1e3 <= kSweepSloMs ? 1 : 0;
    }
    m["setup_s"] = setup_s;
    m["wall_s"] = median(pass_ms) * 1e-3;
    m["ops_per_s"] = static_cast<double>(cells) / total_s;
    m["latency_p50_ms"] = percentile(pass_ms, 0.50);
    m["latency_p99_ms"] = percentile(pass_ms, 0.99);
    m["within_slo_frac"] =
        static_cast<double>(within) / static_cast<double>(pass_ms.size());
    m["bench.latency_samples"] = static_cast<double>(pass_ms.size());
    write_latencies(options, pass_ms);
    return outcome;
  }

  // Traced run: untraced reference passes alternating with traced
  // replays of the same grid (the faster of each pair of rounds gives the
  // recorder's overhead), then the library-tracer on/off arm.
  const Pass reference = run_pass(setup, outcome);
  double untraced_wall = reference.wall_s;
  double traced_wall = 0.0;
  double kept_wall = 0.0;  // wall of the replay whose spans are reported
  double busy_ns = 0.0;
  std::unique_ptr<TracedReplay> traced;
  for (int round = 0; round < 2; ++round) {
    if (round > 0) {
      untraced_wall = std::min(untraced_wall, run_pass(setup, outcome).wall_s);
    }
    traced = std::make_unique<TracedReplay>();
    const double wall = traced_pass(setup, reference, traced->recorder,
                                    traced->replay, outcome, &busy_ns);
    traced_wall = round == 0 ? wall : std::min(traced_wall, wall);
    kept_wall = wall;
  }
  check_reduced(setup, outcome);

  optimal_probe(options.seed, *traced, outcome);

  const std::string laderman = laderman_key(options.root);
  m["bilinear.resolve_ms"] = cold_resolve_ms({"strassen", laderman}, 5);
  add_span_metrics(traced->recorder.spans(), traced->replay.counts(), m);
  m["sweep.parallel_efficiency"] =
      busy_ns * 1e-9 / (static_cast<double>(kThreads) * kept_wall);
  m["bench.trace_overhead_frac"] = traced_wall / untraced_wall - 1.0;
  m["bench.latency_samples"] = 2.0;  // untraced passes

  const sweep::SweepSpec arm = grid_spec(
      "strassen", {16, 32}, {64, 256, 1024},
      fmm::pebble::ReplacementPolicy::kLru, options.seed);
  for (const std::size_t threads : {std::size_t{1}, kThreads}) {
    const double off = tracer_arm_s(arm, threads, false, 2, outcome);
    const double on = tracer_arm_s(arm, threads, true, 2, outcome);
    m[threads == 1 ? "obs.tracer_overhead_frac_1t"
                   : "obs.tracer_overhead_frac_4t"] = on / off - 1.0;
  }
  write_trace(options, traced->recorder);
  return outcome;
}

}  // namespace perfbench
