// S1 — sweep-engine scaling: the same Strassen n∈{8,16,32} × M-grid
// sweep (simulate + liveness + boundcheck per cell) run serially and on
// 2/4/8 pool threads.  Two claims are checked:
//   1. determinism — the serialized sweep section is byte-identical for
//      every thread count (the bench aborts otherwise);
//   2. scaling — wall-clock drops with threads; the speedup column is
//      the headline (≥ 2.5x at 4 threads on a ≥4-core machine; on fewer
//      cores the bench prints the hardware limit and the numbers are
//      informational).
//
// A second arm runs the same ladder over the file-loaded Laderman
// ⟨3,3,3;23⟩ scheme (schemes/laderman_333_23.json) — the registry path
// the 2x2 catalog never exercises: base-3 n-grid, file-resolved CDAGs,
// ω0 = log₃23.
//
// `bench_sweep --out report.json` writes a versioned run report whose
// extra.sweep section is the (thread-count-independent) sweep payload.
#include <cstdio>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common/table.hpp"
#include "common/timing.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "sweep/sweep.hpp"

int main(int argc, char** argv) {
  using namespace fmm;

  const obs::ReportCli cli = obs::parse_report_cli(argc, argv);
#ifdef FMM_SOURCE_ROOT
  const std::string laderman_key =
      std::string("file:") + FMM_SOURCE_ROOT +
      "/schemes/laderman_333_23.json";
#else
  const std::string laderman_key = "file:schemes/laderman_333_23.json";
#endif

  sweep::SweepSpec spec;
  spec.algorithms = {"strassen"};
  spec.n_grid = {8, 16, 32};
  spec.m_grid = {16, 32, 64, 128};
  spec.kinds = {sweep::TaskKind::kSimulate, sweep::TaskKind::kLiveness,
                sweep::TaskKind::kBoundCheck};
  spec.schedule = sweep::SchedulePolicy::kRandom;
  spec.base_seed = cli.seed;

  const unsigned hardware = std::thread::hardware_concurrency();
  std::printf("=== S1: sweep engine scaling (serial vs 2/4/8 threads) "
              "===\n\n");
  std::printf("grid: strassen x n{8,16,32} x M{16,32,64,128} x "
              "{simulate,liveness,boundcheck} = 36 tasks; %u hardware "
              "thread(s)\n\n",
              hardware);

  Table table({"Threads", "Wall s", "Speedup", "Tasks/s", "Report"});
  std::string reference_json;
  double serial_seconds = 0.0;
  double seconds_at[9] = {};
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    obs::Registry::instance().reset();  // cross-checkable metrics per run
    spec.num_threads = threads;
    const sweep::SweepResult result = sweep::run_sweep(spec);
    const std::string json = result.to_json();
    if (threads == 1) {
      reference_json = json;
      serial_seconds = result.wall_seconds;
    } else if (json != reference_json) {
      std::fprintf(stderr,
                   "FATAL: sweep report diverged at %zu threads — "
                   "determinism contract broken\n",
                   threads);
      return 1;
    }
    seconds_at[threads] = result.wall_seconds;
    table.begin_row();
    table.add_cell(threads);
    table.add_cell(format_double(result.wall_seconds));
    table.add_cell(format_double(serial_seconds / result.wall_seconds));
    table.add_cell(format_double(static_cast<double>(result.num_tasks) /
                                 result.wall_seconds));
    table.add_cell(threads == 1 ? "reference" : "identical");
  }
  table.print_console(std::cout);

  const double speedup_2 = serial_seconds / seconds_at[2];
  const double speedup_4 = serial_seconds / seconds_at[4];
  const double speedup_8 = serial_seconds / seconds_at[8];
  std::printf("\nspeedup: 2t=%.2fx 4t=%.2fx 8t=%.2fx (target: >= 2.5x at "
              "4 threads)\n",
              speedup_2, speedup_4, speedup_8);
  if (hardware < 4) {
    std::printf("note: only %u hardware thread(s) available — parallel "
                "speedup cannot manifest on this machine; the "
                "determinism check above is still binding.\n",
                hardware);
  }

  // Laderman arm: the same engine driven by a file-loaded base-3
  // scheme.  Determinism across thread counts must hold here too.
  sweep::SweepSpec laderman;
  laderman.algorithms = {laderman_key};
  laderman.n_grid = {3, 9, 27};
  laderman.m_grid = {16, 64};
  laderman.kinds = {sweep::TaskKind::kSimulate,
                    sweep::TaskKind::kBoundCheck};
  laderman.schedule = sweep::SchedulePolicy::kRandom;
  laderman.base_seed = cli.seed;
  const bilinear::SchemeTraits laderman_traits =
      sweep::resolve_traits(laderman_key);
  std::printf("\n--- Laderman arm: <3,3,3;23> from %s (omega0=%s, "
              "fingerprint %s) ---\n",
              laderman_key.c_str(),
              format_double(laderman_traits.omega0).c_str(),
              laderman_traits.fingerprint.c_str());
  for (const std::size_t threads : {1u, 4u}) {
    obs::Registry::instance().reset();
    laderman.num_threads = threads;
    const sweep::SweepResult result = sweep::run_sweep(laderman);
    static std::string laderman_reference;
    const std::string json = result.to_json();
    if (threads == 1) {
      laderman_reference = json;
    } else if (json != laderman_reference) {
      std::fprintf(stderr,
                   "FATAL: Laderman sweep report diverged at %zu "
                   "threads — determinism contract broken\n",
                   threads);
      return 1;
    }
    std::printf("laderman %zu thread(s): %s s (%s tasks/s)\n", threads,
                format_double(result.wall_seconds).c_str(),
                format_double(static_cast<double>(result.num_tasks) /
                              result.wall_seconds)
                    .c_str());
  }

  if (cli.wants_report() || !cli.trace_path.empty()) {
    // Re-run the reported configuration with a clean registry so the
    // report's metrics cover exactly one sweep (total_io cross-check).
    obs::Registry::instance().reset();
    spec.num_threads = hardware >= 4 ? 4 : (hardware >= 2 ? 2 : 1);
    const sweep::SweepResult reported = sweep::run_sweep(spec);
    obs::RunReport report("bench_sweep");
    report.set_param("experiment", "S1 sweep engine scaling");
    report.set_param("seed", static_cast<std::int64_t>(cli.seed));
    report.set_param("hardware_threads",
                     static_cast<std::int64_t>(hardware));
    report.set_param("reported_threads",
                     static_cast<std::int64_t>(spec.num_threads));
    report.add_phase_seconds("serial", serial_seconds);
    report.add_phase_seconds("threads_2", seconds_at[2]);
    report.add_phase_seconds("threads_4", seconds_at[4]);
    report.add_phase_seconds("threads_8", seconds_at[8]);
    report.set_result("speedup_2t", speedup_2);
    report.set_result("speedup_4t", speedup_4);
    report.set_result("speedup_8t", speedup_8);
    report.set_result("deterministic_across_threads", true);
    if (hardware >= 4) {
      // The acceptance gate only makes sense with the cores to back it.
      report.add_bound_check("sweep_speedup_4t", 2.5, speedup_4);
    }
    reported.attach_to(report);
    obs::finalize_run(cli, report);
  }
  return 0;
}
