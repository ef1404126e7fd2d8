// fmmio — command-line driver for the library.
//
//   fmmio list
//   fmmio certify  <algorithm> [--out report.json]
//   fmmio bounds   --n N --m M [--p P] [--alg A]
//   fmmio simulate <algorithm> --n N --m M [--schedule dfs|bfs|random]
//                  [--policy lru|opt] [--remat] [--write-cost W]
//                  [--out report.json] [--trace trace.json]
//   fmmio optimal  <algorithm> --n N --m M [--remat]
//                  [--max-states K] [--snapshot-dir DIR]
//                  [--snapshot-budget B] [--out report.json]
//   fmmio cdag     <algorithm> --n N [--dot]
//   fmmio parallel --n N --p P [--m M]
//                  [--faults] [--drop-rate R] [--wipes P@STEP,...]
//                  [--wipe-count K] [--max-retransmissions K] [--seed S]
//                  [--out report.json]
//   fmmio sweep    --alg A[,A2,...] --n N1[,N2,...] --m M1[,M2,...]
//                  [--kinds simulate,liveness,dominator,boundcheck,optimal]
//                  [--schedule dfs|bfs|random] [--policy lru|opt] [--remat]
//                  [--threads T] [--keep-going] [--seed S]
//                  [--retries K] [--backoff-base T] [--backoff-mult X]
//                  [--deadline-ticks D] [--inject-failures R]
//                  [--inject-seed S] [--max-cell-bytes B]
//                  [--checkpoint path.jsonl] [--checkpoint-every K]
//                  [--cache-bytes B] [--resume] [--snapshot-dir DIR]
//                  [--snapshot-budget B] [--out report.json]
//   fmmio serve    [--threads T] [--queue Q] [--cache-bytes B]
//                  [--cache-shards S] [--deadline-ticks D]
//                  [--slow-ms MS] [--telemetry-ring N]
//                  [--snapshot-dir DIR] [--snapshot-budget B]
//                  [--socket PATH] [--out report.json]
//   fmmio worker   [--threads T] [--queue Q] [--cache-bytes B]
//                  [--cache-shards S] [--deadline-ticks D]
//                  [--snapshot-dir DIR] [--snapshot-budget B]
//                  [--out report.json]
//   fmmio router   [--workers N] [--queue-depth Q] [--retries K]
//                  [--backoff-base T] [--backoff-mult X]
//                  [--max-respawns R] [--heartbeat-ms MS]
//                  [--transport inproc|process] [--worker-cmd PATH]
//                  [--kill K@J,...] [--drop-rate R] [--chaos-seed S]
//                  [--threads T] [--cache-bytes B] [--deadline-ticks D]
//                  [--snapshot-dir DIR] [--snapshot-budget B]
//                  [--out report.json]
//   fmmio query    --op OP [--id I] [--alg A] [--n N] [--m M] [--p P]
//                  [--schedule dfs|bfs|random] [--policy lru|opt]
//                  [--remat] [--seed S] [--connect SOCKET] [--print]
//   fmmio metrics  [--connect SOCKET]
//   fmmio tail     --connect SOCKET [--limit N] [--slow]
//   fmmio scheme   verify <name-or-file> [...] | export <name>
//                  [--name NEWNAME] [--out scheme.json]
//   fmmio version
//
// Algorithms: any scheme registry key (docs/SCHEMES.md) — the catalog
//             (strassen, winograd, strassen-dual, strassen-perm,
//             winograd-dual, classic, classic-<n>x<m>x<p>,
//             strassen-squared), the alternative-basis variants
//             strassen-alt / winograd-alt (docs/SWEEPS.md), or
//             `file:scheme.json` naming an fmm.scheme file, loaded and
//             Brent-verified on first use.  `fmmio scheme` verifies and
//             exports such files.
//
// `serve` answers newline-delimited JSON queries on stdin (or a Unix
// socket) through a content-addressed CDAG/result cache; `query`
// composes one request and either answers it in-process (same cache
// code path) or sends it to a running daemon (docs/SERVICE.md).
// `router` shards the same protocol across N supervised workers with
// requeue-on-death and seeded chaos (docs/FABRIC.md); `worker` is the
// stdin/stdout daemon the process transport spawns.  serve, worker and
// router all drain gracefully on SIGTERM/SIGINT: in-flight requests
// are answered (responded == requests) before exit.
// `metrics` scrapes a daemon's Prometheus-style text exposition and
// `tail` streams its recent-request / slow-query spans as NDJSON
// (docs/OBSERVABILITY.md; `tools/fmm_top.py` builds a live dashboard
// on the same two ops).
//
// --out writes a versioned JSON run report (docs/OBSERVABILITY.md);
// --trace PATH turns the tracer on and writes a Chrome trace-event JSON
// viewable in Perfetto; without it tracing stays off.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#ifdef __unix__
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

#include "bilinear/catalog.hpp"
#include "bounds/dominator_cert.hpp"
#include "bounds/encoder_lemmas.hpp"
#include "bounds/formulas.hpp"
#include "bounds/report.hpp"
#include "bounds/segments.hpp"
#include "cdag/builder.hpp"
#include "common/check.hpp"
#include "common/json.hpp"
#include "common/log.hpp"
#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "fabric/router.hpp"
#include "fabric/transport.hpp"
#include "obs/build_info.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "obs/trace.hpp"
#include "parallel/caps.hpp"
#include "parallel/distsim.hpp"
#include "pebble/liveness.hpp"
#include "pebble/machine.hpp"
#include "pebble/optimal.hpp"
#include "resilience/fault.hpp"
#include "resilience/retry.hpp"
#include "service/service.hpp"
#include "snapshot/store.hpp"
#include "sweep/sweep.hpp"

namespace {

using namespace fmm;

struct Args {
  std::vector<std::string> positional;
  std::vector<std::pair<std::string, std::string>> flags;

  bool has(const std::string& name) const {
    for (const auto& [key, value] : flags) {
      if (key == name) {
        return true;
      }
    }
    return false;
  }

  std::string get(const std::string& name, const std::string& fallback)
      const {
    for (const auto& [key, value] : flags) {
      if (key == name) {
        return value;
      }
    }
    return fallback;
  }

  std::int64_t get_int(const std::string& name, std::int64_t fallback)
      const {
    const std::string raw = get(name, "");
    return raw.empty() ? fallback : std::atoll(raw.c_str());
  }
};

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.rfind("--", 0) == 0) {
      std::string value = "true";
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[++i];
      }
      args.flags.emplace_back(token.substr(2), value);
    } else {
      args.positional.push_back(token);
    }
  }
  return args;
}

/// One actionable line on stderr, then exit 2 — argument errors should
/// not surface as CheckError stack noise from deep inside the library.
[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "fmmio: %s\n", message.c_str());
  std::exit(2);
}

bool is_power_of(std::int64_t v, std::int64_t base) {
  if (v < 1 || base < 2) {
    return false;
  }
  while (v % base == 0) {
    v /= base;
  }
  return v == 1;
}

/// --n for CDAG-shaped commands: positive power of two.
std::int64_t require_pow2_n(const Args& args, std::int64_t fallback,
                            const char* command) {
  const std::int64_t n = args.get_int("n", fallback);
  if (!is_power_of(n, 2)) {
    usage_error(std::string(command) + ": --n must be a positive power of "
                "two, got " + std::to_string(n));
  }
  return n;
}

/// Registry-backed algorithm lookup (catalog names, classic-NxMxP,
/// -alt variants, file:scheme.json).  Unknown names and invalid scheme
/// files are one-line usage errors, not CheckError stack traces.
bilinear::BilinearAlgorithm pick(const std::string& name) {
  try {
    return sweep::resolve_algorithm(name);
  } catch (const CheckError& e) {
    usage_error(e.what());
  }
}

/// The resolved scheme's traits (base dim, rank, ω0, fingerprint) with
/// the same unknown-name behavior as pick().
bilinear::SchemeTraits pick_traits(const std::string& name) {
  try {
    return sweep::resolve_traits(name);
  } catch (const CheckError& e) {
    usage_error(e.what());
  }
}

/// Report/trace plumbing shared by subcommands: reads --out/--trace/
/// --seed, and runtime-enables tracing iff --trace names a destination.
obs::ReportCli report_cli_from(const Args& args) {
  obs::ReportCli cli;
  cli.out_path = args.get("out", "");
  cli.trace_path = args.get("trace", "");
  cli.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  if (!cli.trace_path.empty()) {
    obs::enable_tracing_if_available();
  }
  return cli;
}

/// --snapshot-dir DIR for commands that mount the shared on-disk
/// snapshot store (docs/SNAPSHOTS.md).
std::string require_snapshot_dir(const Args& args, const char* command) {
  const std::string dir = args.get("snapshot-dir", "");
  if (dir.empty() || dir == "true") {
    usage_error(std::string(command) +
                ": --snapshot-dir wants a directory path");
  }
  return dir;
}

std::uint64_t require_snapshot_budget(const Args& args,
                                      const char* command) {
  const std::int64_t budget = args.get_int("snapshot-budget", 0);
  if (budget < 0) {
    usage_error(std::string(command) + ": --snapshot-budget must be >= 0 "
                "bytes (0 = unlimited), got " + std::to_string(budget));
  }
  return static_cast<std::uint64_t>(budget);
}

/// The optional store for single-shot commands (sweep/optimal); serve
/// and router configure theirs through ServiceConfig instead.
std::unique_ptr<snapshot::SnapshotStore> snapshot_store_from(
    const Args& args, const char* command) {
  if (!args.has("snapshot-dir")) {
    return nullptr;
  }
  snapshot::SnapshotStoreConfig config;
  config.directory = require_snapshot_dir(args, command);
  config.byte_budget = require_snapshot_budget(args, command);
  return std::make_unique<snapshot::SnapshotStore>(config);
}

std::vector<std::string> split_csv(const std::string& raw) {
  std::vector<std::string> items;
  std::string current;
  for (const char ch : raw) {
    if (ch == ',') {
      if (!current.empty()) {
        items.push_back(current);
      }
      current.clear();
    } else {
      current.push_back(ch);
    }
  }
  if (!current.empty()) {
    items.push_back(current);
  }
  return items;
}

/// The cell flags simulate, optimal, cdag and sweep share, as a sweep
/// spec: the algorithms (one positional name, or sweep's comma list in
/// --alg), --n and --m (comma lists; when omitted, `default_n` — or
/// base² if that is not a power of the scheme's base dim — and
/// `default_m`), --schedule, --policy, --remat and --seed.  Every
/// malformed value is a one-line usage error.
sweep::SweepSpec cell_spec_from(const Args& args, const char* command,
                                std::vector<std::string> algorithms,
                                std::int64_t default_n,
                                std::int64_t default_m) {
  const std::string where(command);
  sweep::SweepSpec spec;
  spec.algorithms = std::move(algorithms);
  if (spec.algorithms.empty()) {
    usage_error(where + ": --alg, --n and --m all need at least one value");
  }
  // Every algorithm must resolve (unknown names / invalid scheme files
  // are usage errors, not mid-sweep failures) and be square-based.
  std::vector<bilinear::SchemeTraits> traits;
  for (const std::string& alg : spec.algorithms) {
    traits.push_back(pick_traits(alg));
    if (traits.back().base < 2) {
      usage_error(where + ": scheme '" + traits.back().name + "' (" + alg +
                  ") is rectangular; the recursive n x n construction "
                  "needs a square base scheme");
    }
  }
  if (args.has("n")) {
    for (const std::string& n : split_csv(args.get("n", ""))) {
      const std::int64_t value = std::atoll(n.c_str());
      if (value < 1) {
        usage_error(where + ": every --n must be >= 1, got '" + n + "'");
      }
      spec.n_grid.push_back(static_cast<std::size_t>(value));
    }
  } else {
    const auto base = static_cast<std::int64_t>(traits.front().base);
    spec.n_grid = {static_cast<std::size_t>(
        is_power_of(default_n, base) ? default_n : base * base)};
  }
  for (const std::string& m :
       split_csv(args.get("m", std::to_string(default_m)))) {
    const std::int64_t value = std::atoll(m.c_str());
    if (value <= 0) {
      usage_error(where + ": --m (fast memory words) must be > 0, got '" +
                  m + "'");
    }
    spec.m_grid.push_back(value);
  }
  if (spec.n_grid.empty() || spec.m_grid.empty()) {
    usage_error(where + ": --alg, --n and --m all need at least one value");
  }
  for (std::size_t i = 0; i < traits.size(); ++i) {
    for (const std::size_t n : spec.n_grid) {
      if (!is_power_of(static_cast<std::int64_t>(n),
                       static_cast<std::int64_t>(traits[i].base))) {
        usage_error(where + ": --n must be a power of the scheme's base "
                    "dim " + std::to_string(traits[i].base) + " (" +
                    spec.algorithms[i] + "), got " + std::to_string(n));
      }
    }
  }
  try {
    spec.schedule =
        sweep::schedule_policy_from_name(args.get("schedule", "dfs"));
    spec.replacement =
        sweep::replacement_policy_from_name(args.get("policy", "lru"));
  } catch (const CheckError& e) {
    usage_error(where + ": " + e.what());
  }
  spec.remat = args.has("remat");
  const std::int64_t seed = args.get_int("seed", 1);
  if (seed < 0) {
    usage_error(where + ": --seed must be >= 0, got " +
                std::to_string(seed));
  }
  spec.base_seed = static_cast<std::uint64_t>(seed);
  return spec;
}

/// The one cell of a single-cell spec (simulate, optimal, cdag).
sweep::TaskCell only_cell(const sweep::SweepSpec& spec, const char* command) {
  const std::vector<sweep::TaskCell> cells = sweep::enumerate_tasks(spec);
  if (cells.size() != 1) {
    usage_error(std::string(command) + ": --n and --m take one value each");
  }
  return cells.front();
}

int cmd_list() {
  Table table({"Name", "Base", "Products", "Base adds", "Leading coef",
               "omega"});
  const auto row = [&](const bilinear::BilinearAlgorithm& alg) {
    table.begin_row();
    table.add_cell(alg.name());
    table.add_cell(std::to_string(alg.n()) + "x" + std::to_string(alg.m()) +
                   "x" + std::to_string(alg.p()));
    table.add_cell(alg.num_products());
    table.add_cell(alg.base_linear_ops());
    table.add_cell(alg.is_square() && alg.num_products() > alg.n() * alg.p()
                       ? format_double(alg.leading_coefficient())
                       : std::string("-"));
    table.add_cell(alg.is_square() ? format_double(alg.omega())
                                   : std::string("-"));
  };
  for (const auto& alg : bilinear::all_fast_2x2_algorithms()) {
    row(alg);
  }
  row(bilinear::classic(2, 2, 2));
  row(bilinear::strassen_squared());
  row(bilinear::strassen_bordered_3x3());
  row(bilinear::rect_2x2x4());
  table.print_console(std::cout);
  return 0;
}

int cmd_certify(const Args& args) {
  if (args.positional.size() < 2) {
    std::fprintf(stderr, "usage: fmmio certify <algorithm>\n");
    return 2;
  }
  const obs::ReportCli cli = report_cli_from(args);
  obs::Registry::instance().reset();
  const auto alg = pick(args.positional[1]);
  const bilinear::SchemeTraits traits = pick_traits(args.positional[1]);
  std::printf("Certifying %s\n", alg.name().c_str());
  std::printf("  Scheme: <%zu,%zu,%zu;%zu>  fingerprint %s\n", traits.n,
              traits.m, traits.p, traits.rank, traits.fingerprint.c_str());
  std::printf("  Brent equations:        %s\n",
              alg.is_valid() ? "PASS" : "FAIL");
  if (alg.n() * alg.m() == 4) {
    for (const auto side : {bilinear::Side::kA, bilinear::Side::kB}) {
      const auto cert = bounds::certify_encoder(alg, side);
      std::printf("  Lemmas 3.1-3.3 (%c):     %s%s%s\n",
                  side == bilinear::Side::kA ? 'A' : 'B',
                  cert.all_pass() ? "PASS" : "FAIL",
                  cert.failure.empty() ? "" : " — ",
                  cert.failure.c_str());
    }
    const auto hk = bounds::certify_hopcroft_kerr(alg);
    std::printf("  Hopcroft-Kerr sets:     %s\n",
                hk.pass ? "PASS" : "FAIL");
  }
  bool dom_checked = false;
  bool dom_all_hold = false;
  double dom_worst_ratio = 0.0;
  if (traits.base >= 2) {
    // Three recursion levels of the scheme's own base dim (8 for 2x2
    // schemes, 27 for 3x3) — rectangular bases have no H^{n x n}.
    const std::size_t n = traits.base * traits.base * traits.base;
    const cdag::Cdag cdag = cdag::build_cdag(alg, n);
    Rng rng(1);
    const auto dom = bounds::certify_dominator_bound(
        cdag, 2, 5, bounds::ZChoice::kUniformRandom, rng);
    dom_checked = true;
    dom_all_hold = dom.all_hold;
    dom_worst_ratio = dom.worst_ratio;
    std::printf("  Lemma 3.7 (H^{%zux%zu}):    %s (worst ratio %.2f)\n", n, n,
                dom.all_hold ? "PASS" : "FAIL", dom.worst_ratio);
  } else {
    std::printf("  Lemma 3.7:              skipped (rectangular base)\n");
  }
  if (cli.wants_report() || !cli.trace_path.empty()) {
    obs::RunReport report("fmmio.certify");
    bounds::certify_algorithm(alg).attach_to(report);
    report.set_param("scheme_fingerprint", traits.fingerprint);
    if (dom_checked) {
      report.set_result("dominator_lemma37", dom_all_hold);
      report.set_result("dominator_worst_ratio", dom_worst_ratio);
    }
    obs::finalize_run(cli, report);
  }
  return 0;
}

int cmd_bounds(const Args& args) {
  if (args.get_int("n", 4096) < 1 || args.get_int("m", 4096) < 1 ||
      args.get_int("p", 1) < 1) {
    usage_error("bounds: --n, --m and --p must all be >= 1");
  }
  const double n = static_cast<double>(args.get_int("n", 4096));
  const double m = static_cast<double>(args.get_int("m", 4096));
  const double p = static_cast<double>(args.get_int("p", 1));
  const std::string alg = args.get("alg", "strassen");
  const bilinear::SchemeTraits traits = pick_traits(alg);
  if (traits.base < 2) {
    usage_error("bounds: scheme '" + traits.name + "' is rectangular; the "
                "square fast-MM bounds need a square base scheme");
  }
  const bounds::MmParams params{n, m, p};
  std::printf("Lower bounds at n=%g, M=%g, P=%g (%s, omega0=%s):\n", n, m,
              p, traits.name.c_str(), format_double(traits.omega0).c_str());
  std::printf("  classic  mem-dep:   %.4g\n",
              bounds::classic_memory_dependent(params));
  std::printf("  classic  mem-indep: %.4g\n",
              bounds::classic_memory_independent(params));
  std::printf("  fast     mem-dep:   %.4g   (holds with recomputation)\n",
              bounds::fast_memory_dependent(params, traits));
  std::printf("  fast     mem-indep: %.4g   (holds with recomputation)\n",
              bounds::fast_memory_independent(params, traits));
  std::printf("  fast     parallel:  %.4g   (Theorem 1.1 max{})\n",
              bounds::fast_parallel_bound(params, traits));
  if (p > 1) {
    std::printf("  crossover P*:       %.4g\n",
                bounds::parallel_crossover_p(n, m, traits.omega0));
  }
  return 0;
}

int cmd_simulate(const Args& args) {
  if (args.positional.size() < 2) {
    std::fprintf(stderr, "usage: fmmio simulate <algorithm> --n N --m M\n");
    return 2;
  }
  const obs::ReportCli cli = report_cli_from(args);
  obs::Registry::instance().reset();
  // A one-cell sweep: the same cell, seed (task_seed(seed, 0)) and pebble
  // run `fmmio sweep` and `fmmio query --op simulate` compute.
  const sweep::SweepSpec spec =
      cell_spec_from(args, "simulate", {args.positional[1]}, 16, 64);
  const std::int64_t write_cost = args.get_int("write-cost", 1);
  const sweep::TaskCell cell = only_cell(spec, "simulate");
  const auto alg = pick(cell.algorithm);
  const bilinear::SchemeTraits traits = pick_traits(cell.algorithm);
  const std::size_t n = cell.n;
  const std::int64_t m = cell.m;
  const std::string schedule_kind = sweep::schedule_policy_name(spec.schedule);
  const cdag::Cdag cdag = cdag::build_cdag(alg, n);
  const pebble::SimResult result = sweep::simulate_cell(cell, cdag, spec);
  // The machine weighs I/O only in this final sum, so --write-cost needs
  // no run of its own.
  const std::int64_t weighted_io = result.loads + write_cost * result.stores;

  const double bound = bounds::fast_memory_dependent(
      {static_cast<double>(n), static_cast<double>(m), 1}, traits);
  std::printf("%s on H^{%zux%zu}, M=%lld, schedule=%s%s\n",
              alg.name().c_str(), n, n, static_cast<long long>(m),
              schedule_kind.c_str(), spec.remat ? " + remat" : "");
  std::printf("  loads=%lld stores=%lld total=%lld weighted=%lld "
              "recomputes=%lld\n",
              static_cast<long long>(result.loads),
              static_cast<long long>(result.stores),
              static_cast<long long>(result.total_io()),
              static_cast<long long>(weighted_io),
              static_cast<long long>(result.recomputations));
  std::printf("  bound=%.4g  measured/bound=%.2fx\n", bound,
              static_cast<double>(result.total_io()) / bound);
  if (!spec.remat) {
    // Without recomputation the executed order is the schedule itself.
    std::printf("  zero-spill memory requirement of this schedule: %zu\n",
                pebble::min_cache_for_zero_spill(
                    cdag, result.summary.compute_order));
  }
  // Segment analysis when the configuration admits it.
  bool have_segments = false;
  bool segments_hold = false;
  std::size_t num_segments = 0;
  try {
    const auto analysis = bounds::analyze_segments(cdag, result.summary, m);
    have_segments = true;
    segments_hold = analysis.all_segments_hold;
    num_segments = analysis.segments.size();
    std::printf("  Lemma 3.6 segments: %zu, all >= M I/O: %s\n",
                num_segments, segments_hold ? "yes" : "NO");
  } catch (const CheckError&) {
    // M not a usable segment size for this n — fine.
    FMM_LOG_DEBUG("segment analysis skipped: M=" << m
                                                 << " not usable at n=" << n);
  }
  if (cli.wants_report() || !cli.trace_path.empty()) {
    obs::RunReport report("fmmio.simulate");
    report.set_param("algorithm", alg.name());
    report.set_param("scheme_fingerprint", traits.fingerprint);
    report.set_param("omega0", format_double(traits.omega0));
    report.set_param("n", static_cast<std::int64_t>(n));
    report.set_param("m", m);
    report.set_param("schedule", schedule_kind);
    report.set_param("policy", args.get("policy", "lru"));
    report.set_param("remat", spec.remat ? "true" : "false");
    report.set_param("seed", static_cast<std::int64_t>(cli.seed));
    report.set_result("loads", result.loads);
    report.set_result("stores", result.stores);
    report.set_result("total_io", result.total_io());
    report.set_result("weighted_io", weighted_io);
    report.set_result("computations", result.computations);
    report.set_result("recomputations", result.recomputations);
    if (have_segments) {
      report.set_result("lemma36_segments",
                        static_cast<std::int64_t>(num_segments));
      report.set_result("lemma36_all_hold", segments_hold);
    }
    report.add_bound_check("fast_memory_dependent", bound,
                           static_cast<double>(result.total_io()));
    obs::finalize_run(cli, report);
  }
  return 0;
}

int cmd_optimal(const Args& args) {
  if (args.positional.size() < 2) {
    std::fprintf(stderr,
                 "usage: fmmio optimal <algorithm> --n N --m M [--remat] "
                 "[--max-states K] [--snapshot-dir DIR] "
                 "[--out report.json]\n");
    return 2;
  }
  const obs::ReportCli cli = report_cli_from(args);
  obs::Registry::instance().reset();
  sweep::SweepSpec spec =
      cell_spec_from(args, "optimal", {args.positional[1]}, 2, 8);
  spec.kinds = {sweep::TaskKind::kOptimal};
  const sweep::TaskCell cell = only_cell(spec, "optimal");
  const auto alg = pick(cell.algorithm);
  const bilinear::SchemeTraits traits = pick_traits(cell.algorithm);
  const std::size_t n = cell.n;
  const std::int64_t m = cell.m;

  pebble::OptimalPebbleOptions options;
  options.cache_size = m;
  options.allow_recomputation = spec.remat;
  const std::int64_t max_states = args.get_int(
      "max-states",
      static_cast<std::int64_t>(pebble::OptimalPebbleOptions{}.max_states));
  if (max_states < 1) {
    usage_error("optimal: --max-states must be >= 1, got " +
                std::to_string(max_states));
  }
  options.max_states = static_cast<std::size_t>(max_states);
  // The certified floor the sweep's optimal cells use.
  options.root_lower_bound =
      static_cast<std::int64_t>(sweep::certified_floor(n, m, traits));

  // The CDAG comes through the content cache `fmmio sweep` reads from;
  // with a snapshot store mounted it reuses a published frozen CDAG (or
  // publishes the one it builds) — the search dominates runtime, but at
  // large n the build is minutes of avoidable work per process.
  const std::unique_ptr<snapshot::SnapshotStore> snapshot_store =
      snapshot_store_from(args, "optimal");
  service::ContentCache cache;
  service::CachingCdagSource cdag_source(cache, snapshot_store.get());
  const std::shared_ptr<const cdag::Cdag> cdag =
      cdag_source.get_cdag(cell.algorithm, n);
  pebble::OptimalPebbleResult result;
  try {
    result = pebble::optimal_io(pebble::to_instance(*cdag), options);
  } catch (const pebble::InfeasibleError& e) {
    std::fprintf(stderr, "optimal: infeasible: %s\n", e.what());
    return 1;
  }

  const char* optimality = pebble::optimality_name(result.optimality);
  std::printf("%s on H^{%zux%zu}, M=%lld, recomputation %s\n",
              alg.name().c_str(), n, n, static_cast<long long>(m),
              spec.remat ? "allowed" : "forbidden");
  std::printf("  min_io=%lld (%s)  states_explored=%zu\n",
              static_cast<long long>(result.min_io), optimality,
              result.states_explored);
  std::printf("  certified floor=%lld  holds=%s\n",
              static_cast<long long>(options.root_lower_bound),
              result.min_io >= options.root_lower_bound ? "yes" : "NO");
  if (result.optimality ==
      pebble::OptimalPebbleResult::Optimality::kBudgetExceeded) {
    std::printf("  state budget %lld exceeded: min_io is a certified "
                "LOWER bound, not the optimum\n",
                static_cast<long long>(max_states));
  }
  if (cli.wants_report() || !cli.trace_path.empty()) {
    obs::RunReport report("fmmio.optimal");
    report.set_param("algorithm", alg.name());
    report.set_param("scheme_fingerprint", traits.fingerprint);
    report.set_param("n", static_cast<std::int64_t>(n));
    report.set_param("m", m);
    report.set_param("remat", spec.remat ? "true" : "false");
    report.set_param("max_states", max_states);
    report.set_result("min_io", result.min_io);
    report.set_result("states_explored",
                      static_cast<std::int64_t>(result.states_explored));
    report.set_result("optimality", optimality);
    report.set_result("lower_bound", options.root_lower_bound);
    report.set_result("bound_holds",
                      result.min_io >= options.root_lower_bound);
    if (snapshot_store != nullptr) {
      report.set_param("snapshot_dir", snapshot_store->directory());
      report.add_raw_section("snapshot", snapshot_store->stats_json());
    }
    obs::finalize_run(cli, report);
  }
  return 0;
}

int cmd_cdag(const Args& args) {
  if (args.positional.size() < 2) {
    std::fprintf(stderr,
                 "usage: fmmio cdag <algorithm> --n N [--dot [--force]]\n");
    return 2;
  }
  const sweep::TaskCell cell = only_cell(
      cell_spec_from(args, "cdag", {args.positional[1]}, 4, 1), "cdag");
  const auto alg = pick(cell.algorithm);
  const std::size_t n = cell.n;
  const cdag::Cdag cdag = cdag::build_cdag(alg, n);
  if (args.has("dot")) {
    // Large CDAGs render to unusable multi-GB DOT; require --force.
    std::cout << cdag.to_dot(args.has("force"));
    return 0;
  }
  std::printf("H^{%zux%zu} of %s: %zu vertices, %zu edges\n", n, n,
              alg.name().c_str(), cdag.graph.num_vertices(),
              cdag.graph.num_edges());
  for (const auto& [role, count] : cdag.role_histogram()) {
    std::printf("  %-5s %zu\n", cdag::role_name(role), count);
  }
  for (const auto& level : cdag.subproblem_levels) {
    std::printf("  SUB_H^{%zux%zu}: %zu sub-problems, %zu output "
                "vertices\n",
                level.r, level.r, level.count, level.output_pool.size());
  }
  return 0;
}

/// "--wipes p@step[,p@step...]" → explicit WipeEvent list.
std::vector<resilience::WipeEvent> parse_wipes(const std::string& raw) {
  std::vector<resilience::WipeEvent> wipes;
  for (const std::string& item : split_csv(raw)) {
    const std::size_t at = item.find('@');
    if (at == std::string::npos || at == 0 || at + 1 >= item.size()) {
      usage_error("parallel: --wipes entries must look like PROC@STEP, "
                  "got '" + item + "'");
    }
    resilience::WipeEvent wipe;
    wipe.processor = std::atoi(item.substr(0, at).c_str());
    wipe.step = std::atoi(item.substr(at + 1).c_str());
    if (wipe.processor < 0 || wipe.step < 0) {
      usage_error("parallel: --wipes coordinates must be >= 0, got '" +
                  item + "'");
    }
    wipes.push_back(wipe);
  }
  return wipes;
}

int cmd_parallel(const Args& args) {
  const std::int64_t n = require_pow2_n(args, 1024, "parallel");
  const std::int64_t p = args.get_int("p", 49);
  const std::int64_t m = args.get_int("m", 0);
  if (!is_power_of(p, 7)) {
    usage_error("parallel: --p must be a power of 7 (CAPS splits the "
                "machine 7-way per BFS step), got " + std::to_string(p));
  }
  if (m < 0) {
    usage_error("parallel: --m must be >= 0 (0 = unlimited), got " +
                std::to_string(m));
  }
  // n*n < p, phrased to survive huge --n: for n >= 1, p >= 1 this is
  // exactly (p - 1) / n >= n, with no overflowing square.
  if ((p - 1) / n >= n) {
    usage_error("parallel: need n^2 >= P (one element per processor); "
                "got n=" + std::to_string(n) + ", P=" + std::to_string(p));
  }
  const bool faulted = args.has("faults") || args.has("drop-rate") ||
                       args.has("wipes") || args.has("wipe-count");
  const auto model = parallel::simulate_caps(n, p, m);
  std::printf("CAPS model: n=%lld P=%lld M=%s\n",
              static_cast<long long>(n), static_cast<long long>(p),
              m == 0 ? "unlimited" : std::to_string(m).c_str());
  std::printf("  words/proc=%lld  bfs=%d dfs=%d  peak mem=%lld  "
              "feasible=%s\n",
              static_cast<long long>(model.words_per_proc),
              model.bfs_steps, model.dfs_steps,
              static_cast<long long>(model.peak_memory_words),
              model.feasible ? "yes" : "no");
  if (n <= 512) {
    const auto exact = parallel::simulate_caps_elementwise(n, p);
    std::printf("  element-level exact: max words/proc=%lld total=%lld\n",
                static_cast<long long>(exact.max_words_per_proc()),
                static_cast<long long>(exact.total_words()));
  }
  const double bound = bounds::fast_parallel_bound(
      {static_cast<double>(n),
       m == 0 ? static_cast<double>(model.peak_memory_words)
              : static_cast<double>(m),
       static_cast<double>(p)},
      kOmega0);
  std::printf("  Theorem 1.1 bound: %.4g\n", bound);

  if (faulted) {
    if (n > 512) {
      usage_error("parallel: fault injection runs the element-level "
                  "simulator; --n must be <= 512, got " + std::to_string(n));
    }
    if (p < 7) {
      usage_error("parallel: fault injection needs a distributed run "
                  "(--p >= 7); P=" + std::to_string(p) +
                  " keeps everything local");
    }
    const double drop_rate = std::atof(args.get("drop-rate", "0").c_str());
    if (drop_rate < 0.0 || drop_rate >= 1.0) {
      usage_error("parallel: --drop-rate must be in [0, 1), got " +
                  args.get("drop-rate", "0"));
    }
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    const std::int64_t max_retransmissions =
        args.get_int("max-retransmissions", 64);
    if (max_retransmissions < 1) {
      usage_error("parallel: --max-retransmissions must be >= 1, got " +
                  std::to_string(max_retransmissions));
    }
    resilience::FaultSpec fault_spec;
    if (args.has("wipes")) {
      fault_spec.seed = seed;
      fault_spec.message_drop_rate = drop_rate;
      fault_spec.wipes = parse_wipes(args.get("wipes", ""));
      for (const resilience::WipeEvent& wipe : fault_spec.wipes) {
        if (wipe.processor >= p) {
          usage_error("parallel: --wipes targets processor " +
                      std::to_string(wipe.processor) + ", but --p is " +
                      std::to_string(p));
        }
      }
    } else {
      const int wipe_count =
          static_cast<int>(args.get_int("wipe-count", 1));
      if (wipe_count < 0) {
        usage_error("parallel: --wipe-count must be >= 0, got " +
                    std::to_string(wipe_count));
      }
      // Draw the chaos schedule over the steps the recursion will
      // actually reach (known from a clean dry run).
      const auto clean = parallel::simulate_caps_elementwise(n, p);
      fault_spec = resilience::FaultSpec::random_schedule(
          seed, static_cast<int>(p), std::max(1, clean.bfs_steps),
          wipe_count, drop_rate);
    }
    fault_spec.max_retransmissions =
        static_cast<int>(max_retransmissions);
    const auto fr =
        parallel::simulate_caps_elementwise_faulted(n, p, fault_spec);
    std::printf("  fault injection: seed=%llu drop-rate=%g wipes=%zu "
                "(applied %zu)\n",
                static_cast<unsigned long long>(fault_spec.seed),
                fault_spec.message_drop_rate, fault_spec.wipes.size(),
                fr.events.size());
    for (const resilience::FaultEvent& event : fr.events) {
      std::printf("    wipe p%d @ step %d: %lld words recovered by "
                  "recomputation\n",
                  event.processor, event.step,
                  static_cast<long long>(event.recovered_words));
    }
    std::printf("    fault-free max words/proc=%lld  faulted=%lld  "
                "(retransmit=%lld recovery=%lld)\n",
                static_cast<long long>(fr.fault_free.max_words_per_proc()),
                static_cast<long long>(fr.faulted.max_words_per_proc()),
                static_cast<long long>(fr.retransmitted_words),
                static_cast<long long>(fr.recovery_words));
    std::printf("    faulted >= fault-free: %s   both >= Theorem 1.1 "
                "bound (%.4g): %s\n",
                fr.faulted_dominates_fault_free ? "yes" : "NO",
                fr.parallel_lower_bound, fr.bound_holds ? "yes" : "NO");

    const obs::ReportCli cli = report_cli_from(args);
    if (cli.wants_report() || !cli.trace_path.empty()) {
      obs::RunReport report("fmmio.parallel");
      report.set_param("n", n);
      report.set_param("p", p);
      report.set_param("m", m);
      report.set_param("seed", static_cast<std::int64_t>(fault_spec.seed));
      report.set_result("fault_free_max_words",
                        fr.fault_free.max_words_per_proc());
      report.set_result("faulted_max_words",
                        fr.faulted.max_words_per_proc());
      report.set_result("retransmitted_words", fr.retransmitted_words);
      report.set_result("recovery_words", fr.recovery_words);
      report.set_result("faulted_dominates_fault_free",
                        fr.faulted_dominates_fault_free);
      report.add_bound_check(
          "fast_parallel_memory_independent", fr.parallel_lower_bound,
          static_cast<double>(fr.faulted.max_words_per_proc()));
      std::ostringstream resilience_oss;
      resilience_oss << "{\n";
      resilience_oss << "      \"schema\": \"fmm.resilience\",\n";
      resilience_oss << "      \"schema_version\": 1,\n";
      resilience_oss << "      \"seed\": " << fault_spec.seed << ",\n";
      resilience_oss << "      \"message_drop_rate\": "
                     << fault_spec.message_drop_rate << ",\n";
      resilience_oss << "      \"retransmitted_words\": "
                     << fr.retransmitted_words << ",\n";
      resilience_oss << "      \"recovery_words\": " << fr.recovery_words
                     << ",\n";
      resilience_oss << "      \"bound_holds\": "
                     << (fr.bound_holds ? "true" : "false") << ",\n";
      resilience_oss << "      \"fault_events\": "
                     << resilience::fault_events_to_json(fr.events)
                     << "\n    }";
      report.add_raw_section("resilience", resilience_oss.str());
      obs::finalize_run(cli, report);
    }
    return fr.bound_holds && fr.faulted_dominates_fault_free ? 0 : 1;
  }
  return 0;
}

int cmd_sweep(const Args& args) {
  if (!args.has("alg") || !args.has("n") || !args.has("m")) {
    std::fprintf(stderr,
                 "usage: fmmio sweep --alg A[,A2] --n N1[,N2] --m M1[,M2] "
                 "[--kinds simulate,liveness,dominator,boundcheck,optimal] "
                 "[--schedule dfs|bfs|random] [--policy lru|opt] [--remat] "
                 "[--threads T] [--keep-going] [--seed S] [--retries K] "
                 "[--inject-failures R] [--max-cell-bytes B] "
                 "[--checkpoint path.jsonl] [--resume] [--out r.json]\n");
    return 2;
  }
  const obs::ReportCli cli = report_cli_from(args);
  obs::Registry::instance().reset();

  sweep::SweepSpec spec =
      cell_spec_from(args, "sweep", split_csv(args.get("alg", "")), 0, 0);
  if (args.has("kinds")) {
    spec.kinds.clear();
    for (const std::string& kind : split_csv(args.get("kinds", ""))) {
      if (kind == "simulate") {
        spec.kinds.push_back(sweep::TaskKind::kSimulate);
      } else if (kind == "liveness") {
        spec.kinds.push_back(sweep::TaskKind::kLiveness);
      } else if (kind == "dominator") {
        spec.kinds.push_back(sweep::TaskKind::kDominator);
      } else if (kind == "boundcheck") {
        spec.kinds.push_back(sweep::TaskKind::kBoundCheck);
      } else if (kind == "optimal") {
        spec.kinds.push_back(sweep::TaskKind::kOptimal);
      } else {
        usage_error("sweep: unknown --kinds value '" + kind +
                    "'; expected simulate, liveness, dominator, boundcheck "
                    "or optimal");
      }
    }
  }
  const std::int64_t threads = args.get_int("threads", 1);
  if (threads < 0) {
    usage_error("sweep: --threads must be >= 0 (0 = hardware "
                "concurrency), got " + std::to_string(threads));
  }
  spec.num_threads = static_cast<std::size_t>(threads);
  spec.keep_going = args.has("keep-going");

  // Resilience knobs (docs/RESILIENCE.md).
  const std::int64_t retries = args.get_int("retries", 1);
  if (retries < 1) {
    usage_error("sweep: --retries (total attempts per task) must be "
                ">= 1, got " + std::to_string(retries));
  }
  spec.retry.max_attempts = static_cast<int>(retries);
  spec.retry.base_backoff_ticks = args.get_int("backoff-base", 1);
  spec.retry.backoff_multiplier =
      static_cast<int>(args.get_int("backoff-mult", 2));
  spec.retry.deadline_ticks = args.get_int("deadline-ticks", 0);
  if (spec.retry.base_backoff_ticks < 0 ||
      spec.retry.backoff_multiplier < 1 || spec.retry.deadline_ticks < 0) {
    usage_error("sweep: --backoff-base/--deadline-ticks must be >= 0 and "
                "--backoff-mult >= 1");
  }
  spec.inject_failure_rate =
      std::atof(args.get("inject-failures", "0").c_str());
  if (spec.inject_failure_rate < 0.0 || spec.inject_failure_rate > 1.0) {
    usage_error("sweep: --inject-failures must be in [0, 1], got " +
                args.get("inject-failures", "0"));
  }
  spec.inject_seed =
      static_cast<std::uint64_t>(args.get_int("inject-seed", 0));
  spec.max_cell_bytes = args.get_int("max-cell-bytes", 0);
  if (spec.max_cell_bytes < 0) {
    usage_error("sweep: --max-cell-bytes must be >= 0 (0 = unlimited), "
                "got " + std::to_string(spec.max_cell_bytes));
  }
  spec.checkpoint_path = args.get("checkpoint", "");
  const std::int64_t checkpoint_every = args.get_int("checkpoint-every", 1);
  if (checkpoint_every < 1) {
    usage_error("sweep: --checkpoint-every must be >= 1, got " +
                std::to_string(checkpoint_every));
  }
  spec.checkpoint_every = static_cast<std::size_t>(checkpoint_every);
  spec.resume = args.has("resume");
  if (spec.resume && spec.checkpoint_path.empty()) {
    usage_error("sweep: --resume needs --checkpoint PATH to load from");
  }

  // Sweep cells fetch their CDAGs through the service content cache —
  // the same code path `fmmio serve` and `fmmio query` answer from
  // (docs/SERVICE.md).  Cache state must not change the payload, so
  // --cache-bytes is not part of the deterministic spec.
  const std::int64_t cache_bytes =
      args.get_int("cache-bytes", 256ll << 20);
  if (cache_bytes < 0) {
    usage_error("sweep: --cache-bytes must be >= 0 (0 = no retention), "
                "got " + std::to_string(cache_bytes));
  }
  service::CacheConfig cache_config;
  cache_config.memory_budget_bytes = static_cast<std::size_t>(cache_bytes);
  service::ContentCache cache(cache_config);
  const std::unique_ptr<snapshot::SnapshotStore> snapshot_store =
      snapshot_store_from(args, "sweep");
  service::CachingCdagSource cdag_source(cache, snapshot_store.get());
  const sweep::SweepResult result = sweep::run_sweep(spec, cdag_source);

  std::printf("sweep: %zu tasks on %zu thread(s) in %.3fs\n",
              result.num_tasks,
              spec.num_threads == 0
                  ? static_cast<std::size_t>(
                        std::thread::hardware_concurrency())
                  : spec.num_threads,
              result.wall_seconds);
  Table table({"Kind", "Algorithm", "n", "M", "I/O", "Recomp", "Detail"});
  for (const auto& task : result.tasks) {
    table.begin_row();
    table.add_cell(sweep::task_kind_name(task.cell.kind));
    table.add_cell(task.cell.algorithm);
    table.add_cell(task.cell.n);
    table.add_cell(std::to_string(task.cell.m));
    table.add_cell(std::to_string(task.total_io));
    table.add_cell(std::to_string(task.recomputations));
    std::string detail;
    if (!task.ok) {
      detail = "FAILED: " + task.error;
    } else if (task.skipped) {
      detail = "skipped";
    } else if (task.cell.kind == sweep::TaskKind::kLiveness) {
      detail = "peak=" + std::to_string(task.liveness_peak);
    } else if (task.cell.kind == sweep::TaskKind::kDominator) {
      detail = std::string(task.dominator_holds ? "holds" : "VIOLATED") +
               " worst=" + format_double(task.dominator_worst_ratio);
    } else if (task.cell.kind == sweep::TaskKind::kBoundCheck) {
      detail = std::string(task.bound_holds ? "holds" : "VIOLATED") +
               " ratio=" + format_double(task.bound_ratio);
    } else if (task.cell.kind == sweep::TaskKind::kOptimal) {
      detail = "min_io=" + std::to_string(task.min_io) + " (" +
               task.optimality + ") states=" +
               std::to_string(task.states_explored);
    }
    table.add_cell(detail);
  }
  table.print_console(std::cout);
  std::printf("  aggregate I/O=%lld recomputes=%lld  bounds %s  "
              "dominators %s  (%zu failed, %zu skipped)\n",
              static_cast<long long>(result.aggregate_total_io),
              static_cast<long long>(result.aggregate_recomputations),
              result.all_bounds_hold ? "hold" : "VIOLATED",
              result.all_dominators_hold ? "hold" : "VIOLATED",
              result.failed, result.skipped);

  if (cli.wants_report() || !cli.trace_path.empty()) {
    obs::RunReport report("fmmio.sweep");
    report.set_param("algorithms", args.get("alg", ""));
    report.set_param("n_grid", args.get("n", ""));
    report.set_param("m_grid", args.get("m", ""));
    report.set_param("schedule", sweep::schedule_policy_name(spec.schedule));
    report.set_param("remat", spec.remat);
    report.set_param("threads",
                     static_cast<std::int64_t>(spec.num_threads));
    report.set_param("seed", static_cast<std::int64_t>(spec.base_seed));
    result.attach_to(report);
    if (snapshot_store != nullptr) {
      report.set_param("snapshot_dir", snapshot_store->directory());
      report.add_raw_section("snapshot", snapshot_store->stats_json());
    }
    if (spec.resume) {
      // Restored rows never executed in this process, so the registry's
      // pebble counters legitimately undercount the report aggregate;
      // the schema checker skips that cross-check for resumed runs.
      report.set_result("sweep_resumed", true);
    }
    obs::finalize_run(cli, report);
  }
  return result.failed == 0 ? 0 : 1;
}

service::ServiceConfig service_config_from(const Args& args,
                                           const char* command) {
  service::ServiceConfig config;
  const std::int64_t threads = args.get_int("threads", 0);
  if (threads < 0) {
    usage_error(std::string(command) + ": --threads must be >= 0 (0 = "
                "hardware concurrency), got " + std::to_string(threads));
  }
  config.num_threads = static_cast<std::size_t>(threads);
  const std::int64_t queue = args.get_int("queue", 256);
  if (queue < 0) {
    usage_error(std::string(command) + ": --queue must be >= 0, got " +
                std::to_string(queue));
  }
  config.max_queue = static_cast<std::size_t>(queue);
  const std::int64_t cache_bytes =
      args.get_int("cache-bytes", 256ll << 20);
  if (cache_bytes < 0) {
    usage_error(std::string(command) + ": --cache-bytes must be >= 0 "
                "(0 = no retention), got " + std::to_string(cache_bytes));
  }
  config.cache.memory_budget_bytes =
      static_cast<std::size_t>(cache_bytes);
  const std::int64_t shards = args.get_int("cache-shards", 8);
  if (shards < 1) {
    usage_error(std::string(command) + ": --cache-shards must be >= 1, "
                "got " + std::to_string(shards));
  }
  config.cache.shards = static_cast<std::size_t>(shards);
  config.deadline_ticks = args.get_int("deadline-ticks", 0);
  if (config.deadline_ticks < 0) {
    usage_error(std::string(command) + ": --deadline-ticks must be >= 0 "
                "(0 = no deadline), got " +
                std::to_string(config.deadline_ticks));
  }
  config.slow_ms = args.get_int("slow-ms", 100);
  if (config.slow_ms < 0) {
    usage_error(std::string(command) + ": --slow-ms must be >= 0 "
                "(0 logs every request as slow), got " +
                std::to_string(config.slow_ms));
  }
  const std::int64_t ring = args.get_int("telemetry-ring", 256);
  if (ring < 1) {
    usage_error(std::string(command) + ": --telemetry-ring must be >= 1, "
                "got " + std::to_string(ring));
  }
  config.telemetry_ring = static_cast<std::size_t>(ring);
  if (args.has("snapshot-dir")) {
    config.snapshot_dir = require_snapshot_dir(args, command);
    config.snapshot_budget_bytes = require_snapshot_budget(args, command);
  }
  return config;
}

// SIGTERM/SIGINT request a graceful drain, not an abort: the handler
// only flips a sig_atomic_t that serve loops poll.  Installed WITHOUT
// SA_RESTART so a read blocked on stdin (or a socket accept) fails
// with EINTR and the drain path runs — in-flight requests are still
// answered and the run report is still written.
volatile std::sig_atomic_t g_stop_requested = 0;

void handle_stop_signal(int /*signum*/) { g_stop_requested = 1; }

void install_stop_signals() {
#ifdef __unix__
  struct sigaction action {};
  action.sa_handler = handle_stop_signal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // no SA_RESTART: blocked reads must EINTR
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);
#else
  std::signal(SIGTERM, handle_stop_signal);
  std::signal(SIGINT, handle_stop_signal);
#endif
}

/// Shared by `serve` and `worker` (the daemon the process transport
/// spawns): one NDJSON session over stdin/stdout or a Unix socket,
/// signal-safe graceful shutdown, optional run report.
int run_service_session(const Args& args, const char* command) {
  const obs::ReportCli cli = report_cli_from(args);
  obs::Registry::instance().reset();
  install_stop_signals();
  service::ServiceConfig config = service_config_from(args, command);
  config.stop_flag = &g_stop_requested;
  service::QueryService service(config);
  bool shutdown = false;
  if (args.has("socket")) {
#ifdef __unix__
    if (std::string(command) != "serve") {
      usage_error(std::string(command) +
                  ": --socket is a serve-only flag (workers speak "
                  "stdin/stdout to their router)");
    }
    shutdown = service.serve_unix_socket(args.get("socket", ""));
#else
    usage_error("serve: --socket needs a Unix platform; use stdin mode");
#endif
  } else {
    shutdown = service.serve(std::cin, std::cout);
  }
  if (cli.wants_report() || !cli.trace_path.empty()) {
    obs::RunReport report(std::string("fmmio.") + command);
    report.set_param("threads",
                     static_cast<std::int64_t>(
                         service.config().num_threads));
    report.set_param("queue",
                     static_cast<std::int64_t>(service.config().max_queue));
    report.set_param(
        "cache_bytes",
        static_cast<std::int64_t>(
            service.config().cache.memory_budget_bytes));
    report.set_param("deadline_ticks", service.config().deadline_ticks);
    report.set_result("shutdown_requested", shutdown);
    report.set_result("stopped_by_signal", g_stop_requested != 0);
    service.attach_to(report);
    obs::finalize_run(cli, report);
  }
  return 0;
}

int cmd_serve(const Args& args) {
  return run_service_session(args, "serve");
}

int cmd_worker(const Args& args) {
  return run_service_session(args, "worker");
}

/// Parses --kill "K@J[,K@J...]" into chaos kill events (kill worker K
/// after it has dispatched J requests).
std::vector<fabric::KillEvent> parse_kill_events(const std::string& text) {
  std::vector<fabric::KillEvent> kills;
  std::istringstream stream(text);
  std::string token;
  while (std::getline(stream, token, ',')) {
    const auto at = token.find('@');
    if (token.empty() || at == std::string::npos || at == 0 ||
        at + 1 >= token.size()) {
      usage_error("router: --kill wants K@J[,K@J...] (kill worker K "
                  "after J dispatches), got '" + token + "'");
    }
    fabric::KillEvent kill;
    try {
      kill.worker = static_cast<std::size_t>(
          std::stoll(token.substr(0, at)));
      kill.after_requests = std::stoll(token.substr(at + 1));
    } catch (const std::exception&) {
      usage_error("router: --kill wants numeric K@J, got '" + token + "'");
    }
    kills.push_back(kill);
  }
  return kills;
}

int cmd_router(const Args& args) {
  const obs::ReportCli cli = report_cli_from(args);
  obs::Registry::instance().reset();
  install_stop_signals();

  fabric::FabricConfig config;
  const std::int64_t workers = args.get_int("workers", 4);
  if (workers < 1) {
    usage_error("router: --workers must be >= 1, got " +
                std::to_string(workers));
  }
  config.num_workers = static_cast<std::size_t>(workers);
  const std::int64_t depth = args.get_int("queue-depth", 64);
  if (depth < 1) {
    usage_error("router: --queue-depth must be >= 1, got " +
                std::to_string(depth));
  }
  config.worker_queue_depth = static_cast<std::size_t>(depth);
  const std::int64_t retries = args.get_int("retries", 3);
  if (retries < 1) {
    usage_error("router: --retries must be >= 1 (total attempts per "
                "request), got " + std::to_string(retries));
  }
  config.retry.max_attempts = static_cast<int>(retries);
  config.retry.base_backoff_ticks = args.get_int("backoff-base", 1);
  config.retry.backoff_multiplier =
      static_cast<int>(args.get_int("backoff-mult", 2));
  if (config.retry.base_backoff_ticks < 0 ||
      config.retry.backoff_multiplier < 1) {
    usage_error("router: --backoff-base must be >= 0 and "
                "--backoff-mult >= 1");
  }
  const std::int64_t respawns = args.get_int("max-respawns", 2);
  if (respawns < 0) {
    usage_error("router: --max-respawns must be >= 0, got " +
                std::to_string(respawns));
  }
  config.max_respawns = static_cast<int>(respawns);
  const std::int64_t heartbeat = args.get_int("heartbeat-ms", 0);
  if (heartbeat < 0) {
    usage_error("router: --heartbeat-ms must be >= 0 (0 disables), got " +
                std::to_string(heartbeat));
  }
  config.heartbeat_interval_ms = static_cast<int>(heartbeat);
  config.chaos.seed =
      static_cast<std::uint64_t>(args.get_int("chaos-seed", 1));
  const double drop_rate = std::atof(args.get("drop-rate", "0").c_str());
  if (drop_rate < 0.0 || drop_rate >= 1.0) {
    usage_error("router: --drop-rate must be in [0, 1), got " +
                args.get("drop-rate", "0"));
  }
  config.chaos.drop_response_rate = drop_rate;
  if (args.has("kill")) {
    config.chaos.kills = parse_kill_events(args.get("kill", ""));
  }
  config.stop_flag = &g_stop_requested;

  service::ServiceConfig worker_config =
      service_config_from(args, "router");
  if (!args.has("threads")) {
    worker_config.num_threads = 1;  // N single-threaded workers
  }

  const std::string transport_name = args.get("transport", "inproc");
  std::unique_ptr<fabric::Transport> transport;
  if (transport_name == "inproc") {
    transport =
        std::make_unique<fabric::InProcessTransport>(worker_config);
  } else if (transport_name == "process") {
#ifdef __unix__
    std::string worker_cmd = args.get("worker-cmd", "");
    if (worker_cmd.empty()) {
      char exe[4096];
      const ssize_t got =
          readlink("/proc/self/exe", exe, sizeof(exe) - 1);
      if (got <= 0) {
        usage_error("router: cannot resolve /proc/self/exe; pass "
                    "--worker-cmd PATH");
      }
      exe[got] = '\0';
      worker_cmd = exe;
    }
    std::vector<std::string> worker_argv = {worker_cmd, "worker"};
    for (const char* flag :
         {"threads", "queue", "cache-bytes", "cache-shards",
          "deadline-ticks", "snapshot-dir", "snapshot-budget"}) {
      if (args.has(flag)) {
        worker_argv.push_back(std::string("--") + flag);
        worker_argv.push_back(args.get(flag, ""));
      }
    }
    if (!args.has("threads")) {
      worker_argv.push_back("--threads");
      worker_argv.push_back("1");
    }
    transport = std::make_unique<fabric::ProcessTransport>(worker_argv);
#else
    usage_error("router: --transport process needs a Unix platform");
#endif
  } else {
    usage_error("router: --transport must be inproc or process, got '" +
                transport_name + "'");
  }

  fabric::Router router(config, *transport);
  const bool shutdown = router.serve(std::cin, std::cout);

  if (cli.wants_report() || !cli.trace_path.empty()) {
    obs::RunReport report("fmmio.router");
    report.set_param("workers", static_cast<std::int64_t>(workers));
    report.set_param("transport", transport_name);
    report.set_param("queue_depth", static_cast<std::int64_t>(depth));
    report.set_param("retries", static_cast<std::int64_t>(retries));
    report.set_param("max_respawns", static_cast<std::int64_t>(respawns));
    report.set_result("shutdown_requested", shutdown);
    report.set_result("stopped_by_signal", g_stop_requested != 0);
    router.attach_to(report);
    if (args.has("snapshot-dir")) {
      // A fresh handle over the workers' shared directory: the census
      // (files/bytes) is live; the snapshot.* counters are this
      // process's — populated for the inproc transport, zero when the
      // fork/exec workers did the loading (their own reports carry the
      // per-worker tallies).
      const std::unique_ptr<snapshot::SnapshotStore> store =
          snapshot_store_from(args, "router");
      report.set_param("snapshot_dir", store->directory());
      report.add_raw_section("snapshot", store->stats_json());
    }
    obs::finalize_run(cli, report);
  }
  return 0;
}

/// Builds one request line from --op/--id/--alg/... flags.  Validation
/// happens in parse_request, exactly as for a network client.
std::string compose_request(const Args& args) {
  std::ostringstream os;
  os << "{";
  bool first = true;
  const auto field = [&](const std::string& key, const std::string& value,
                         bool quote) {
    os << (first ? "" : ", ") << "\"" << key << "\": ";
    if (quote) {
      os << "\"" << value << "\"";
    } else {
      os << value;
    }
    first = false;
  };
  if (args.has("id")) {
    field("id", args.get("id", ""), false);
  }
  field("op", args.get("op", ""), true);
  if (args.has("alg")) {
    field("algorithm", args.get("alg", ""), true);
  }
  for (const char* key : {"n", "m", "p", "seed"}) {
    if (args.has(key)) {
      field(key, args.get(key, ""), false);
    }
  }
  for (const char* key : {"schedule", "policy"}) {
    if (args.has(key)) {
      field(key, args.get(key, ""), true);
    }
  }
  if (args.has("remat")) {
    field("remat", "true", false);
  }
  os << "}";
  return os.str();
}

#ifdef __unix__
/// Sends one request line to a serving daemon's Unix socket and returns
/// the one response line.
std::string query_over_socket(const std::string& path,
                              const std::string& line) {
  const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    usage_error("query: cannot create socket");
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    close(fd);
    usage_error("query: socket path too long: " + path);
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (connect(fd, reinterpret_cast<const sockaddr*>(&addr),
              sizeof(addr)) != 0) {
    close(fd);
    usage_error("query: cannot connect to " + path +
                " (is `fmmio serve --socket` running?)");
  }
  const std::string request = line + "\n";
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t wrote =
        write(fd, request.data() + sent, request.size() - sent);
    if (wrote <= 0) {
      close(fd);
      usage_error("query: send failed");
    }
    sent += static_cast<std::size_t>(wrote);
  }
  std::string response;
  char ch = 0;
  while (read(fd, &ch, 1) == 1 && ch != '\n') {
    response.push_back(ch);
  }
  close(fd);
  return response;
}
#endif

int cmd_query(const Args& args) {
  if (!args.has("op")) {
    std::fprintf(stderr,
                 "usage: fmmio query --op <ping|version|stats|bound|"
                 "simulate|liveness|optimal|cdag|shutdown> [--id I] [--alg A] "
                 "[--n N] [--m M] [--p P] [--schedule S] [--policy P] "
                 "[--remat] [--seed S] [--connect SOCKET] [--print]\n");
    return 2;
  }
  const std::string line = compose_request(args);
  if (args.has("print")) {
    // Compose-only mode: emit the request line for scripted sessions
    // (pipe several into `fmmio serve`).
    std::printf("%s\n", line.c_str());
    return 0;
  }
  std::string response;
  if (args.has("connect")) {
#ifdef __unix__
    response = query_over_socket(args.get("connect", ""), line);
#else
    usage_error("query: --connect needs a Unix platform");
#endif
  } else {
    // In-process single shot: the same parse/cache/compute path the
    // daemon runs, so one-off queries and served queries cannot drift.
    service::ServiceConfig config = service_config_from(args, "query");
    config.num_threads = 1;
    service::QueryService service(config);
    response = service.handle_line(line);
  }
  std::printf("%s\n", response.c_str());
  // Exit code mirrors the response verdict for scripting: 0 when ok, 2
  // for a usage error (as for every other subcommand), 1 otherwise.
  if (response.find("\"ok\": true") != std::string::npos) {
    return 0;
  }
  return response.find("\"error\": \"usage_error: ") != std::string::npos
             ? 2
             : 1;
}

/// Extracts `result` from a daemon response line, or exits loudly —
/// shared by the metrics and tail scrape subcommands.
JsonValue scrape_result(const std::string& response, const char* command) {
  const JsonValue doc = parse_json(response);
  const JsonValue* ok = doc.find("ok");
  if (ok == nullptr || !ok->is_bool() || !ok->as_bool()) {
    std::fprintf(stderr, "fmmio: %s scrape failed: %s\n", command,
                 response.c_str());
    std::exit(1);
  }
  return doc.at("result");
}

int cmd_metrics(const Args& args) {
  if (args.has("connect")) {
#ifdef __unix__
    const std::string response = query_over_socket(
        args.get("connect", ""), "{\"op\": \"metrics\"}");
    const JsonValue result = scrape_result(response, "metrics");
    std::fputs(result.at("exposition").as_string().c_str(), stdout);
    return 0;
#else
    usage_error("metrics: --connect needs a Unix platform");
#endif
  }
  // No daemon: expose this process's own registry.  Mostly useful for
  // eyeballing the exposition format; a fresh process has no samples.
  std::fputs(obs::Registry::instance().prometheus_text().c_str(), stdout);
  return 0;
}

int cmd_tail(const Args& args) {
#ifdef __unix__
  if (!args.has("connect")) {
    usage_error("tail: needs --connect SOCKET (a running "
                "`fmmio serve --socket` daemon)");
  }
  const std::int64_t limit = args.get_int("limit", 0);
  if (limit < 0) {
    usage_error("tail: --limit must be >= 0 (0 = everything recorded), "
                "got " + std::to_string(limit));
  }
  std::ostringstream request;
  request << "{\"op\": \"tail\", \"limit\": " << limit << "}";
  const std::string response =
      query_over_socket(args.get("connect", ""), request.str());
  const JsonValue result = scrape_result(response, "tail");
  // One record per line: `--slow` streams the slow-query log, default
  // streams the recent-request ring (oldest first).
  for (const auto& record :
       result.at(args.has("slow") ? "slow" : "recent").items()) {
    write_json(std::cout, record);
    std::cout << "\n";
  }
  return 0;
#else
  usage_error("tail: needs a Unix platform");
#endif
}

/// A scheme from a verify/export target.  `file:<path>` and anything
/// that looks like a path (contains '/' or ends in .json) load an
/// fmm.scheme file; everything else goes through the registry.  Either
/// way the result has passed Brent verification.
bilinear::Scheme scheme_from_target(const std::string& target) {
  std::string path = target;
  bool is_file = bilinear::SchemeRegistry::is_file_key(target);
  if (is_file) {
    path = target.substr(5);
  } else if (target.find('/') != std::string::npos ||
             (target.size() > 5 &&
              target.compare(target.size() - 5, 5, ".json") == 0)) {
    is_file = true;
  }
  if (is_file) {
    return bilinear::load_scheme_file(path);
  }
  bilinear::Scheme scheme =
      bilinear::scheme_from_algorithm(sweep::resolve_algorithm(target));
  if (const auto violation = bilinear::verify_scheme(scheme)) {
    throw CheckError("scheme '" + target + "': " + *violation);
  }
  return scheme;
}

int cmd_scheme(const Args& args) {
  const auto usage = [] {
    std::fprintf(stderr,
                 "usage: fmmio scheme verify <name-or-file> [...]\n"
                 "       fmmio scheme export <name> [--name NEWNAME] "
                 "[--out scheme.json]\n");
    return 2;
  };
  if (args.positional.size() < 3) {
    return usage();
  }
  const std::string& action = args.positional[1];
  if (action == "verify") {
    bool all_ok = true;
    for (std::size_t i = 2; i < args.positional.size(); ++i) {
      const std::string& target = args.positional[i];
      try {
        const bilinear::Scheme scheme = scheme_from_target(target);
        const bilinear::SchemeTraits traits = bilinear::traits_of(scheme);
        std::printf(
            "%s: PASS  <%zu,%zu,%zu;%zu>  fingerprint=%s  omega0=%s  "
            "row-weights enc=%zu dec=%zu\n",
            target.c_str(), traits.n, traits.m, traits.p, traits.rank,
            traits.fingerprint.c_str(),
            traits.base >= 2 ? format_double(traits.omega0).c_str() : "-",
            traits.max_encoder_row_weight, traits.max_decoder_row_weight);
      } catch (const CheckError& e) {
        all_ok = false;
        std::printf("%s: FAIL  %s\n", target.c_str(), e.what());
      }
    }
    return all_ok ? 0 : 1;
  }
  if (action == "export") {
    bilinear::Scheme scheme;
    try {
      scheme = scheme_from_target(args.positional[2]);
    } catch (const CheckError& e) {
      usage_error(std::string("scheme export: ") + e.what());
    }
    if (args.has("name")) {
      scheme.name = args.get("name", scheme.name);
    }
    const std::string json = bilinear::scheme_to_json(scheme);
    const std::string out = args.get("out", "");
    if (out.empty()) {
      std::printf("%s\n", json.c_str());
      return 0;
    }
    std::ofstream file(out, std::ios::binary);
    file << json << "\n";
    if (!file.good()) {
      usage_error("scheme export: cannot write '" + out + "'");
    }
    file.close();
    std::printf("wrote %s (fingerprint %s)\n", out.c_str(),
                bilinear::scheme_fingerprint(scheme).c_str());
    return 0;
  }
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  if (args.positional.empty() && args.has("version")) {
    std::printf("%s\n", obs::build_info_line().c_str());
    return 0;
  }
  if (args.positional.empty()) {
    std::fprintf(stderr,
                 "usage: fmmio <list|certify|bounds|simulate|optimal|cdag|"
                 "parallel|sweep|serve|worker|router|query|metrics|tail|"
                 "scheme|version> [args]\n");
    return 2;
  }
  const std::string& command = args.positional[0];
  try {
    if (command == "list") return cmd_list();
    if (command == "certify") return cmd_certify(args);
    if (command == "bounds") return cmd_bounds(args);
    if (command == "simulate") return cmd_simulate(args);
    if (command == "optimal") return cmd_optimal(args);
    if (command == "cdag") return cmd_cdag(args);
    if (command == "parallel") return cmd_parallel(args);
    if (command == "sweep") return cmd_sweep(args);
    if (command == "serve") return cmd_serve(args);
    if (command == "worker") return cmd_worker(args);
    if (command == "router") return cmd_router(args);
    if (command == "query") return cmd_query(args);
    if (command == "metrics") return cmd_metrics(args);
    if (command == "tail") return cmd_tail(args);
    if (command == "scheme") return cmd_scheme(args);
    if (command == "version") {
      std::printf("%s\n", obs::build_info_line().c_str());
      return 0;
    }
  } catch (const fmm::CheckError& e) {
    FMM_LOG_ERROR(e.what());
    return 1;
  }
  FMM_LOG_ERROR("unknown command '" << command << "'");
  return 2;
}
