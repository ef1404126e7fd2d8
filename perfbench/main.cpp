// fmm_perfbench — the repository's layered benchmark.
//
//   fmm_perfbench --workload <sweep_grid|fabric_coldstart>
//                 --seed N --seconds S --trace 0|1
//                 [--root DIR] [--workdir DIR] [--commit SHA]
//   fmm_perfbench --list-metrics
//   fmm_perfbench --self-test
//
// With --trace 0 the run is timed with every tracer off and prints the
// end-to-end metrics; with --trace 1 it records the benchmark's own spans
// around calls into each library layer and prints the per-layer metrics.
// The last stdout line is one JSON object {"correct", "attempted",
// "failed", "metrics"}; the line before it carries the provenance (build,
// commit, seed, tracing state, sample counts).  A wrong output prints
// correct=false and exits 3.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "harness.hpp"
#include "obs/build_info.hpp"
#include "obs/trace.hpp"
#include "service/protocol.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},          {"wall_s", "s"},
      {"ops_per_s", "1/s"},      {"latency_p50_ms", "ms"},
      {"latency_p99_ms", "ms"},  {"within_slo_frac", "frac"},
      {"peak_rss_mb", "MiB"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d = {
        {"bilinear.resolve_ms", "ms"},
        {"cdag.build_ms", "ms"},
        {"cdag.builds", "count"},
        {"cdag.build_ns_per_vertex", "ns"},
        {"snapshot.load_ms", "ms"},
        {"snapshot.loads", "count"},
        {"snapshot.load_ns_per_byte", "ns"},
        {"pebble.schedule_ms", "ms"},
        {"pebble.lru_ns_per_access", "ns"},
        {"pebble.belady_ns_per_access", "ns"},
        {"pebble.accesses", "count"},
        {"pebble.io", "count"},
        {"pebble.liveness_ms", "ms"},
        {"pebble.optimal_ms", "ms"},
        {"pebble.optimal_states", "count"},
        {"sweep.parallel_efficiency", "frac"},
        {"sweep.row_render_us", "us"},
        {"service.parse_us", "us"},
        {"service.hit_us", "us"},
        {"service.cache_hit_ratio", "frac"},
        {"service.rejected", "count"},
        {"fabric.hop_us", "us"},
        {"fabric.requeues", "count"},
        {"obs.tracer_overhead_frac_1t", "frac"},
        {"obs.tracer_overhead_frac_4t", "frac"},
        {"bench.trace_overhead_frac", "frac"},
        {"bench.latency_samples", "count"},
        {"failed_frac", "frac"},
    };
    static const std::vector<std::string> self_names = [] {
      std::vector<std::string> names;
      for (const std::string& layer : reported_layers()) {
        names.push_back(layer + ".self_ms");
      }
      return names;
    }();
    for (const std::string& name : self_names) {
      d.push_back({name.c_str(), "ms"});
    }
    return d;
  }();
  return defs;
}

std::string number(double value) {
  if (!std::isfinite(value)) {
    return "null";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string list_metrics_json() {
  std::ostringstream os;
  const auto emit = [&](const std::vector<MetricDef>& defs) {
    os << "[";
    for (std::size_t i = 0; i < defs.size(); ++i) {
      os << (i == 0 ? "" : ", ") << "{\"name\": " << quoted(defs[i].name)
         << ", \"unit\": " << quoted(defs[i].unit) << "}";
    }
    os << "]";
  };
  os << "{\"end_to_end\": ";
  emit(end_to_end_metrics());
  os << ", \"per_layer\": ";
  emit(per_layer_metrics());
  os << "}";
  return os.str();
}

int usage(const std::string& problem) {
  std::cerr << "fmm_perfbench: " << problem
            << "\nusage: fmm_perfbench --workload "
               "<sweep_grid|fabric_coldstart> --seed N --seconds S "
               "--trace 0|1 [--root DIR] [--workdir DIR] [--commit SHA]\n"
               "       fmm_perfbench --list-metrics | --self-test\n";
  return 2;
}

// --- Self-test --------------------------------------------------------------

int self_test() {
  int failures = 0;
  const auto expect = [&](bool ok, const std::string& what) {
    if (!ok) {
      std::cerr << "self-test FAILED: " << what << "\n";
      ++failures;
    }
  };

  // Generators are deterministic per seed and differ across seeds.
  const std::string lad = laderman_key(".");
  for (const std::uint64_t seed : {1u, 2u, 99u}) {
    const auto a = fabric_session_bodies(seed, 3);
    expect(a == fabric_session_bodies(seed, 3),
           "fabric session repeats for one seed");
    expect(std::set<std::string>(a.begin(), a.end()).size() == a.size(),
           "fabric session requests are distinct");
    expect(a != fabric_session_bodies(seed, 4), "fabric sessions differ");
    const auto specs = sweep_grid_specs(lad, seed);
    const auto again = sweep_grid_specs(lad, seed);
    expect(specs.size() == 4, "sweep grid has one spec per base and policy");
    for (std::size_t i = 0; i < specs.size() && i < again.size(); ++i) {
      expect(fmm::sweep::spec_fingerprint(specs[i]) ==
                 fmm::sweep::spec_fingerprint(again[i]),
             "sweep grid repeats for one seed");
      expect(specs[i].algorithms.size() == 1,
             "sweep grid keeps one scheme base per spec");
    }
  }

  // Self-time arithmetic: overlapping children are covered once, a child
  // running past its parent is clipped, grandchildren subtract from
  // their own parent only.
  const auto span = [](std::uint64_t id, std::uint64_t parent,
                       const char* name, std::int64_t start,
                       std::int64_t end) {
    SpanRecord s;
    s.id = id;
    s.parent = parent;
    s.name = name;
    s.start_ns = start;
    s.end_ns = end;
    return s;
  };
  const std::vector<SpanRecord> tree = {
      span(1, 0, "sweep.run", 0, 100),
      span(2, 1, "pebble.simulate_lru", 10, 40),
      span(3, 1, "pebble.liveness", 30, 70),
      span(4, 2, "sweep.row_render", 20, 25),
      span(5, 1, "cdag.build", 90, 120),
  };
  const std::vector<std::int64_t> self = self_times_ns(tree);
  expect(self == std::vector<std::int64_t>({30, 25, 40, 5, 30}),
         "self times of the synthetic tree");
  const SpanTotals totals = summarize(tree);
  expect(totals.self_ns_by_layer.at("sweep") == 35 &&
             totals.self_ns_by_layer.at("pebble") == 65 &&
             totals.self_ns_by_layer.at("cdag") == 30,
         "self times by layer");
  expect(layer_of("pebble.simulate_lru") == "pebble", "layer_of");

  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) {
    hundred.push_back(i);
  }
  expect(percentile(hundred, 0.5) == 50 && percentile(hundred, 0.99) == 99 &&
             median(hundred) == 50.5,
         "percentile arithmetic");
  expect(strip_id("{\"id\": 12, \"ok\": true}") == "{\"ok\": true}" &&
             strip_id("{\"id\": null, \"ok\": true}") == "{\"ok\": true}",
         "strip_id");
  expect(result_of("{\"id\": 1, \"ok\": true, \"op\": \"cdag\", \"result\": "
                   "{\"n\": 4}}") == "{\"n\": 4}",
         "result_of");
  if (failures == 0) {
    std::cout << "self-test passed\n";
  }
  return failures == 0 ? 0 : 1;
}

// --- Benchmark run ------------------------------------------------------------

int run(const Options& options, const std::string& commit) {
  // Timed runs measure the work, not the tracer: never enable it, and
  // refuse to start if something already did.
  require_tracer_off();
  std::filesystem::create_directories(options.workdir);

  Outcome outcome;
  if (options.workload == "sweep_grid") {
    outcome = run_sweep_grid(options);
  } else {
    outcome = run_fabric_coldstart(options);
  }
  const bool tracer_on_at_end = fmm::obs::Tracer::instance().enabled();
  if (tracer_on_at_end) {
    outcome.fail("the library tracer was left on");
  }
  if (outcome.attempted < 1) {
    outcome.fail("no operation was attempted");
    outcome.attempted = 1;
  }
  Metrics& m = outcome.metrics;
  m["peak_rss_mb"] = peak_rss_mb();
  m["failed_frac"] = static_cast<double>(outcome.failed) /
                     static_cast<double>(outcome.attempted);

  const std::vector<MetricDef>& printed =
      options.trace ? per_layer_metrics() : end_to_end_metrics();
  std::set<std::string> printed_names;
  std::ostringstream metrics;
  metrics << "{";
  for (std::size_t i = 0; i < printed.size(); ++i) {
    printed_names.insert(printed[i].name);
    const auto it = m.find(printed[i].name);
    const double value = it == m.end() ? 0.0 : it->second;
    if (!std::isfinite(value)) {
      outcome.fail(std::string("metric ") + printed[i].name + " is not finite");
    }
    metrics << (i == 0 ? "" : ", ") << quoted(printed[i].name)
            << ": {\"value\": " << number(std::isfinite(value) ? value : 0.0)
            << ", \"unit\": " << quoted(printed[i].unit) << "}";
  }
  metrics << "}";

  std::ostringstream provenance;
  provenance << "{\"provenance\": {\"workload\": " << quoted(options.workload)
             << ", \"seed\": " << options.seed
             << ", \"seconds\": " << number(options.seconds)
             << ", \"trace\": " << (options.trace ? "true" : "false")
             << ", \"commit\": " << quoted(commit)
             << ", \"build\": " << fmm::obs::build_info_json()
             << ", \"library_tracer_enabled\": "
             << (tracer_on_at_end ? "true" : "false") << ", \"other\": {";
  bool first = true;
  for (const auto& [name, value] : m) {
    if (printed_names.count(name) == 0) {
      provenance << (first ? "" : ", ") << quoted(name) << ": "
                 << number(value);
      first = false;
    }
  }
  provenance << "}, \"problems\": [";
  for (std::size_t i = 0; i < outcome.problems.size(); ++i) {
    provenance << (i == 0 ? "" : ", ") << quoted(outcome.problems[i]);
  }
  provenance << "]}}";

  const bool correct = outcome.failed == 0;
  std::ostringstream result;
  result << "{\"correct\": " << (correct ? "true" : "false")
         << ", \"attempted\": " << outcome.attempted
         << ", \"failed\": " << outcome.failed
         << ", \"metrics\": " << metrics.str() << "}";

  std::ofstream log(options.workdir + "/results.jsonl", std::ios::app);
  log << provenance.str() << "\n" << result.str() << "\n";
  for (const std::string& problem : outcome.problems) {
    std::cerr << "fmm_perfbench: " << problem << "\n";
  }
  std::cout << provenance.str() << "\n" << result.str() << std::endl;
  return correct ? 0 : 3;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using perfbench::usage;
  perfbench::Options options;
  std::string commit = "unknown";
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-metrics") {
      std::cout << perfbench::list_metrics_json() << "\n";
      return 0;
    }
    if (arg == "--self-test") {
      return perfbench::self_test();
    }
    if (i + 1 >= argc) {
      return usage("missing value for " + arg);
    }
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
        have_seed = true;
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
        have_seconds = true;
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") {
          return usage("--trace takes 0 or 1");
        }
        options.trace = value == "1";
        have_trace = true;
      } else if (arg == "--root") {
        options.root = value;
      } else if (arg == "--workdir") {
        options.workdir = value;
      } else if (arg == "--commit") {
        commit = value;
      } else {
        return usage("unknown argument " + arg);
      }
    } catch (const std::exception&) {
      return usage("bad value for " + arg + ": " + value);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return usage("--workload, --seed, --seconds and --trace are required");
  }
  if (options.workload != "sweep_grid" &&
      options.workload != "fabric_coldstart") {
    return usage("unknown workload " + options.workload);
  }
  if (!(options.seconds > 0.0)) {
    return usage("--seconds must be positive");
  }
  options.root = std::filesystem::absolute(options.root).string();
  options.workdir = std::filesystem::absolute(options.workdir).string();
  try {
    return perfbench::run(options, commit);
  } catch (const perfbench::TracingOnError& e) {
    std::cerr << "fmm_perfbench: " << e.what() << "\n";
    return 4;
  } catch (const std::exception& e) {
    std::cerr << "fmm_perfbench: " << e.what() << "\n";
    return 1;
  }
}
