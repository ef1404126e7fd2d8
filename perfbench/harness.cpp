#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <thread>

#include "bilinear/catalog.hpp"
#include "bilinear/scheme.hpp"
#include "bounds/formulas.hpp"
#include "cdag/builder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pebble/liveness.hpp"
#include "pebble/machine.hpp"
#include "pebble/optimal.hpp"
#include "pebble/schedules.hpp"
#include "service/cache.hpp"
#include "service/protocol.hpp"

namespace perfbench {

namespace sweep = fmm::sweep;
namespace pebble = fmm::pebble;

void Outcome::fail(const std::string& what) {
  ++failed;
  if (problems.size() < 8) {
    problems.push_back(what);
  }
}

// --- Seeded generation ----------------------------------------------------

std::uint64_t SeedStream::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::size_t SeedStream::below(std::size_t bound) {
  return static_cast<std::size_t>(next() % bound);
}

std::vector<std::size_t> permutation(std::size_t n, SeedStream& rng) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) {
    order[i] = i;
  }
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }
  return order;
}

// --- Statistics -----------------------------------------------------------

double percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double median_setup_s(int reps, const std::function<void()>& setup) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    const std::int64_t start = now_ns();
    setup();
    times.push_back(static_cast<double>(now_ns() - start) * 1e-9);
  }
  return median(times);
}

// --- Program state guards ---------------------------------------------------

void require_tracer_off() {
  if (fmm::obs::Tracer::instance().enabled()) {
    throw TracingOnError(
        "the library tracer is recording; refusing to time with it on");
  }
}

std::map<std::string, std::int64_t> registry_values() {
  std::map<std::string, std::int64_t> values;
  for (const auto& [name, value] :
       fmm::obs::Registry::instance().snapshot()) {
    values[name] = value;
  }
  return values;
}

std::int64_t registry_delta(const std::map<std::string, std::int64_t>& before,
                            const std::map<std::string, std::int64_t>& after,
                            const std::string& name) {
  const auto b = before.find(name);
  const auto a = after.find(name);
  return (a == after.end() ? 0 : a->second) -
         (b == before.end() ? 0 : b->second);
}

// --- Driving NDJSON sessions ------------------------------------------------

void LineFeed::push(const std::string& line) {
  {
    const std::scoped_lock lock(mutex_);
    lines_.push_back(line + '\n');
  }
  cv_.notify_one();
}

void LineFeed::close() {
  {
    const std::scoped_lock lock(mutex_);
    closed_ = true;
  }
  cv_.notify_all();
}

LineFeed::int_type LineFeed::underflow() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [&] { return !lines_.empty() || closed_; });
  if (lines_.empty()) {
    return traits_type::eof();
  }
  current_ = std::move(lines_.front());
  lines_.pop_front();
  setg(current_.data(), current_.data(), current_.data() + current_.size());
  return traits_type::to_int_type(current_[0]);
}

LineSink::int_type LineSink::overflow(int_type ch) {
  if (traits_type::eq_int_type(ch, traits_type::eof())) {
    return traits_type::not_eof(ch);
  }
  const char c = traits_type::to_char_type(ch);
  xsputn(&c, 1);
  return ch;
}

std::streamsize LineSink::xsputn(const char* s, std::streamsize n) {
  for (std::streamsize i = 0; i < n; ++i) {
    if (s[i] == '\n') {
      callback_(std::move(partial_), now_ns());
      partial_.clear();
    } else {
      partial_.push_back(s[i]);
    }
  }
  return n;
}

SessionTimes drive_session(
    const std::function<void(std::istream&, std::ostream&)>& serve,
    const std::vector<std::string>& lines, std::size_t window) {
  SessionTimes times;
  times.sent_ns.assign(lines.size(), 0);
  times.done_ns.reserve(lines.size());
  times.responses.reserve(lines.size());

  std::mutex mutex;  // guards times.responses, times.done_ns, abandon
  std::condition_variable refill;
  bool abandon = false;
  LineSink sink([&](std::string line, std::int64_t t) {
    {
      const std::scoped_lock lock(mutex);
      times.responses.push_back(std::move(line));
      times.done_ns.push_back(t);
    }
    refill.notify_all();
  });
  const auto stop_generator = [&] {
    {
      const std::scoped_lock lock(mutex);
      abandon = true;
    }
    refill.notify_all();
  };
  LineFeed feed;
  std::istream in(&feed);
  std::ostream out(&sink);

  std::thread generator([&] {
    for (std::size_t i = 0; i < lines.size(); ++i) {
      {
        std::unique_lock<std::mutex> lock(mutex);
        refill.wait(lock, [&] {
          return abandon || times.responses.size() + window > i;
        });
        if (abandon) {
          break;
        }
      }
      times.sent_ns[i] = now_ns();
      feed.push(lines[i]);
    }
    feed.close();
  });
  try {
    serve(in, out);
  } catch (...) {
    stop_generator();
    feed.close();
    generator.join();
    throw;
  }
  // serve() returned: nothing more will be answered.
  stop_generator();
  generator.join();
  return times;
}

std::string strip_id(const std::string& response) {
  const std::string prefix = "{\"id\": ";
  if (response.compare(0, prefix.size(), prefix) != 0) {
    return response;
  }
  const std::size_t comma = response.find(", ", prefix.size());
  if (comma == std::string::npos) {
    return response;
  }
  std::string stripped = "{";
  stripped.append(response, comma + 2, std::string::npos);
  return stripped;
}

std::string result_of(const std::string& response) {
  const std::string key = "\"result\": ";
  const std::size_t at = response.find(key);
  if (at == std::string::npos || response.empty() || response.back() != '}') {
    return "";
  }
  const std::size_t begin = at + key.size();
  return response.substr(begin, response.size() - 1 - begin);
}

std::string with_id(std::int64_t id, const std::string& body) {
  return "{\"id\": " + std::to_string(id) + ", " + body;
}

// --- Layers ---------------------------------------------------------------

namespace {

fmm::bilinear::BilinearAlgorithm catalog_algorithm(const std::string& key) {
  if (key == "strassen") return fmm::bilinear::strassen();
  if (key == "winograd") return fmm::bilinear::winograd();
  if (key == "strassen-dual") return fmm::bilinear::strassen_transposed();
  if (key == "winograd-dual") return fmm::bilinear::winograd_transposed();
  throw std::runtime_error("cold_resolve_ms: no catalog entry for " + key);
}

}  // namespace

double cold_resolve_ms(const std::vector<std::string>& keys, int reps) {
  std::vector<double> times;
  std::size_t sink = 0;
  for (int r = 0; r < reps; ++r) {
    const std::int64_t start = now_ns();
    for (const std::string& key : keys) {
      const fmm::bilinear::BilinearAlgorithm alg =
          fmm::bilinear::SchemeRegistry::is_file_key(key)
              ? fmm::bilinear::to_algorithm(
                    fmm::bilinear::load_scheme_file(key.substr(5)))
              : catalog_algorithm(key);
      sink += fmm::bilinear::traits_of(fmm::bilinear::scheme_from_algorithm(alg))
                  .fingerprint.size();
    }
    times.push_back(static_cast<double>(now_ns() - start) * 1e-6);
  }
  if (sink == 0) {
    throw std::runtime_error("cold_resolve_ms: empty fingerprints");
  }
  return median(times);
}

std::string LayerReplay::cell_row(const sweep::TaskCell& cell,
                                  const sweep::SweepSpec& spec,
                                  const fmm::cdag::Cdag& cdag) {
  if (spec.schedule != sweep::SchedulePolicy::kDfs ||
      (spec.remat && cell.kind != sweep::TaskKind::kOptimal)) {
    throw std::runtime_error("LayerReplay: only DFS, standard write-back");
  }
  sweep::TaskResult row;
  row.cell = cell;
  fmm::bilinear::SchemeTraits traits;
  {
    const Span span(recorder_, "bilinear.resolve", cell.index);
    traits = sweep::resolve_traits(cell.algorithm);
  }
  row.scheme_name = traits.name;
  row.scheme_fingerprint = traits.fingerprint;
  row.omega0 = traits.omega0;
  ReplayCounts local;
  const auto schedule = [&] {
    const Span span(recorder_, "pebble.schedule", cell.index);
    return pebble::dfs_schedule(cdag);
  };
  switch (cell.kind) {
    case sweep::TaskKind::kSimulate:
    case sweep::TaskKind::kBoundCheck: {
      const auto order = schedule();
      pebble::SimOptions options;
      options.cache_size = cell.m;
      options.replacement = spec.replacement;
      const bool lru = spec.replacement == pebble::ReplacementPolicy::kLru;
      pebble::SimResult sim;
      {
        const Span span(recorder_,
                        lru ? "pebble.simulate_lru" : "pebble.simulate_belady",
                        cell.index);
        sim = pebble::simulate(cdag, order, options);
      }
      const auto accesses =
          static_cast<std::int64_t>(cdag.graph.num_edges());
      (lru ? local.lru_accesses : local.belady_accesses) += accesses;
      local.io += sim.total_io();
      row.loads = sim.loads;
      row.stores = sim.stores;
      row.total_io = sim.total_io();
      row.weighted_io = sim.weighted_io;
      row.computations = sim.computations;
      row.recomputations = sim.recomputations;
      if (cell.kind == sweep::TaskKind::kBoundCheck) {
        const Span span(recorder_, "bounds.lower_bound", cell.index);
        row.lower_bound = fmm::bounds::fast_memory_dependent(
            fmm::bounds::mm_params_from_ints(
                static_cast<std::int64_t>(cell.n), cell.m),
            traits);
        row.bound_ratio = row.lower_bound == 0.0
                              ? 0.0
                              : static_cast<double>(sim.total_io()) /
                                    row.lower_bound;
        row.bound_holds = static_cast<double>(sim.total_io()) >=
                          row.lower_bound / sweep::kBoundSlack;
      }
      break;
    }
    case sweep::TaskKind::kLiveness: {
      const auto order = schedule();
      const Span span(recorder_, "pebble.liveness", cell.index);
      row.liveness_peak = static_cast<std::int64_t>(
          pebble::liveness_profile(cdag, order).peak);
      break;
    }
    case sweep::TaskKind::kOptimal: {
      pebble::OptimalPebbleOptions options;
      options.cache_size = cell.m;
      options.allow_recomputation = spec.remat;
      double floor_bound = 0.0;
      if (traits.base >= 2) {
        const Span span(recorder_, "bounds.lower_bound", cell.index);
        floor_bound = std::ceil(
            fmm::bounds::fast_memory_dependent(
                fmm::bounds::mm_params_from_ints(
                    static_cast<std::int64_t>(cell.n), cell.m),
                traits) /
            sweep::kBoundSlack);
        options.root_lower_bound = static_cast<std::int64_t>(floor_bound);
      }
      try {
        const Span span(recorder_, "pebble.optimal", cell.index);
        const pebble::OptimalPebbleResult opt =
            pebble::optimal_io(pebble::to_instance(cdag), options);
        row.min_io = opt.min_io;
        row.states_explored = static_cast<std::int64_t>(opt.states_explored);
        row.optimality = pebble::optimality_name(opt.optimality);
        row.lower_bound = floor_bound;
        row.bound_holds = static_cast<double>(opt.min_io) >= floor_bound;
        local.optimal_states += row.states_explored;
      } catch (const pebble::InfeasibleError&) {
        row.skipped = true;
        row.skip_reason = "infeasible";
      }
      break;
    }
    case sweep::TaskKind::kDominator:
      throw std::runtime_error("LayerReplay: dominator cells not replayed");
  }
  row.ok = true;
  std::string rendered;
  {
    const Span span(recorder_, "sweep.row_render", cell.index);
    rendered = sweep::task_row_json(row);
  }
  const std::scoped_lock lock(mutex_);
  counts_.lru_accesses += local.lru_accesses;
  counts_.belady_accesses += local.belady_accesses;
  counts_.io += local.io;
  counts_.optimal_states += local.optimal_states;
  return rendered;
}

fmm::cdag::Cdag LayerReplay::build(const std::string& algorithm,
                                   std::size_t n) {
  const fmm::bilinear::BilinearAlgorithm alg = [&] {
    const Span span(recorder_, "bilinear.resolve");
    return sweep::resolve_algorithm(algorithm);
  }();
  fmm::cdag::Cdag cdag = [&] {
    const Span span(recorder_, "cdag.build");
    return fmm::cdag::build_cdag(alg, n);
  }();
  const std::scoped_lock lock(mutex_);
  ++counts_.builds;
  counts_.built_vertices +=
      static_cast<std::int64_t>(cdag.graph.num_vertices());
  return cdag;
}

std::string LayerReplay::query_result(
    const std::string& body,
    const std::function<const fmm::cdag::Cdag&(const std::string&,
                                               std::size_t)>& cdags) {
  namespace service = fmm::service;
  const service::Request request = service::parse_request("{" + body);
  switch (request.op) {
    case service::Op::kBound: {
      const Span span(recorder_, "bounds.eval");
      const fmm::bounds::MmParams params{static_cast<double>(request.n),
                                         static_cast<double>(request.m),
                                         static_cast<double>(request.p)};
      const double omega0 = std::log2(7.0);
      volatile double sink = fmm::bounds::classic_memory_dependent(params) +
                             fmm::bounds::fast_parallel_bound(params, omega0);
      (void)sink;
      return "";
    }
    case service::Op::kCdag: {
      const fmm::cdag::Cdag& cdag = cdags(request.algorithm, request.n);
      const Span span(recorder_, "service.render");
      std::ostringstream os;
      os << "{\"algorithm\": \"" << cdag.algorithm_name << "\""
         << ", \"n\": " << cdag.n
         << ", \"vertices\": " << cdag.graph.num_vertices()
         << ", \"edges\": " << cdag.graph.num_edges()
         << ", \"memory_bytes\": " << service::cdag_memory_bytes(cdag)
         << ", \"roles\": {";
      bool first = true;
      for (const auto& [role, count] : cdag.role_histogram()) {
        os << (first ? "" : ", ") << "\"" << fmm::cdag::role_name(role)
           << "\": " << count;
        first = false;
      }
      os << "}, \"subproblem_levels\": [";
      for (std::size_t i = 0; i < cdag.subproblem_levels.size(); ++i) {
        const fmm::cdag::SubproblemLevel& level = cdag.subproblem_levels[i];
        os << (i == 0 ? "" : ", ") << "{\"r\": " << level.r
           << ", \"count\": " << level.count << "}";
      }
      os << "]}";
      return os.str();
    }
    case service::Op::kSimulate:
    case service::Op::kLiveness:
    case service::Op::kOptimal: {
      // The one-cell spec the service builds for these ops.
      sweep::SweepSpec spec;
      spec.algorithms = {request.algorithm};
      spec.n_grid = {request.n};
      spec.m_grid = {request.m};
      spec.kinds = {request.op == service::Op::kLiveness
                        ? sweep::TaskKind::kLiveness
                    : request.op == service::Op::kOptimal
                        ? sweep::TaskKind::kOptimal
                        : sweep::TaskKind::kSimulate};
      if (request.op == service::Op::kSimulate && request.policy == "opt") {
        spec.replacement = pebble::ReplacementPolicy::kBelady;
      }
      spec.remat = request.remat;
      spec.base_seed = request.seed;
      const std::vector<sweep::TaskCell> cells = sweep::enumerate_tasks(spec);
      return cell_row(cells.at(0), spec, cdags(request.algorithm, request.n));
    }
    default:
      throw std::runtime_error("LayerReplay: not a compute op: " + body);
  }
}

ReplayCounts LayerReplay::counts() const {
  const std::scoped_lock lock(mutex_);
  return counts_;
}

void LayerReplay::add_load(std::int64_t bytes) {
  const std::scoped_lock lock(mutex_);
  ++counts_.loads;
  counts_.loaded_bytes += bytes;
}

void write_latencies(const Options& options, const std::vector<double>& ms) {
  const std::string path = options.workdir + "/latency-" + options.workload +
                           "-" + std::to_string(options.seed) + ".txt";
  std::ofstream out(path);
  for (const double value : ms) {
    out << value << "\n";
  }
  if (!out) {
    throw std::runtime_error("cannot write latencies " + path);
  }
}

void write_trace(const Options& options, const SpanRecorder& recorder) {
  const std::string path = options.workdir + "/trace-" + options.workload +
                           "-" + std::to_string(options.seed) + ".json";
  std::ofstream out(path);
  out << recorder.to_json();
  if (!out) {
    throw std::runtime_error("cannot write span trace " + path);
  }
}

const std::vector<std::string>& reported_layers() {
  static const std::vector<std::string> layers = {
      "bilinear", "cdag",    "snapshot", "pebble", "bounds",
      "sweep",    "service", "fabric",   "bench"};
  return layers;
}

void add_span_metrics(const std::vector<SpanRecord>& spans,
                      const ReplayCounts& counts, Metrics& metrics) {
  const SpanTotals totals = summarize(spans);
  const auto duration_ns = [&](const std::string& name) {
    const auto it = totals.duration_ns_by_name.find(name);
    return it == totals.duration_ns_by_name.end()
               ? 0.0
               : static_cast<double>(it->second);
  };
  const auto count = [&](const std::string& name) {
    const auto it = totals.count_by_name.find(name);
    return it == totals.count_by_name.end()
               ? 0.0
               : static_cast<double>(it->second);
  };
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  metrics["cdag.build_ms"] = duration_ns("cdag.build") * 1e-6;
  metrics["cdag.builds"] = static_cast<double>(counts.builds);
  metrics["cdag.build_ns_per_vertex"] = ratio(
      duration_ns("cdag.build"), static_cast<double>(counts.built_vertices));
  metrics["snapshot.load_ms"] = duration_ns("snapshot.load") * 1e-6;
  metrics["snapshot.loads"] = static_cast<double>(counts.loads);
  metrics["snapshot.load_ns_per_byte"] = ratio(
      duration_ns("snapshot.load"), static_cast<double>(counts.loaded_bytes));
  metrics["pebble.schedule_ms"] = duration_ns("pebble.schedule") * 1e-6;
  metrics["pebble.lru_ns_per_access"] =
      ratio(duration_ns("pebble.simulate_lru"),
            static_cast<double>(counts.lru_accesses));
  metrics["pebble.belady_ns_per_access"] =
      ratio(duration_ns("pebble.simulate_belady"),
            static_cast<double>(counts.belady_accesses));
  metrics["pebble.accesses"] =
      static_cast<double>(counts.lru_accesses + counts.belady_accesses);
  metrics["pebble.io"] = static_cast<double>(counts.io);
  metrics["pebble.liveness_ms"] = duration_ns("pebble.liveness") * 1e-6;
  metrics["pebble.optimal_ms"] = duration_ns("pebble.optimal") * 1e-6;
  metrics["pebble.optimal_states"] = static_cast<double>(counts.optimal_states);
  metrics["sweep.row_render_us"] =
      ratio(duration_ns("sweep.row_render") * 1e-3, count("sweep.row_render"));
  for (const std::string& layer : reported_layers()) {
    const auto it = totals.self_ns_by_layer.find(layer);
    metrics[layer + ".self_ms"] =
        it == totals.self_ns_by_layer.end()
            ? 0.0
            : static_cast<double>(it->second) * 1e-6;
  }
}

}  // namespace perfbench
