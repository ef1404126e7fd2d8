// Shared pieces of the layered benchmark: options, outcome, seeded
// generators, percentile arithmetic, the line streams that drive
// fabric::Router::serve, registry deltas, the tracer guard, and the layer
// replay the traced run uses to time the library's layers one public call
// at a time.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <map>
#include <mutex>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <vector>

#include "cdag/cdag.hpp"
#include "spans.hpp"
#include "sweep/sweep.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string root = ".";     // checkout root (holds schemes/)
  std::string workdir = ".";  // scratch directory inside the checkout
};

/// Metric values by name; units live in the catalog (metrics.cpp).
using Metrics = std::map<std::string, double>;

struct Outcome {
  Metrics metrics;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> problems;  // first few failure descriptions

  /// Records one failed or wrong operation.
  void fail(const std::string& what);
};

/// Raised by the tracer guard; main() turns it into a refusal to time.
class TracingOnError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// --- Seeded generation ----------------------------------------------------

/// SplitMix64 stream: the only randomness the generators use, so a seed
/// gives the same inputs on every platform.
class SeedStream {
 public:
  explicit SeedStream(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, bound).
  std::size_t below(std::size_t bound);

 private:
  std::uint64_t state_;
};

/// Fisher–Yates permutation of 0..n-1.
std::vector<std::size_t> permutation(std::size_t n, SeedStream& rng);

// --- Statistics -----------------------------------------------------------

/// Nearest-rank percentile (q in [0, 1]) of `values`; 0 when empty.
double percentile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// Peak resident set size of this process in MiB.
double peak_rss_mb();

/// Runs `setup` `reps` times and returns the median wall time in seconds.
double median_setup_s(int reps, const std::function<void()>& setup);

// --- Program state guards ---------------------------------------------------

/// Throws TracingOnError if the library tracer is recording.  Called
/// before every timed unit: timed runs measure the work, not the tracer.
void require_tracer_off();

/// Counter/gauge values of obs::Registry (process-wide, so callers take
/// deltas across one unit of work).
std::map<std::string, std::int64_t> registry_values();
std::int64_t registry_delta(const std::map<std::string, std::int64_t>& before,
                            const std::map<std::string, std::int64_t>& after,
                            const std::string& name);

// --- Driving NDJSON sessions ------------------------------------------------

/// Blocking line source for an istream: reads wait until the generator
/// pushes the next line; close() ends the stream (EOF).
class LineFeed : public std::streambuf {
 public:
  void push(const std::string& line);
  void close();

 protected:
  int_type underflow() override;

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::string> lines_;
  bool closed_ = false;
  std::string current_;
};

/// Line sink for an ostream: every completed line is handed to the
/// callback with the steady-clock time its newline was written.
class LineSink : public std::streambuf {
 public:
  using Callback = std::function<void(std::string, std::int64_t)>;
  explicit LineSink(Callback callback) : callback_(std::move(callback)) {}

 protected:
  int_type overflow(int_type ch) override;
  std::streamsize xsputn(const char* s, std::streamsize n) override;

 private:
  Callback callback_;
  std::string partial_;
};

struct SessionTimes {
  std::vector<std::int64_t> sent_ns;  // when the loop handed each line over
  std::vector<std::int64_t> done_ns;  // when its response line was written
  std::vector<std::string> responses;
};

/// Feeds `lines` into `serve` as a closed loop with at most `window`
/// lines outstanding, and collects the in-order responses.
SessionTimes drive_session(
    const std::function<void(std::istream&, std::ostream&)>& serve,
    const std::vector<std::string>& lines, std::size_t window);

/// `{"id": 7, "ok": ...}` -> `{"ok": ...}`; `{"id": null, ...}` likewise.
std::string strip_id(const std::string& response);
/// The "result" object of an ok response ("" when there is none).
std::string result_of(const std::string& response);
/// `{"id": <id>, ` + body, where body is `"op": ...}`.
std::string with_id(std::int64_t id, const std::string& body);

// --- Layers ---------------------------------------------------------------

/// Median milliseconds to resolve `keys` from scratch through the
/// uncached public bilinear calls (catalog constructors, or scheme file
/// load + Brent verification, then traits), as a fresh process does.
double cold_resolve_ms(const std::vector<std::string>& keys, int reps);

/// Work counts the replay accumulates alongside its spans.
struct ReplayCounts {
  std::int64_t lru_accesses = 0;
  std::int64_t belady_accesses = 0;
  std::int64_t io = 0;  // loads + stores over every simulation
  std::int64_t optimal_states = 0;
  std::int64_t builds = 0;
  std::int64_t built_vertices = 0;
  std::int64_t loads = 0;
  std::int64_t loaded_bytes = 0;
};

/// Re-executes sweep cells and service queries one public layer call at
/// a time (resolve, build or load, schedule, simulate, liveness,
/// optimal, render), each inside a span, producing the same bytes the
/// library's composite calls produce.
class LayerReplay {
 public:
  explicit LayerReplay(SpanRecorder& recorder) : recorder_(recorder) {}

  /// The sweep task row run_task + task_row_json would give (DFS
  /// schedule, standard write-back only).
  std::string cell_row(const fmm::sweep::TaskCell& cell,
                       const fmm::sweep::SweepSpec& spec,
                       const fmm::cdag::Cdag& cdag);

  /// cdag::build_cdag inside a cdag.build span.
  fmm::cdag::Cdag build(const std::string& algorithm, std::size_t n);

  /// The result object of a compute request body (`"op": ...}`), given
  /// a CDAG source for CDAG-shaped ops; bound ops return "" (evaluated
  /// but not rendered).
  std::string query_result(
      const std::string& body,
      const std::function<const fmm::cdag::Cdag&(const std::string&,
                                                 std::size_t)>& cdags);

  /// Thread-safe snapshot of the counts.
  ReplayCounts counts() const;
  void add_load(std::int64_t bytes);

 private:
  SpanRecorder& recorder_;
  mutable std::mutex mutex_;
  ReplayCounts counts_;
};

/// A recorder and the replay that records into it.
struct TracedReplay {
  SpanRecorder recorder{true};
  LayerReplay replay{recorder};
};

/// Per-layer metrics derived from a traced run's spans and the replay's
/// work counts: build/load/kernel/render times and rates, plus each
/// layer's total self time (<layer>.self_ms).
void add_span_metrics(const std::vector<SpanRecord>& spans,
                      const ReplayCounts& counts, Metrics& metrics);

/// Writes raw latency samples, one per line, to
/// <workdir>/latency-<workload>-<seed>.txt for later inspection.
void write_latencies(const Options& options, const std::vector<double>& ms);

/// Writes the recorder's spans to <workdir>/trace-<workload>-<seed>.json.
void write_trace(const Options& options, const SpanRecorder& recorder);

/// Layers whose self time is reported, in report order.
const std::vector<std::string>& reported_layers();

}  // namespace perfbench
