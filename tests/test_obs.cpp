// Tests for the observability subsystem: metrics registry, Chrome
// trace-event tracer, run-report JSON writer, and their wiring into the
// pebble machine.  The suite is written to pass under BOTH compile modes
// of FMM_ENABLE_TRACING — the disabled-mode assertions (#else branches)
// check that tracing off means literally zero events and unchanged
// simulator behavior.
#include <gtest/gtest.h>

#include <cctype>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "bilinear/catalog.hpp"
#include "cdag/builder.hpp"
#include "common/timing.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "obs/trace.hpp"
#include "pebble/machine.hpp"
#include "pebble/schedules.hpp"

namespace fmm::obs {
namespace {

// --- Minimal recursive-descent JSON validator -------------------------
//
// Just enough JSON to assert that the artifacts we emit parse: objects,
// arrays, strings with escapes, numbers, true/false/null.  Returns true
// iff the whole input is exactly one valid JSON value.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) {
      return false;
    }
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) {
      return false;
    }
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (!string()) {
        return false;
      }
      skip_ws();
      if (peek() != ':') {
        return false;
      }
      ++pos_;
      skip_ws();
      if (!value()) {
        return false;
      }
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (!value()) {
        return false;
      }
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') {
      return false;
    }
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') {
      ++pos_;
    }
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start + (s_[start] == '-' ? 1u : 0u);
  }

  bool literal(const char* word) {
    const std::string w(word);
    if (s_.compare(pos_, w.size(), w) != 0) {
      return false;
    }
    pos_ += w.size();
    return true;
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

pebble::SimResult run_strassen(std::size_t n, std::int64_t m) {
  const cdag::Cdag cdag = cdag::build_cdag(bilinear::strassen(), n);
  pebble::SimOptions options;
  options.cache_size = m;
  return pebble::simulate(cdag, pebble::dfs_schedule(cdag), options);
}

// --- Metrics registry -------------------------------------------------

TEST(Metrics, CounterAndGaugeBasics) {
  auto& registry = Registry::instance();
  registry.reset();
  auto& c = registry.counter("test.counter");
  EXPECT_EQ(c.value(), 0);
  c.increment();
  c.add(41);
  EXPECT_EQ(c.value(), 42);
  // Same name returns the same counter.
  EXPECT_EQ(registry.counter("test.counter").value(), 42);

  auto& g = registry.gauge("test.gauge");
  g.set(7);
  g.record_max(3);
  EXPECT_EQ(g.value(), 7);
  g.record_max(11);
  EXPECT_EQ(g.value(), 11);

  // Reset zeroes values but keeps references valid.
  registry.reset();
  EXPECT_EQ(c.value(), 0);
  EXPECT_EQ(g.value(), 0);
}

TEST(Metrics, SnapshotIsSortedByName) {
  auto& registry = Registry::instance();
  registry.reset();
  registry.counter("zz.last").add(1);
  registry.counter("aa.first").add(2);
  const auto snap = registry.snapshot();
  std::vector<std::string> names;
  for (const auto& [name, value] : snap) {
    names.push_back(name);
  }
  for (std::size_t i = 1; i < names.size(); ++i) {
    EXPECT_LE(names[i - 1], names[i]);
  }
}

// Tentpole acceptance: registry counters must agree exactly with the
// pebble machine's own I/O accounting.
TEST(Metrics, PebbleCountersMatchSimResult) {
  auto& registry = Registry::instance();
  registry.reset();
  const auto result = run_strassen(8, 16);
  EXPECT_EQ(registry.counter("pebble.loads").value(), result.loads);
  EXPECT_EQ(registry.counter("pebble.stores").value(), result.stores);
  EXPECT_EQ(registry.counter("pebble.computations").value(),
            result.computations);
  EXPECT_EQ(registry.counter("pebble.simulations").value(), 1);

  // Counters accumulate across runs.
  const auto again = run_strassen(8, 16);
  EXPECT_EQ(registry.counter("pebble.loads").value(),
            result.loads + again.loads);
  EXPECT_EQ(registry.counter("pebble.simulations").value(), 2);
}

TEST(Metrics, ScopedTimerReportsIntoRegistry) {
  auto& registry = Registry::instance();
  registry.reset();
  {
    ScopedTimer timer("test.phase");
  }
  EXPECT_EQ(registry.counter("test.phase.calls").value(), 1);
  EXPECT_GE(registry.counter("test.phase.ns").value(), 0);
}

// --- Tracer -----------------------------------------------------------

TEST(Trace, SpansBalanceAndJsonParses) {
  auto& tracer = Tracer::instance();
  tracer.clear();
  const bool active = enable_tracing_if_available();
#if FMM_TRACING_ENABLED
  EXPECT_TRUE(active);
  {
    FMM_TRACE_SPAN("outer", "test");
    FMM_TRACE_INSTANT("tick", "test");
    {
      FMM_TRACE_SPAN("inner", "test");
    }
  }
  EXPECT_EQ(tracer.num_events(), 5u);  // B i B E E

  const std::string json = tracer.to_json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;

  // Spans balance: every 'B' has a matching 'E'.
  std::int64_t depth = 0;
  for (std::size_t i = 0; i + 5 < json.size(); ++i) {
    if (json.compare(i, 6, "\"ph\":\"") == 0) {
      const char ph = json[i + 6];
      if (ph == 'B') {
        ++depth;
      } else if (ph == 'E') {
        --depth;
        EXPECT_GE(depth, 0);
      }
    }
  }
  EXPECT_EQ(depth, 0);
#else
  // Tracing compiled out: enable is refused, macros are no-ops, and the
  // event buffer stays empty no matter what runs.
  EXPECT_FALSE(active);
  {
    FMM_TRACE_SPAN("outer", "test");
    FMM_TRACE_INSTANT("tick", "test");
  }
  EXPECT_EQ(tracer.num_events(), 0u);
#endif
  tracer.enable(false);
  tracer.clear();
}

TEST(Trace, SimulationEmitsEventsOnlyWhenEnabled) {
  auto& tracer = Tracer::instance();
  tracer.clear();
  tracer.enable(false);

  // Tracer disabled at runtime: simulation records nothing.
  const auto quiet = run_strassen(8, 16);
  EXPECT_EQ(tracer.num_events(), 0u);

  const bool active = enable_tracing_if_available();
  const auto traced = run_strassen(8, 16);
#if FMM_TRACING_ENABLED
  EXPECT_TRUE(active);
  EXPECT_GT(tracer.num_events(), 0u);
#else
  EXPECT_FALSE(active);
  EXPECT_EQ(tracer.num_events(), 0u);
#endif

  // Tracing must not perturb the simulation itself.
  EXPECT_EQ(quiet.loads, traced.loads);
  EXPECT_EQ(quiet.stores, traced.stores);
  EXPECT_EQ(quiet.computations, traced.computations);

  tracer.enable(false);
  tracer.clear();
}

TEST(Trace, CapacityBoundsInstantsButKeepsSpans) {
#if FMM_TRACING_ENABLED
  auto& tracer = Tracer::instance();
  tracer.clear();
  tracer.enable(true);
  tracer.set_capacity(4);
  for (int i = 0; i < 10; ++i) {
    FMM_TRACE_INSTANT("flood", "test");
  }
  EXPECT_EQ(tracer.num_events(), 4u);
  EXPECT_EQ(tracer.dropped_events(), 6u);
  {
    FMM_TRACE_SPAN("still-recorded", "test");  // spans bypass the cap
  }
  EXPECT_EQ(tracer.num_events(), 6u);
  tracer.enable(false);
  tracer.clear();
  tracer.set_capacity(std::size_t{1} << 18);
#endif
}

// --- Run report -------------------------------------------------------

TEST(RunReport, JsonShapeAndEscaping) {
  auto& registry = Registry::instance();
  registry.reset();
  registry.counter("pebble.loads").add(123);

  RunReport report("unit \"quoted\" name");
  report.set_param("algorithm", "strassen");
  report.set_param("n", std::int64_t{32});
  report.set_param("exact", true);
  report.add_phase_seconds("build", 0.25);
  report.add_bound_check("check/a", 100.0, 250.0);
  report.set_result("total_io", std::int64_t{250});
  report.attach_metrics_snapshot();

  const std::string json = report.to_json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"schema\": \"fmm.run_report\""), std::string::npos);
  EXPECT_NE(json.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
  EXPECT_NE(json.find("\"pebble.loads\": 123"), std::string::npos);
  // Bound checks carry the measured/bound ratio.
  EXPECT_NE(json.find("\"ratio\": 2.5"), std::string::npos);
}

TEST(RunReport, NonFiniteValuesSerializeAsNull) {
  RunReport report("nonfinite");
  report.set_result("inf", std::numeric_limits<double>::infinity());
  report.set_result("nan", std::numeric_limits<double>::quiet_NaN());
  const std::string json = report.to_json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"inf\": null"), std::string::npos);
  EXPECT_NE(json.find("\"nan\": null"), std::string::npos);
}

TEST(RunReport, CliParsing) {
  const char* argv[] = {"prog", "--out", "r.json", "--trace", "t.json",
                        "--seed", "9"};
  const ReportCli cli =
      parse_report_cli(7, const_cast<char**>(argv));
  EXPECT_EQ(cli.out_path, "r.json");
  EXPECT_EQ(cli.trace_path, "t.json");
  EXPECT_EQ(cli.seed, 9u);
  EXPECT_TRUE(cli.wants_report());
  // --trace is the one switch that turns the tracer on.
  EXPECT_EQ(Tracer::instance().enabled(), FMM_TRACING_ENABLED != 0);
  Tracer::instance().enable(false);

  const char* out_only[] = {"prog", "--out", "r.json"};
  const ReportCli report_only =
      parse_report_cli(3, const_cast<char**>(out_only));
  EXPECT_TRUE(report_only.trace_path.empty());
  EXPECT_FALSE(Tracer::instance().enabled()) << "--out must not trace";

  const char* bare[] = {"prog"};
  const ReportCli none = parse_report_cli(1, const_cast<char**>(bare));
  EXPECT_FALSE(none.wants_report());
  EXPECT_EQ(none.seed, 1u);
}

}  // namespace
}  // namespace fmm::obs
