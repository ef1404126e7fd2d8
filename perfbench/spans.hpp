// Benchmark-side span recorder.
//
// The traced run (--trace 1) wraps every call the harness makes into a
// library layer in a Span.  Spans are kept in memory and written out at
// the end; nothing here touches the library's own tracer (obs::Tracer),
// which stays off so the per-layer numbers measure the same code the
// timed runs do.
//
// A span's layer is the part of its name before the first '.', so
// "pebble.liveness" belongs to the pebble layer.  Its self time is its
// duration minus the part of that interval covered by its children; the
// union of children is taken, so children running concurrently on
// several threads are not double-subtracted.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock (the one origin every span shares).
std::int64_t now_ns();

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t request = -1;  // request or cell id; -1 = none
  std::uint32_t thread = 0;
};

/// Thread-safe in-memory span store.  A disabled recorder records
/// nothing and hands out id 0, so untraced runs pay one branch per span.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  std::uint64_t next_id();
  void add(SpanRecord record);
  std::vector<SpanRecord> spans() const;
  /// {"spans": [{"id":..,"parent":..,"name":..,"start_ns":..,
  ///   "end_ns":..,"request":..,"thread":..}, ...]}
  std::string to_json() const;

 private:
  const bool enabled_;
  mutable std::mutex mutex_;
  std::uint64_t last_id_ = 0;
  std::vector<SpanRecord> records_;
};

/// RAII span.  The parent defaults to the innermost open span on the
/// calling thread; pass one explicitly when work hops threads.
class Span {
 public:
  Span(SpanRecorder& recorder, std::string name, std::int64_t request = -1);
  Span(SpanRecorder& recorder, std::string name, std::uint64_t parent,
       std::int64_t request);
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span();

  std::uint64_t id() const { return record_.id; }

 private:
  SpanRecorder& recorder_;
  SpanRecord record_;
  std::uint64_t saved_current_ = 0;
};

/// "pebble.liveness" -> "pebble".
std::string layer_of(const std::string& name);

/// Self time of every span, index-aligned with `spans`.
std::vector<std::int64_t> self_times_ns(const std::vector<SpanRecord>& spans);

struct SpanTotals {
  std::map<std::string, std::int64_t> self_ns_by_name;
  std::map<std::string, std::int64_t> self_ns_by_layer;
  std::map<std::string, std::int64_t> duration_ns_by_name;
  std::map<std::string, std::int64_t> count_by_name;
};

SpanTotals summarize(const std::vector<SpanRecord>& spans);

}  // namespace perfbench
