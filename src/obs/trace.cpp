#include "obs/trace.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include "common/check.hpp"
#include "common/json.hpp"
#include "obs/metrics.hpp"

namespace fmm::obs {

namespace {

/// Dense per-thread id (Chrome traces want small integers, not
/// std::thread::id hashes).
std::uint32_t current_tid() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t tid =
      next.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

}  // namespace

struct Tracer::Impl {
  std::atomic<bool> enabled{false};
  mutable std::mutex mutex;
  std::vector<TraceEvent> events;
  std::size_t capacity = std::size_t{1} << 18;
  std::size_t dropped = 0;
  std::chrono::steady_clock::time_point origin =
      std::chrono::steady_clock::now();
};

Tracer::Tracer() : impl_(new Impl) {}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::enable(bool on) {
  impl_->enabled.store(on, std::memory_order_release);
}

bool Tracer::enabled() const {
  return impl_->enabled.load(std::memory_order_acquire);
}

void Tracer::record(const char* name, const char* category, char phase) {
  if (!enabled()) {
    return;
  }
  TraceEvent event;
  event.name = name;
  event.category = category;
  event.phase = phase;
  event.ts_us = std::chrono::duration<double, std::micro>(
                    std::chrono::steady_clock::now() - impl_->origin)
                    .count();
  event.tid = current_tid();
  {
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    if (!(phase == 'i' && impl_->events.size() >= impl_->capacity)) {
      impl_->events.push_back(std::move(event));
      return;
    }
    ++impl_->dropped;
  }
  // Overflow used to be silent; the registry counter makes truncated
  // traces detectable in every metrics snapshot and run report.  The
  // tracer's own `dropped` survives Registry::reset(); the counter is
  // per-run like every other metric.
  Registry::instance().counter("trace.dropped_events").increment();
}

void Tracer::set_capacity(std::size_t max_events) {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->capacity = max_events;
}

std::size_t Tracer::dropped_events() const {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->dropped;
}

void Tracer::begin(const char* name, const char* category) {
  record(name, category, 'B');
}

void Tracer::end(const char* name, const char* category) {
  record(name, category, 'E');
}

void Tracer::instant(const char* name, const char* category) {
  record(name, category, 'i');
}

std::size_t Tracer::num_events() const {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->events.size();
}

void Tracer::clear() {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->events.clear();
  impl_->dropped = 0;
}

std::string Tracer::to_json() const {
  std::ostringstream oss;
  oss << "{\"traceEvents\":[";
  {
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    bool first = true;
    for (const TraceEvent& e : impl_->events) {
      if (!first) {
        oss << ",";
      }
      first = false;
      oss << "\n{\"name\":\"";
      json_escape(oss, e.name);
      oss << "\",\"cat\":\"";
      json_escape(oss, e.category);
      oss << "\",\"ph\":\"" << e.phase << "\",\"pid\":1,\"tid\":" << e.tid
          << ",\"ts\":";
      char ts[64];
      std::snprintf(ts, sizeof(ts), "%.3f", e.ts_us);
      oss << ts;
      if (e.phase == 'i') {
        oss << ",\"s\":\"t\"";  // instant scope: thread
      }
      oss << "}";
    }
  }
  oss << "\n],\"displayTimeUnit\":\"ms\"}\n";
  return oss.str();
}

bool enable_tracing_if_available() {
#if FMM_TRACING_ENABLED
  Tracer::instance().enable(true);
  return true;
#else
  return false;
#endif
}

void Tracer::write_file(const std::string& path) const {
  std::ofstream out(path);
  FMM_CHECK_MSG(out.good(), "cannot open trace output " << path);
  out << to_json();
}

}  // namespace fmm::obs
