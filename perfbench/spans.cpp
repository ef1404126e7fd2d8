#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <utility>

namespace perfbench {
namespace {

thread_local std::uint64_t current_span = 0;

std::uint32_t thread_tag() {
  return static_cast<std::uint32_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) & 0xffffffffu);
}

void json_string(std::ostringstream& os, const std::string& s) {
  os << '"';
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      os << '\\';
    }
    os << ch;
  }
  os << '"';
}

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t SpanRecorder::next_id() {
  const std::scoped_lock lock(mutex_);
  return ++last_id_;
}

void SpanRecorder::add(SpanRecord record) {
  const std::scoped_lock lock(mutex_);
  records_.push_back(std::move(record));
}

std::vector<SpanRecord> SpanRecorder::spans() const {
  const std::scoped_lock lock(mutex_);
  return records_;
}

std::string SpanRecorder::to_json() const {
  const std::vector<SpanRecord> all = spans();
  std::ostringstream os;
  os << "{\"spans\": [";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanRecord& s = all[i];
    os << (i == 0 ? "" : ",\n") << "{\"id\": " << s.id
       << ", \"parent\": " << s.parent << ", \"name\": ";
    json_string(os, s.name);
    os << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
       << ", \"request\": " << s.request << ", \"thread\": " << s.thread
       << "}";
  }
  os << "]}\n";
  return os.str();
}

Span::Span(SpanRecorder& recorder, std::string name, std::int64_t request)
    : Span(recorder, std::move(name), current_span, request) {}

Span::Span(SpanRecorder& recorder, std::string name, std::uint64_t parent,
           std::int64_t request)
    : recorder_(recorder) {
  if (!recorder_.enabled()) {
    return;
  }
  record_.id = recorder_.next_id();
  record_.parent = parent;
  record_.name = std::move(name);
  record_.request = request;
  record_.thread = thread_tag();
  saved_current_ = current_span;
  current_span = record_.id;
  record_.start_ns = now_ns();
}

Span::~Span() {
  if (!recorder_.enabled()) {
    return;
  }
  record_.end_ns = now_ns();
  current_span = saved_current_;
  recorder_.add(std::move(record_));
}

std::string layer_of(const std::string& name) {
  return name.substr(0, name.find('.'));
}

std::vector<std::int64_t> self_times_ns(const std::vector<SpanRecord>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    index.emplace(spans[i].id, i);
  }
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const SpanRecord& s : spans) {
    if (const auto it = index.find(s.parent); it != index.end()) {
      children[it->second].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<std::int64_t> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t lo = spans[i].start_ns;
    const std::int64_t hi = spans[i].end_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Length of the union of the children's intervals, clipped to ours.
    std::int64_t covered = 0;
    std::int64_t run_start = 0;
    std::int64_t run_end = 0;
    bool open = false;
    for (const auto& [start, end] : kids) {
      const std::int64_t s = std::max(start, lo);
      const std::int64_t e = std::min(end, hi);
      if (e <= s) {
        continue;
      }
      if (open && s <= run_end) {
        run_end = std::max(run_end, e);
        continue;
      }
      if (open) {
        covered += run_end - run_start;
      }
      run_start = s;
      run_end = e;
      open = true;
    }
    if (open) {
      covered += run_end - run_start;
    }
    self[i] = (hi - lo) - covered;
  }
  return self;
}

SpanTotals summarize(const std::vector<SpanRecord>& spans) {
  const std::vector<std::int64_t> self = self_times_ns(spans);
  SpanTotals totals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::string& name = spans[i].name;
    totals.self_ns_by_name[name] += self[i];
    totals.self_ns_by_layer[layer_of(name)] += self[i];
    totals.duration_ns_by_name[name] += spans[i].end_ns - spans[i].start_ns;
    totals.count_by_name[name] += 1;
  }
  return totals;
}

}  // namespace perfbench
