#include "snapshot/store.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <utility>
#include <vector>

#ifdef __unix__
#include <unistd.h>
#endif

#include "common/check.hpp"
#include "common/json.hpp"
#include "obs/metrics.hpp"

namespace fmm::snapshot {

namespace fs = std::filesystem;

namespace {

constexpr char kSnapshotSuffix[] = ".fmmsnap";

bool has_snapshot_suffix(const fs::path& p) {
  const std::string name = p.filename().string();
  const std::string suffix = kSnapshotSuffix;
  return name.size() > suffix.size() &&
         name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
             0;
}

struct Census {
  std::uint64_t files = 0;
  std::uint64_t bytes = 0;
};

Census take_census(const std::string& directory) {
  Census census;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(directory, ec)) {
    if (!entry.is_regular_file(ec) || !has_snapshot_suffix(entry.path())) {
      continue;
    }
    census.files += 1;
    census.bytes += static_cast<std::uint64_t>(entry.file_size(ec));
  }
  return census;
}

std::string process_tag() {
#ifdef __unix__
  return std::to_string(::getpid());
#else
  return "w";
#endif
}

}  // namespace

SnapshotStore::SnapshotStore(SnapshotStoreConfig config)
    : config_(std::move(config)) {
  FMM_CHECK_MSG(!config_.directory.empty(),
                "snapshot store: directory must be set");
  std::error_code ec;
  fs::create_directories(config_.directory, ec);
  FMM_CHECK_MSG(!ec, "snapshot store: cannot create directory "
                         << config_.directory << ": " << ec.message());
  std::lock_guard<std::mutex> lock(mutex_);
  refresh_census_locked();
}

std::string SnapshotStore::snapshot_filename(const std::string& fingerprint,
                                             std::size_t n) {
  return fingerprint + "-n" + std::to_string(n) + kSnapshotSuffix;
}

std::string SnapshotStore::path_for(const std::string& fingerprint,
                                    std::size_t n) const {
  return (fs::path(config_.directory) / snapshot_filename(fingerprint, n))
      .string();
}

std::optional<cdag::Cdag> SnapshotStore::try_load(
    const std::string& fingerprint, std::size_t n) {
  auto& registry = obs::Registry::instance();
  registry.counter("snapshot.lookups").increment();
  const std::string path = path_for(fingerprint, n);
  std::error_code ec;
  if (!fs::exists(path, ec)) {
    registry.counter("snapshot.misses").increment();
    return std::nullopt;
  }
  try {
    cdag::Cdag cdag = load_snapshot_file(path, config_.load_verify);
    registry.counter("snapshot.hits").increment();
    return cdag;
  } catch (const CheckError& e) {
    // Refused file: quarantine it aside so the next reader (possibly in
    // another process) rebuilds instead of re-tripping, and report the
    // refusal in one line.
    registry.counter("snapshot.corrupt_rejected").increment();
    registry.counter("snapshot.misses").increment();
    std::lock_guard<std::mutex> lock(mutex_);
    fs::rename(path, path + ".quarantined", ec);
    std::fprintf(stderr, "snapshot store: refused %s (%s)%s\n", path.c_str(),
                 e.what(),
                 ec ? " [quarantine rename failed]" : ", quarantined");
    refresh_census_locked();
    return std::nullopt;
  }
}

bool SnapshotStore::publish(const std::string& fingerprint, std::size_t n,
                            const cdag::Cdag& cdag) {
  auto& registry = obs::Registry::instance();
  const std::string path = path_for(fingerprint, n);
  std::lock_guard<std::mutex> lock(mutex_);
  std::error_code ec;
  if (fs::exists(path, ec)) {
    return false;  // another worker published first — content-equal
  }
  // Same crash-consistency discipline as the checkpoint writer: a
  // per-process tmp name, fully written and flushed, then renamed into
  // place so concurrent readers never observe a partial file.
  const std::string tmp = path + ".tmp." + process_tag();
  write_snapshot_file(cdag, tmp);
  fs::rename(tmp, path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    FMM_CHECK_MSG(false, "snapshot store: cannot publish " << path);
  }
  registry.counter("snapshot.publishes").increment();
  evict_to_budget_locked(snapshot_filename(fingerprint, n));
  refresh_census_locked();
  return true;
}

void SnapshotStore::evict_to_budget_locked(const std::string& protect) {
  if (config_.byte_budget == 0) {
    return;
  }
  struct File {
    fs::path path;
    std::uint64_t bytes = 0;
    fs::file_time_type mtime;
  };
  std::vector<File> files;
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(config_.directory, ec)) {
    if (!entry.is_regular_file(ec) || !has_snapshot_suffix(entry.path())) {
      continue;
    }
    File f;
    f.path = entry.path();
    f.bytes = static_cast<std::uint64_t>(entry.file_size(ec));
    f.mtime = entry.last_write_time(ec);
    total += f.bytes;
    files.push_back(std::move(f));
  }
  // Oldest first; names break mtime ties so eviction order is stable on
  // coarse-granularity filesystems.
  std::sort(files.begin(), files.end(), [](const File& a, const File& b) {
    if (a.mtime != b.mtime) {
      return a.mtime < b.mtime;
    }
    return a.path.filename().string() < b.path.filename().string();
  });
  auto& evictions = obs::Registry::instance().counter("snapshot.evictions");
  std::size_t remaining = files.size();
  for (const File& f : files) {
    if (total <= config_.byte_budget || remaining <= 1) {
      break;
    }
    if (f.path.filename().string() == protect) {
      continue;  // never evict the snapshot just published
    }
    fs::remove(f.path, ec);
    if (!ec) {
      total -= f.bytes;
      remaining -= 1;
      evictions.increment();
    }
  }
}

void SnapshotStore::refresh_census_locked() const {
  const Census census = take_census(config_.directory);
  auto& registry = obs::Registry::instance();
  registry.gauge("snapshot.files")
      .set(static_cast<std::int64_t>(census.files));
  registry.gauge("snapshot.store_bytes")
      .set(static_cast<std::int64_t>(census.bytes));
}

std::string SnapshotStore::stats_json() const {
  auto& registry = obs::Registry::instance();
  Census census;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    census = take_census(config_.directory);
  }
  std::ostringstream oss;
  oss << "{\"schema\":\"fmm.snapshot\",\"version\":1"
      << ",\"directory\":\"";
  json_escape(oss, config_.directory);
  oss << "\""
      << ",\"lookups\":" << registry.counter("snapshot.lookups").value()
      << ",\"hits\":" << registry.counter("snapshot.hits").value()
      << ",\"misses\":" << registry.counter("snapshot.misses").value()
      << ",\"publishes\":" << registry.counter("snapshot.publishes").value()
      << ",\"evictions\":" << registry.counter("snapshot.evictions").value()
      << ",\"corrupt_rejected\":"
      << registry.counter("snapshot.corrupt_rejected").value()
      << ",\"files\":" << census.files
      << ",\"store_bytes\":" << census.bytes << "}";
  return oss.str();
}

}  // namespace fmm::snapshot
