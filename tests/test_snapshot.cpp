// Snapshot subsystem tests (src/snapshot/): fmm.snap round-trips must
// reconstruct a CDAG indistinguishable from the built one (graph
// content, roles, pools, metadata, memory footprint, simulation
// results), and the SnapshotStore must behave as a content-addressed,
// crash-consistent second-level cache: hit/miss/publish accounting,
// first-writer-wins publish, quarantine of refused files, byte-budget
// eviction, and safe concurrent use (the tsan preset runs these suites).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bilinear/catalog.hpp"
#include "cdag/builder.hpp"
#include "common/check.hpp"
#include "obs/metrics.hpp"
#include "pebble/machine.hpp"
#include "pebble/schedules.hpp"
#include "service/cache.hpp"
#include "service/service.hpp"
#include "snapshot/format.hpp"
#include "snapshot/store.hpp"

namespace fmm::snapshot {
namespace {

namespace fs = std::filesystem;

cdag::Cdag build_strassen(std::size_t n) {
  return cdag::build_cdag(bilinear::strassen(), n);
}

std::string fresh_dir(const std::string& tag) {
  const std::string dir =
      std::string(testing::TempDir()) + "snapstore_" + tag;
  fs::remove_all(dir);
  return dir;
}

std::int64_t counter_value(const char* name) {
  return obs::Registry::instance().counter(name).value();
}

void expect_equal_cdags(const cdag::Cdag& a, const cdag::Cdag& b) {
  EXPECT_TRUE(a.graph == b.graph);
  EXPECT_EQ(a.roles, b.roles);
  EXPECT_EQ(a.n, b.n);
  EXPECT_EQ(a.base, b.base);
  EXPECT_EQ(a.num_products, b.num_products);
  EXPECT_EQ(a.algorithm_name, b.algorithm_name);
  EXPECT_EQ(a.inputs_a, b.inputs_a);
  EXPECT_EQ(a.inputs_b, b.inputs_b);
  EXPECT_EQ(a.outputs, b.outputs);
  ASSERT_EQ(a.subproblem_levels.size(), b.subproblem_levels.size());
  for (std::size_t i = 0; i < a.subproblem_levels.size(); ++i) {
    const cdag::SubproblemLevel& la = a.subproblem_levels[i];
    const cdag::SubproblemLevel& lb = b.subproblem_levels[i];
    EXPECT_EQ(la.r, lb.r);
    EXPECT_EQ(la.count, lb.count);
    EXPECT_TRUE(la.output_pool == lb.output_pool);
    EXPECT_TRUE(la.input_pool == lb.input_pool);
    EXPECT_TRUE(la.span_begin == lb.span_begin);
    EXPECT_TRUE(la.span_end == lb.span_end);
  }
}

TEST(SnapshotFormat, RoundTripIsContentIdentical) {
  const cdag::Cdag built = build_strassen(8);
  const std::string bytes = serialize_snapshot(built);
  auto keep = std::make_shared<std::string>(bytes);
  const cdag::Cdag loaded = deserialize_snapshot(
      {reinterpret_cast<const std::byte*>(keep->data()), keep->size()},
      keep, Verify::kFull);
  expect_equal_cdags(built, loaded);
  loaded.validate();
}

TEST(SnapshotFormat, MappedVerificationLoadsIdentically) {
  const cdag::Cdag built = build_strassen(8);
  auto keep = std::make_shared<std::string>(serialize_snapshot(built));
  const cdag::Cdag loaded = deserialize_snapshot(
      {reinterpret_cast<const std::byte*>(keep->data()), keep->size()},
      keep, Verify::kMapped);
  expect_equal_cdags(built, loaded);
}

TEST(SnapshotFormat, MemoryFootprintMatchesBuiltCdag) {
  // The service's byte-identical `cdag` response renders memory_bytes;
  // a loaded view must report exactly what the built graph reports.
  const cdag::Cdag built = build_strassen(8);
  auto keep = std::make_shared<std::string>(serialize_snapshot(built));
  const cdag::Cdag loaded = deserialize_snapshot(
      {reinterpret_cast<const std::byte*>(keep->data()), keep->size()},
      keep, Verify::kFull);
  EXPECT_EQ(built.graph.memory_bytes(), loaded.graph.memory_bytes());
  EXPECT_EQ(service::cdag_memory_bytes(built),
            service::cdag_memory_bytes(loaded));
}

TEST(SnapshotFormat, SerializationIsDeterministicAndStable) {
  const cdag::Cdag built = build_strassen(4);
  const std::string once = serialize_snapshot(built);
  EXPECT_EQ(once, serialize_snapshot(built));
  // Round-tripping through a loaded view re-serializes bit-identically:
  // the format captures the CDAG completely.
  auto keep = std::make_shared<std::string>(once);
  const cdag::Cdag loaded = deserialize_snapshot(
      {reinterpret_cast<const std::byte*>(keep->data()), keep->size()},
      keep, Verify::kFull);
  EXPECT_EQ(once, serialize_snapshot(loaded));
}

TEST(SnapshotFormat, SimulationResultsAreBitIdentical) {
  const cdag::Cdag built = build_strassen(8);
  auto keep = std::make_shared<std::string>(serialize_snapshot(built));
  const cdag::Cdag loaded = deserialize_snapshot(
      {reinterpret_cast<const std::byte*>(keep->data()), keep->size()},
      keep, Verify::kFull);
  pebble::SimOptions options;
  options.cache_size = 64;
  const auto schedule = pebble::dfs_schedule(built);
  EXPECT_EQ(schedule, pebble::dfs_schedule(loaded));
  const pebble::SimResult a = pebble::simulate(built, schedule, options);
  const pebble::SimResult b = pebble::simulate(loaded, schedule, options);
  EXPECT_EQ(a.loads, b.loads);
  EXPECT_EQ(a.stores, b.stores);
  EXPECT_EQ(a.weighted_io, b.weighted_io);
  EXPECT_EQ(a.computations, b.computations);
  EXPECT_EQ(a.recomputations, b.recomputations);
}

TEST(SnapshotFormat, FileRoundTrip) {
  const std::string dir = fresh_dir("file_roundtrip");
  fs::create_directories(dir);
  const std::string path = dir + "/roundtrip.fmmsnap";
  const cdag::Cdag built = build_strassen(4);
  write_snapshot_file(built, path);
  expect_equal_cdags(built, load_snapshot_file(path, Verify::kFull));
  expect_equal_cdags(built, load_snapshot_file(path, Verify::kMapped));
}

TEST(SnapshotFormat, ChecksumSeparatesNearbyInputs) {
  std::string data(4096, '\x5a');
  const std::uint64_t reference = snap_checksum(data.data(), data.size());
  EXPECT_EQ(reference, snap_checksum(data.data(), data.size()));
  for (const std::size_t at : {std::size_t{0}, std::size_t{7},
                               std::size_t{64}, data.size() - 1}) {
    std::string mutated = data;
    mutated[at] ^= 1;
    EXPECT_NE(reference, snap_checksum(mutated.data(), mutated.size()))
        << "bit flip at " << at;
  }
  // Length is folded in, so a prefix never collides with the whole.
  EXPECT_NE(reference, snap_checksum(data.data(), data.size() - 8));
}

TEST(SnapshotFormat, ChecksumIsPinned) {
  // The checksum is stored in every fmm.snap file; these values were
  // taken from the original implementation and may never change.
  unsigned char bytes[200];
  for (std::size_t i = 0; i < sizeof(bytes); ++i) {
    bytes[i] = static_cast<unsigned char>(i * 37 + 11);
  }
  EXPECT_EQ(snap_checksum(bytes, 0), 0x3f22a6244a979fb9ULL);
  EXPECT_EQ(snap_checksum(bytes, 7), 0x190a41a89416d99aULL);
  EXPECT_EQ(snap_checksum(bytes, 200), 0x43dd981db58a7919ULL);
}

TEST(SnapshotStore, MissPublishHitAccounting) {
  const std::string dir = fresh_dir("accounting");
  SnapshotStore store({dir, 0, Verify::kFull});
  const cdag::Cdag built = build_strassen(4);
  const std::int64_t lookups0 = counter_value("snapshot.lookups");
  const std::int64_t hits0 = counter_value("snapshot.hits");
  const std::int64_t misses0 = counter_value("snapshot.misses");

  EXPECT_FALSE(store.try_load("fp-accounting", 4).has_value());
  EXPECT_TRUE(store.publish("fp-accounting", 4, built));
  const auto loaded = store.try_load("fp-accounting", 4);
  ASSERT_TRUE(loaded.has_value());
  expect_equal_cdags(built, *loaded);

  EXPECT_EQ(counter_value("snapshot.lookups") - lookups0, 2);
  EXPECT_EQ(counter_value("snapshot.hits") - hits0, 1);
  EXPECT_EQ(counter_value("snapshot.misses") - misses0, 1);
  const std::string json = store.stats_json();
  EXPECT_NE(json.find("\"schema\":\"fmm.snapshot\""), std::string::npos);
  EXPECT_NE(json.find("\"files\":1"), std::string::npos);
}

TEST(SnapshotStore, PublishIsFirstWriterWins) {
  const std::string dir = fresh_dir("first_writer");
  SnapshotStore store({dir, 0, Verify::kFull});
  const cdag::Cdag built = build_strassen(4);
  EXPECT_TRUE(store.publish("fp-first", 4, built));
  EXPECT_FALSE(store.publish("fp-first", 4, built));
}

TEST(SnapshotStore, RefusedFileIsQuarantinedAndCountsAsMiss) {
  const std::string dir = fresh_dir("quarantine");
  SnapshotStore store({dir, 0, Verify::kFull});
  const cdag::Cdag built = build_strassen(4);
  ASSERT_TRUE(store.publish("fp-corrupt", 4, built));
  const std::string path = store.path_for("fp-corrupt", 4);
  {
    // Flip one payload byte: the checksum pass must refuse the file.
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(1024);
    f.put('\xff');
  }
  const std::int64_t rejected0 = counter_value("snapshot.corrupt_rejected");
  EXPECT_FALSE(store.try_load("fp-corrupt", 4).has_value());
  EXPECT_EQ(counter_value("snapshot.corrupt_rejected") - rejected0, 1);
  EXPECT_FALSE(fs::exists(path));
  EXPECT_TRUE(fs::exists(path + ".quarantined"));
  // The slot is rebuildable: publish works again after quarantine.
  EXPECT_TRUE(store.publish("fp-corrupt", 4, built));
  EXPECT_TRUE(store.try_load("fp-corrupt", 4).has_value());
}

TEST(SnapshotStore, EvictsOldestToByteBudgetButNeverLastFile) {
  const std::string dir = fresh_dir("evict");
  const cdag::Cdag small = build_strassen(2);
  const std::uint64_t one_file =
      serialize_snapshot(small).size();
  // Budget fits roughly two files; publishing four must evict the
  // oldest ones but always keep at least the newest.
  SnapshotStore store({dir, 2 * one_file + 64, Verify::kFull});
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(store.publish("fp-evict-" + std::to_string(i), 2, small));
    // Distinct mtimes on coarse-granularity filesystems are not
    // guaranteed; the name tie-break keeps eviction deterministic.
  }
  EXPECT_GT(counter_value("snapshot.evictions"), 0);
  std::size_t files = 0;
  std::uint64_t bytes = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    files += 1;
    bytes += entry.file_size();
  }
  EXPECT_GE(files, 1u);
  EXPECT_LE(bytes, 2 * one_file + 64);
  // The just-published snapshot survives.
  EXPECT_TRUE(fs::exists(store.path_for("fp-evict-3", 2)));
}

TEST(SnapshotStore, ZeroBudgetMeansUnlimited) {
  const std::string dir = fresh_dir("unlimited");
  SnapshotStore store({dir, 0, Verify::kFull});
  const cdag::Cdag small = build_strassen(2);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(store.publish("fp-keep-" + std::to_string(i), 2, small));
  }
  std::size_t files = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    (void)entry;
    files += 1;
  }
  EXPECT_EQ(files, 4u);
}

TEST(SnapshotStore, ConcurrentPublishAndLookupStress) {
  const std::string dir = fresh_dir("stress");
  SnapshotStore store({dir, 0, Verify::kFull});
  const cdag::Cdag built = build_strassen(4);
  constexpr int kThreads = 4;
  constexpr int kIters = 8;
  std::vector<std::thread> threads;
  std::atomic<int> loads{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const std::string fp = "fp-stress-" + std::to_string(i % 3);
        if (!store.try_load(fp, 4).has_value()) {
          store.publish(fp, 4, built);
        } else {
          loads.fetch_add(1);
        }
        (void)t;
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_GT(loads.load(), 0);
  for (int i = 0; i < 3; ++i) {
    const auto loaded = store.try_load("fp-stress-" + std::to_string(i), 4);
    ASSERT_TRUE(loaded.has_value());
    expect_equal_cdags(built, *loaded);
  }
}

TEST(SnapshotSource, CachingCdagSourceFallsBackToStore) {
  const std::string dir = fresh_dir("source");
  SnapshotStore store({dir, 0, Verify::kFull});
  const std::int64_t builds0 = counter_value("cdag.builds");

  // First process: memory miss + store miss -> build + publish.
  {
    service::ContentCache cache;
    service::CachingCdagSource source(cache, &store);
    const auto cdag = source.get_cdag("strassen", 8);
    ASSERT_NE(cdag, nullptr);
    EXPECT_EQ(counter_value("cdag.builds") - builds0, 1);
    // Second fetch is a pure memory hit.
    EXPECT_EQ(source.get_cdag("strassen", 8), cdag);
    EXPECT_EQ(counter_value("cdag.builds") - builds0, 1);
  }

  // "Second worker": fresh memory cache, same store -> loads, no build.
  {
    service::ContentCache cache;
    service::CachingCdagSource source(cache, &store);
    const auto cdag = source.get_cdag("strassen", 8);
    ASSERT_NE(cdag, nullptr);
    EXPECT_EQ(counter_value("cdag.builds") - builds0, 1);
    expect_equal_cdags(*source.get_cdag("strassen", 8), *cdag);
  }

  // Without a store, a fresh cache rebuilds.
  {
    service::ContentCache cache;
    service::CachingCdagSource source(cache);
    ASSERT_NE(source.get_cdag("strassen", 8), nullptr);
    EXPECT_EQ(counter_value("cdag.builds") - builds0, 2);
  }
}

TEST(SnapshotSource, ServiceConfigMountsStore) {
  const std::string dir = fresh_dir("service_mount");
  service::ServiceConfig config;
  config.num_threads = 1;
  config.snapshot_dir = dir;
  service::QueryService service(config);
  ASSERT_NE(service.snapshot_store(), nullptr);
  EXPECT_EQ(service.snapshot_store()->directory(), dir);
  const std::string response = service.handle_line(
      R"({"op": "cdag", "algorithm": "strassen", "n": 4})");
  EXPECT_NE(response.find("\"ok\": true"), std::string::npos) << response;
  EXPECT_TRUE(fs::exists(dir));
  std::size_t files = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    (void)entry;
    files += 1;
  }
  EXPECT_EQ(files, 1u);
}

}  // namespace
}  // namespace fmm::snapshot
