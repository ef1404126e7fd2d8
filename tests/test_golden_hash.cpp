// Golden values for every persisted or routing-relevant hash: scheme,
// spec, cache-key and snapshot fingerprints, rendezvous routing, task
// seeds and the fault-injection streams.  Checkpoints, snapshot stores
// and cache keys written by one build must be readable by the next, so
// these numbers may never drift; any change here is a format break.
//
// The file compiles against both the layout where FNV-1a lived in
// resilience/checkpoint.hpp and the one where it lives in
// common/hash.hpp, so it pins the values across that move unchanged.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#if __has_include("common/hash.hpp")
#include "common/hash.hpp"
#endif
#include "bilinear/scheme.hpp"
#include "common/rng.hpp"
#include "fabric/router.hpp"
#include "resilience/checkpoint.hpp"
#include "resilience/fault.hpp"
#include "service/cache.hpp"
#include "snapshot/store.hpp"
#include "sweep/sweep.hpp"

namespace {

using namespace fmm;
using namespace fmm::resilience;

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

TEST(GoldenHash, Fingerprint64) {
  EXPECT_EQ(fingerprint64(""), "cbf29ce484222325");
  EXPECT_EQ(fingerprint64("a"), "af63dc4c8601ec8c");
  EXPECT_EQ(fingerprint64("strassen|8"), "ac33b076b66f64ea");
}

TEST(GoldenHash, SchemeFingerprints) {
  const std::string root = std::string(FMM_SOURCE_ROOT) + "/schemes/";
  EXPECT_EQ(bilinear::scheme_fingerprint(
                bilinear::load_scheme_file(root + "strassen_222_7.json")),
            "25b0fc71bc9be9ea");
  EXPECT_EQ(bilinear::scheme_fingerprint(
                bilinear::load_scheme_file(root + "hk_style_222_7.json")),
            "4742b5af4cf6462f");
  EXPECT_EQ(bilinear::scheme_fingerprint(
                bilinear::load_scheme_file(root + "laderman_333_23.json")),
            "fc507c08a258561f");
  EXPECT_EQ(bilinear::scheme_fingerprint(
                bilinear::load_scheme_file(root + "rect_336_46.json")),
            "797bee1e506677ec");
}

TEST(GoldenHash, SpecFingerprint) {
  sweep::SweepSpec spec;
  spec.algorithms = {"strassen", "winograd"};
  spec.n_grid = {4, 8};
  spec.m_grid = {12, 32};
  spec.kinds = {sweep::TaskKind::kSimulate, sweep::TaskKind::kBoundCheck};
  spec.base_seed = 7;
  spec.inject_failure_rate = 0.125;
  EXPECT_EQ(sweep::spec_fingerprint(spec), "5e56f1bc9b812bd8");
}

TEST(GoldenHash, CacheKeys) {
  EXPECT_EQ(service::ContentCache::cdag_key("strassen", 8),
            "cdag/ac33b076b66f64ea");
  EXPECT_EQ(service::ContentCache::cdag_key("scheme:0123456789abcdef", 64),
            "cdag/efc37ba733a69f12");
  EXPECT_EQ(service::ContentCache::result_key(""), "result/cbf29ce484222325");
  EXPECT_EQ(service::ContentCache::result_key(
                "{\"op\": \"simulate\", \"algorithm\": \"strassen\"}"),
            "result/b0260c67a803d57c");
}

TEST(GoldenHash, SnapshotFilename) {
  EXPECT_EQ(snapshot::SnapshotStore::snapshot_filename("0123456789abcdef",
                                                       64),
            "0123456789abcdef-n64.fmmsnap");
}

TEST(GoldenHash, RendezvousRouting) {
  const std::vector<bool> alive(4, true);
  std::string picks;
  for (int i = 0; i < 64; ++i) {
    picks += std::to_string(fabric::Router::pick_worker(
        "golden/" + std::to_string(i), alive));
  }
  EXPECT_EQ(picks,
            "33023132121310333021230301103332"
            "02011202313132221321322301210102");
  const std::vector<bool> one_dead = {true, false, true, true};
  std::string survivors;
  for (int i = 0; i < 16; ++i) {
    survivors += std::to_string(fabric::Router::pick_worker(
        "golden/" + std::to_string(i), one_dead));
  }
  EXPECT_EQ(survivors, "3302303232232033");
}

TEST(GoldenHash, TaskSeeds) {
  EXPECT_EQ(hex(sweep::task_seed(1, 0)), "910a2dec89025cc1");
  EXPECT_EQ(hex(sweep::task_seed(1, 1)), "beeb8da1658eec67");
  EXPECT_EQ(hex(sweep::task_seed(0xdeadbeefULL, 41)), "f5dfbdab76a2839d");
}

TEST(GoldenHash, FaultStreams) {
  EXPECT_EQ(hex(resilience::splitmix64(0, 0, 0)), "e4bacea5c4b9b499");
  EXPECT_EQ(hex(resilience::splitmix64(42, 7)), "030c4f4c49796281");
  EXPECT_EQ(hex(resilience::splitmix64(9, 3, 2)), "9663fed9a7b0b5c2");
  EXPECT_EQ(resilience::splitmix_unit(42, 7), 0x1.8627a624bcb00p-7);
  EXPECT_EQ(resilience::splitmix_unit(9, 3, 2), 0x1.2cc7fdb34f616p-1);
}

TEST(GoldenHash, RngSeeding) {
  Rng rng(42);
  std::string first;
  for (int i = 0; i < 3; ++i) {
    first += hex(rng()) + " ";
  }
  EXPECT_EQ(first, "15780b2e0c2ec716 6104d9866d113a7e ae17533239e499a1 ");
}

}  // namespace
