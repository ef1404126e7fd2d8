// fabric_coldstart: a closed loop with 4 outstanding requests through
// fabric::Router over InProcessTransport, 4 workers with 1 pool thread
// each.  Every session starts fresh workers with cold memory caches that
// share a SnapshotStore filled in setup, so CDAGs are read from snapshots
// instead of built.  Requests never repeat within a session.
#include <algorithm>
#include <filesystem>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <utility>

#include "cdag/builder.hpp"
#include "fabric/router.hpp"
#include "fabric/transport.hpp"
#include "service/protocol.hpp"
#include "service/service.hpp"
#include "snapshot/store.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace service = fmm::service;
namespace fabric = fmm::fabric;

namespace {

constexpr std::size_t kWorkers = 4;
constexpr std::size_t kOutstanding = 4;
/// The CDAG-shaped requests of every session, as (op, n, count): most of
/// the session, so the median request waits on load-and-compute work
/// (a few ms) rather than on thread hand-offs alone.  n = 64 stays out of
/// the sessions: its 25 MB checksummed loads made the whole workload
/// slow down ~1.6x under host memory contention (n <= 32: ~1.25x).
struct CdagOps {
  const char* op;
  std::size_t n;
  std::size_t count;
};
constexpr CdagOps kCdagOps[] = {{"cdag", 16, 4},
                                {"cdag", 32, 4},
                                {"liveness", 16, 8},
                                {"liveness", 32, 12}};
constexpr std::size_t kBoundPerSession = 20;
/// Latency limit of one request, timed from when the loop sent it.
constexpr double kFabricSloMs = 10.0;

const std::vector<std::string>& schemes() {
  static const std::vector<std::string> names = {
      "strassen", "winograd", "strassen-dual", "winograd-dual"};
  return names;
}

const std::vector<std::size_t>& sizes() {
  static const std::vector<std::size_t> n = {16, 32, 64};
  return n;
}

struct Universe {
  std::vector<std::string> cdag;
  std::vector<std::string> liveness;
  std::vector<std::string> bound;
};

Universe universe() {
  Universe u;
  for (const std::string& scheme : schemes()) {
    for (const std::size_t n : sizes()) {
      const std::string shape = ", \"algorithm\": \"" + scheme +
                                "\", \"n\": " + std::to_string(n);
      u.cdag.push_back("\"op\": \"cdag\"" + shape + "}");
      for (const std::int64_t m : {64, 256, 1024}) {
        u.liveness.push_back("\"op\": \"liveness\"" + shape +
                             ", \"m\": " + std::to_string(m) + "}");
      }
    }
  }
  for (const std::int64_t n : {16, 32, 64, 128, 256, 512, 1024}) {
    for (const std::int64_t m : {16, 64, 256, 1024, 4096}) {
      for (const std::int64_t p : {1, 2, 4, 8}) {
        u.bound.push_back("\"op\": \"bound\", \"n\": " + std::to_string(n) +
                          ", \"m\": " + std::to_string(m) +
                          ", \"p\": " + std::to_string(p) + "}");
      }
    }
  }
  return u;
}

struct FabricSetup {
  std::string store_dir;
  std::map<std::string, std::string> reference;  // body -> stripped response
};

FabricSetup make_setup(const Options& options) {
  FabricSetup setup;
  setup.store_dir = options.workdir + "/fabric-store";
  std::filesystem::remove_all(setup.store_dir);
  fmm::snapshot::SnapshotStore store(
      fmm::snapshot::SnapshotStoreConfig{setup.store_dir, 0,
                                         fmm::snapshot::Verify::kFull});
  for (const std::string& scheme : schemes()) {
    const std::string fingerprint =
        fmm::sweep::resolve_traits(scheme).fingerprint;
    for (const std::size_t n : sizes()) {
      store.publish(fingerprint, n,
                    fmm::cdag::build_cdag(fmm::sweep::resolve_algorithm(scheme),
                                          n));
    }
  }
  // Direct serving: one single-thread QueryService over the same store.
  service::ServiceConfig config;
  config.num_threads = 1;
  config.snapshot_dir = setup.store_dir;
  service::QueryService direct(config);
  const Universe u = universe();
  for (const auto* group : {&u.cdag, &u.liveness, &u.bound}) {
    for (const std::string& body : *group) {
      setup.reference[body] = strip_id(direct.handle_line("{" + body));
    }
  }
  return setup;
}

service::ServiceConfig worker_config(const FabricSetup& setup) {
  service::ServiceConfig config;
  config.num_threads = 1;
  config.snapshot_dir = setup.store_dir;
  return config;
}

struct SessionRun {
  SessionTimes times;
  std::vector<std::string> bodies;
  fabric::FabricStats stats;
  std::int64_t builds = 0;
  std::int64_t snapshot_hits = 0;
  std::int64_t cache_hits = 0;  // worker result + CDAG cache lookups
  std::int64_t cache_misses = 0;
};

SessionRun run_session(const FabricSetup& setup,
                       const std::vector<std::string>& bodies,
                       std::size_t window) {
  require_tracer_off();
  SessionRun run;
  run.bodies = bodies;
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < bodies.size(); ++i) {
    lines.push_back(with_id(static_cast<std::int64_t>(i), bodies[i]));
  }
  fabric::InProcessTransport transport(worker_config(setup));
  fabric::FabricConfig config;
  config.num_workers = kWorkers;
  const auto before = registry_values();
  run.times = drive_session(
      [&](std::istream& in, std::ostream& out) {
        fabric::Router router(config, transport);
        router.serve(in, out);
        run.stats = router.stats();
      },
      lines, window);
  const auto after = registry_values();
  run.builds = registry_delta(before, after, "cdag.builds");
  run.cache_hits = registry_delta(before, after, "service.cache.hits");
  run.cache_misses = registry_delta(before, after, "service.cache.misses");
  run.snapshot_hits = registry_delta(before, after, "snapshot.hits");
  return run;
}

void check_session(const FabricSetup& setup, const SessionRun& run,
                   Outcome& outcome) {
  outcome.attempted += static_cast<std::int64_t>(run.bodies.size());
  if (run.builds != 0) {
    outcome.fail("fabric: " + std::to_string(run.builds) +
                 " CDAG builds in a session served from the snapshot store");
  }
  for (std::size_t i = 0; i < run.bodies.size(); ++i) {
    if (i >= run.times.responses.size()) {
      outcome.fail("fabric: request " + std::to_string(i) + " unanswered");
      continue;
    }
    if (strip_id(run.times.responses[i]) != setup.reference.at(run.bodies[i])) {
      outcome.fail("fabric: response differs from direct serving: " +
                   run.times.responses[i].substr(0, 120));
    }
  }
}

/// Closed-loop latencies of one session's requests, in ms.
std::vector<double> latencies_ms(const SessionRun& run) {
  std::vector<double> out;
  for (std::size_t i = 0; i < run.times.done_ns.size(); ++i) {
    out.push_back(static_cast<double>(run.times.done_ns[i] -
                                      run.times.sent_ns[i]) *
                  1e-6);
  }
  return out;
}

double session_wall_s(const SessionRun& run) {
  return run.times.done_ns.empty()
             ? 0.0
             : static_cast<double>(run.times.done_ns.back() -
                                   run.times.sent_ns.front()) *
                   1e-9;
}

/// Replays one session's requests through the layer calls with the
/// fabric's routing: each worker loads a CDAG from the store the first
/// time one of its requests needs it.  Returns the replay's wall ns.
double replay_session(const FabricSetup& setup,
                      const std::vector<std::string>& bodies,
                      SpanRecorder& recorder, LayerReplay& replay,
                      Outcome& outcome) {
  fmm::snapshot::SnapshotStore store(
      fmm::snapshot::SnapshotStoreConfig{setup.store_dir, 0,
                                         fmm::snapshot::Verify::kFull});
  std::vector<std::map<std::pair<std::string, std::size_t>, fmm::cdag::Cdag>>
      worker_cdags(kWorkers);
  const std::vector<bool> alive(kWorkers, true);
  const std::int64_t start = now_ns();
  {
    const Span root(recorder, "bench.replay");
    for (std::size_t i = 0; i < bodies.size(); ++i) {
      const std::string canonical =
          service::canonical_request(service::parse_request("{" + bodies[i]));
      auto& cdags = worker_cdags[fabric::Router::pick_worker(canonical, alive)];
      const auto source = [&](const std::string& algorithm,
                              std::size_t n) -> const fmm::cdag::Cdag& {
        const auto key = std::make_pair(algorithm, n);
        auto it = cdags.find(key);
        if (it == cdags.end()) {
          std::string fingerprint;
          {
            const Span resolve(recorder, "bilinear.resolve");
            fingerprint = fmm::sweep::resolve_traits(algorithm).fingerprint;
          }
          std::optional<fmm::cdag::Cdag> loaded;
          {
            const Span load(recorder, "snapshot.load");
            loaded = store.try_load(fingerprint, n);
          }
          if (!loaded) {
            throw std::runtime_error("snapshot missing for " + algorithm);
          }
          replay.add_load(static_cast<std::int64_t>(
              std::filesystem::file_size(store.path_for(fingerprint, n))));
          it = cdags.emplace(key, std::move(*loaded)).first;
        }
        return it->second;
      };
      const Span request(recorder, "service.request",
                         static_cast<std::int64_t>(i));
      const std::string result = replay.query_result(bodies[i], source);
      if (!result.empty() &&
          result != result_of(setup.reference.at(bodies[i]))) {
        outcome.fail("fabric replay differs for " + bodies[i]);
      }
    }
  }
  return static_cast<double>(now_ns() - start);
}

/// Router latency minus direct QueryService latency on bound ops, in µs:
/// one request outstanding, so the difference is the fabric's hop.
double hop_us(const FabricSetup& setup, Outcome& outcome) {
  const Universe u = universe();
  const SessionRun routed = run_session(setup, u.bound, 1);
  check_session(setup, routed, outcome);
  std::vector<double> routed_us;
  for (const double ms : latencies_ms(routed)) {
    routed_us.push_back(ms * 1e3);
  }
  service::ServiceConfig config;
  config.num_threads = 1;
  service::QueryService direct(config);
  std::vector<double> direct_us;
  for (std::size_t i = 0; i < u.bound.size(); ++i) {
    const std::string line = with_id(static_cast<std::int64_t>(i), u.bound[i]);
    const std::int64_t start = now_ns();
    direct.handle_line(line);
    direct_us.push_back(static_cast<double>(now_ns() - start) * 1e-3);
  }
  return median(routed_us) - median(direct_us);
}

/// Direct service-layer probes over one session's requests: request
/// parsing, and a warm-cache hit through handle_line (the keys are
/// answered once first, so the timed passes hit).  Microseconds per call.
void service_probes(const FabricSetup& setup,
                    const std::vector<std::string>& bodies, Metrics& m) {
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < bodies.size(); ++i) {
    lines.push_back(with_id(static_cast<std::int64_t>(i), bodies[i]));
  }
  constexpr int kLoops = 20;
  const auto per_call_us = [&](const std::function<void(const std::string&)>& call) {
    std::vector<double> reps;
    for (int rep = 0; rep < 3; ++rep) {
      const std::int64_t start = now_ns();
      for (int loop = 0; loop < kLoops; ++loop) {
        for (const std::string& line : lines) {
          call(line);
        }
      }
      reps.push_back(static_cast<double>(now_ns() - start) * 1e-3 /
                     static_cast<double>(kLoops * lines.size()));
    }
    return median(reps);
  };
  m["service.parse_us"] = per_call_us(
      [](const std::string& line) { service::parse_request(line); });
  service::QueryService direct(worker_config(setup));
  for (const std::string& line : lines) {
    direct.handle_line(line);
  }
  m["service.hit_us"] = per_call_us(
      [&](const std::string& line) { direct.handle_line(line); });
}

}  // namespace

std::vector<std::string> fabric_session_bodies(std::uint64_t seed,
                                               std::size_t index) {
  SeedStream rng(seed * 0x100000001b3ULL + index);
  std::set<std::string> seen;
  std::vector<std::string> bodies;
  // Every session has the same cost profile: the CDAG-shaped ops of
  // kCdagOps, the rest bound ops; the seed picks schemes, memory sizes and
  // order.
  for (const CdagOps& ops : kCdagOps) {
    for (std::size_t i = 0; i < ops.count; ++i) {
      std::string body;
      do {
        const std::string& scheme = schemes()[rng.below(schemes().size())];
        body = "\"op\": \"" + std::string(ops.op) +
               "\", \"algorithm\": \"" + scheme +
               "\", \"n\": " + std::to_string(ops.n);
        if (std::string(ops.op) == "liveness") {
          body += ", \"m\": " + std::to_string(64 << (2 * rng.below(3)));
        }
        body += "}";
      } while (!seen.insert(body).second);
      bodies.push_back(body);
    }
  }
  const Universe u = universe();
  const std::vector<std::size_t> bound_order = permutation(u.bound.size(), rng);
  for (std::size_t i = 0; i < kBoundPerSession; ++i) {
    bodies.push_back(u.bound[bound_order[i]]);
  }
  const std::vector<std::size_t> order = permutation(bodies.size(), rng);
  std::vector<std::string> shuffled;
  for (const std::size_t i : order) {
    shuffled.push_back(bodies[i]);
  }
  return shuffled;
}

Outcome run_fabric_coldstart(const Options& options) {
  Outcome outcome;
  FabricSetup setup;
  const double setup_s = median_setup_s(options.trace ? 1 : 3,
                                        [&] { setup = make_setup(options); });
  Metrics& m = outcome.metrics;

  // Sessions for the whole run length (half of it in a traced run, which
  // also replays and probes).
  const double budget_s = options.trace ? options.seconds / 2 : options.seconds;
  std::vector<SessionRun> runs;
  const std::int64_t start = now_ns();
  do {
    runs.push_back(run_session(
        setup, fabric_session_bodies(options.seed, runs.size()), kOutstanding));
    check_session(setup, runs.back(), outcome);
  } while (static_cast<double>(now_ns() - start) * 1e-9 < budget_s);

  std::vector<double> latency;
  std::vector<double> walls;
  double total_wall = 0.0;
  std::size_t responses = 0;
  std::int64_t requeues = 0;
  std::int64_t snapshot_hits = 0;
  std::int64_t builds = 0;
  std::int64_t cache_hits = 0;
  std::int64_t cache_lookups = 0;
  std::int64_t rejected = 0;
  for (const SessionRun& run : runs) {
    builds += run.builds;
    cache_hits += run.cache_hits;
    cache_lookups += run.cache_hits + run.cache_misses;
    rejected += run.stats.rejected_queue_full;
    const std::vector<double> l = latencies_ms(run);
    latency.insert(latency.end(), l.begin(), l.end());
    walls.push_back(session_wall_s(run));
    total_wall += walls.back();
    responses += run.times.responses.size();
    requeues += run.stats.requeues;
    snapshot_hits += run.snapshot_hits;
  }
  std::size_t within = 0;
  for (const double ms : latency) {
    within += ms <= kFabricSloMs ? 1 : 0;
  }
  m["bench.latency_samples"] = static_cast<double>(latency.size());
  write_latencies(options, latency);
  if (!options.trace) {
    m["setup_s"] = setup_s;
    m["wall_s"] = median(walls);
    m["ops_per_s"] = static_cast<double>(responses) / total_wall;
    m["latency_p50_ms"] = percentile(latency, 0.50);
    m["latency_p99_ms"] = percentile(latency, 0.99);
    // Wrong answers count as misses of the limit.
    m["within_slo_frac"] =
        std::max(0.0, static_cast<double>(within) -
                          static_cast<double>(outcome.failed)) /
        static_cast<double>(latency.size());
    std::filesystem::remove_all(setup.store_dir);
    return outcome;
  }

  m["fabric.requeues"] = static_cast<double>(requeues);
  m["service.rejected"] = static_cast<double>(rejected);
  m["service.cache_hit_ratio"] =
      cache_lookups == 0 ? 0.0
                         : static_cast<double>(cache_hits) /
                               static_cast<double>(cache_lookups);
  service_probes(setup, runs.front().bodies, m);
  m["fabric.hop_us"] = hop_us(setup, outcome);
  m["bilinear.resolve_ms"] = cold_resolve_ms(schemes(), 5);
  // Registry view of the sessions.  The replay below loads each CDAG once
  // per worker; a session can load more, when a worker's memory cache
  // evicts a CDAG it needs again.
  const double hits_per_session =
      static_cast<double>(snapshot_hits) / static_cast<double>(runs.size());
  // Replay the first session through the layer calls, alternating
  // untraced and traced rounds; the faster of each gives the recorder's
  // overhead.
  double walls_ns[2] = {0.0, 0.0};
  for (int round = 0; round < 6; ++round) {
    const bool traced = round % 2 == 1;
    SpanRecorder recorder(traced);
    LayerReplay replay(recorder);
    const double wall = replay_session(setup, runs.front().bodies, recorder,
                                       replay, outcome);
    walls_ns[traced] = round < 2 ? wall : std::min(walls_ns[traced], wall);
    if (round != 5) {
      continue;
    }
    // The traced session's request spans: timestamps the closed loop
    // already took, so recording them costs the session nothing.
    std::vector<SpanRecord> spans = recorder.spans();
    const SessionRun& first = runs.front();
    SpanRecord session;
    session.id = recorder.next_id();
    session.name = "fabric.session";
    session.start_ns = first.times.sent_ns.front();
    session.end_ns = first.times.done_ns.back();
    spans.push_back(session);
    for (std::size_t i = 0; i < first.times.done_ns.size(); ++i) {
      SpanRecord request;
      request.id = recorder.next_id();
      request.parent = session.id;
      request.name = "fabric.request";
      request.start_ns = first.times.sent_ns[i];
      request.end_ns = first.times.done_ns[i];
      request.request = static_cast<std::int64_t>(i);
      spans.push_back(request);
      recorder.add(request);
    }
    recorder.add(session);
    add_span_metrics(spans, replay.counts(), m);
    write_trace(options, recorder);
  }
  // Layer counters from the registry, per session.
  m["snapshot.loads"] = hits_per_session;
  m["cdag.builds"] = static_cast<double>(builds);
  m["bench.trace_overhead_frac"] = walls_ns[1] / walls_ns[0] - 1.0;
  std::filesystem::remove_all(setup.store_dir);
  return outcome;
}

}  // namespace perfbench
